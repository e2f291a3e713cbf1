"""Byte-bounded sharded LRU of terminal cascade answers.

The cache stores :class:`CachedAnswer` values — the (prediction,
bnn_prediction, confidence, source) tuple of a terminal
:class:`repro.serve.ServeResult` — under the blake2b content key of the
raw image bytes (:func:`repro.util.hashing.content_key`).  Answers are
tiny; what bounds the cache is the *byte* budget, which matters once
the near-duplicate tier keeps canonical images around for its compare
gate.

Concurrency: the key space is split across ``shards`` independent
locks (key bytes pick the shard), so concurrent tenants and serving
threads never serialize on one cache-wide mutex; the counters live in
the cache's own :class:`repro.obs.Ledger`, behind its one lock.

Near-duplicate tier (optional, for video): every stored image is also
indexed by a **quantized thumbnail fingerprint** — block-mean
downsample to ``thumb_size``², quantized to ``quant_levels`` — and a
lookup that misses the exact tier probes the fingerprint index.  A
fingerprint match alone never produces a hit: the candidate entry's
canonical image is compared against the query through the ``atol``
gate, and with the default ``atol=0.0`` the gate passes only
bit-identical buffers, so every hit the cache ever serves is exactly
the answer a cold run would have produced.  Setting ``atol > 0``
opts into *approximate* reuse (consecutive video crops that differ by
sensor noise), explicitly trading bit-identity for hit rate.

Books: the declared law :data:`LOOKUPS`, ``hits + misses == lookups``,
holds always (the reconciliation ``repro serve-bench`` and ``repro
serve-tenants`` exit nonzero without), with ``near_hits`` counting the
subset of hits that came through the fingerprint tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs.ledger import Law, Ledger, violations
from ..util.hashing import content_key

__all__ = ["LOOKUPS", "CachedAnswer", "CacheSnapshot", "ResultCache"]

#: Every lookup is a hit or a miss.
LOOKUPS = Law("lookups", ("hits", "misses"), "lookups")
#: Counter -> tracer name.
_COUNTERS = {
    "lookups": None, "hits": "cache.hit", "misses": "cache.miss", "near_hits": None,
    "near_rejects": None, "insertions": None, "evictions": "cache.evicted",
}

#: Fixed per-entry bookkeeping cost (key, answer, dict slots) charged
#: against the byte budget even when no canonical image is stored.
ENTRY_OVERHEAD_BYTES = 160


@dataclass(frozen=True)
class CachedAnswer:
    """Terminal answer of one cascade pass, minus its transport fields.

    ``source`` is the rung that produced the cold answer ("bnn",
    "host", a ladder rung name, ...); a cache hit is re-served with
    ``ServeResult.source == "cache"`` and this value preserved as
    :attr:`cold_source` provenance by :class:`repro.cache.CachingFrontend`.
    """

    prediction: int
    bnn_prediction: int
    confidence: float
    source: str


@dataclass(frozen=True)
class CacheSnapshot:
    """Point-in-time cache books; :data:`LOOKUPS` holds always."""

    lookups: int
    hits: int
    misses: int
    near_hits: int        # hits served through the fingerprint tier
    near_rejects: int     # fingerprint matched but the compare gate refused
    insertions: int
    evictions: int
    entries: int
    bytes: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def balanced(self) -> bool:
        """The cache books reconcile (CI gate of the bench harnesses)."""
        return not violations((LOOKUPS,), self)


class _Entry:
    __slots__ = ("answer", "image", "fingerprint", "nbytes")

    def __init__(self, answer, image, fingerprint, nbytes):
        self.answer = answer
        self.image = image              # canonical pixels (near-dup gate) or None
        self.fingerprint = fingerprint  # bytes or None
        self.nbytes = nbytes


class _Shard:
    __slots__ = ("lock", "entries", "bytes")

    def __init__(self):
        self.lock = threading.Lock()
        self.entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self.bytes = 0


class ResultCache:
    """Sharded-lock LRU of :class:`CachedAnswer`, bounded by bytes.

    Parameters
    ----------
    max_bytes:
        Total byte budget across all shards (entries + stored images).
    shards:
        Independent lock domains (power of two recommended).
    near_duplicate:
        Enable the fingerprint tier.  Stores each entry's canonical
        image (costed against ``max_bytes``) so the compare gate can
        guarantee bit-identity at ``atol=0``.
    thumb_size, quant_levels:
        Fingerprint resolution: block-mean thumbnail side and the
        number of quantization levels.
    atol:
        Compare-gate tolerance.  ``0.0`` (default) admits only
        bit-identical images — cache hits are exactly cold-run answers.
        ``> 0`` admits near-duplicates within that absolute tolerance.
    """

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        shards: int = 8,
        near_duplicate: bool = False,
        thumb_size: int = 8,
        quant_levels: int = 32,
        atol: float = 0.0,
    ):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if thumb_size < 1 or quant_levels < 2:
            raise ValueError("thumb_size must be >= 1 and quant_levels >= 2")
        if atol < 0:
            raise ValueError("atol must be >= 0")
        self.max_bytes = int(max_bytes)
        self.near_duplicate = bool(near_duplicate)
        self.thumb_size = int(thumb_size)
        self.quant_levels = int(quant_levels)
        self.atol = float(atol)
        self._shards = [_Shard() for _ in range(shards)]
        self._shard_budget = max(1, self.max_bytes // shards)
        # Near-duplicate index is global, not per-shard: two near-identical
        # images have *different* content keys and would land in different
        # shards, so a per-shard index would never connect them.
        self._fp_lock = threading.Lock()
        self._fp_index: dict[bytes, bytes] = {}  # fingerprint -> canonical key
        self.ledger = Ledger(_COUNTERS, laws=(LOOKUPS,))

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def key_for(image: np.ndarray, namespace: str = "") -> bytes:
        """Content key of *image* (optionally namespaced per tenant)."""
        return content_key(image, namespace)

    def _shard_for(self, key: bytes) -> _Shard:
        return self._shards[int.from_bytes(key[:4], "big") % len(self._shards)]

    # -- fingerprint tier -----------------------------------------------------
    def fingerprint(self, image: np.ndarray) -> bytes:
        """Quantized-thumbnail fingerprint of *image* (near-dup bucket).

        Channel-mean block downsample to ``thumb_size``² then uniform
        quantization to ``quant_levels`` over the thumbnail's own
        range — cheap, deterministic, and stable under small per-pixel
        noise (the whole point: noisy re-crops of one frame bucket
        together, the exact gate then arbitrates).
        """
        pixels = np.asarray(image, dtype=np.float64)
        flat = pixels.reshape(-1)
        side = self.thumb_size
        cells = side * side
        # Pad to a multiple of the cell count, then block-mean.
        pad = (-len(flat)) % cells
        if pad:
            flat = np.concatenate([flat, np.zeros(pad)])
        thumb = flat.reshape(cells, -1).mean(axis=1)
        lo, hi = float(thumb.min()), float(thumb.max())
        scale = (self.quant_levels - 1) / (hi - lo) if hi > lo else 0.0
        quantized = np.round((thumb - lo) * scale).astype(np.uint8)
        return quantized.tobytes()

    def _gate(self, stored: np.ndarray, query: np.ndarray) -> bool:
        """Exact-by-default compare gate of the fingerprint tier."""
        if stored.shape != query.shape or stored.dtype != query.dtype:
            return False
        if self.atol == 0.0:
            return stored.tobytes() == query.tobytes()
        return bool(np.allclose(stored, query, rtol=0.0, atol=self.atol))

    # -- lookup / insert ------------------------------------------------------
    def get(self, key: bytes, image: np.ndarray | None = None) -> CachedAnswer | None:
        """Look up *key*; probe the fingerprint tier on an exact miss.

        *image* is required for the fingerprint tier (there is nothing
        to gate against without the query pixels); exact lookups work
        from the key alone.
        """
        shard = self._shard_for(key)
        near = False
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is not None:
                shard.entries.move_to_end(key)
        if entry is None and self.near_duplicate and image is not None:
            with self._fp_lock:
                candidate_key = self._fp_index.get(self.fingerprint(image))
            if candidate_key is not None and candidate_key != key:
                cshard = self._shard_for(candidate_key)
                with cshard.lock:
                    candidate = cshard.entries.get(candidate_key)
                    if candidate is not None and candidate.image is not None:
                        if self._gate(candidate.image, np.asarray(image)):
                            entry = candidate
                            near = True
                            cshard.entries.move_to_end(candidate_key)
                        else:
                            self.ledger.add(near_rejects=1)
        if entry is None:
            self.ledger.add(lookups=1, misses=1)
            return None
        self.ledger.add(lookups=1, hits=1, near_hits=int(near))
        return entry.answer

    def put(self, key: bytes, image: np.ndarray, answer: CachedAnswer) -> None:
        """Insert (idempotent per key); evicts LRU entries over budget."""
        image = np.asarray(image)
        stored = image.copy() if self.near_duplicate else None
        fingerprint = self.fingerprint(image) if self.near_duplicate else None
        nbytes = ENTRY_OVERHEAD_BYTES + (stored.nbytes if stored is not None else 0)
        if nbytes > self._shard_budget:
            return  # an entry larger than a whole shard can never fit
        shard = self._shard_for(key)
        victims: list[tuple[bytes, _Entry]] = []
        with shard.lock:
            old = shard.entries.pop(key, None)
            if old is not None:
                shard.bytes -= old.nbytes
            shard.entries[key] = _Entry(answer, stored, fingerprint, nbytes)
            shard.bytes += nbytes
            while shard.bytes > self._shard_budget and shard.entries:
                victim_key, victim = shard.entries.popitem(last=False)
                shard.bytes -= victim.nbytes
                victims.append((victim_key, victim))
        if fingerprint is not None or victims:
            with self._fp_lock:
                for victim_key, victim in victims:
                    if (
                        victim.fingerprint is not None
                        and self._fp_index.get(victim.fingerprint) == victim_key
                    ):
                        del self._fp_index[victim.fingerprint]
                if fingerprint is not None:
                    self._fp_index[fingerprint] = key
        self.ledger.add(insertions=1, evictions=len(victims))

    # -- reading --------------------------------------------------------------
    @property
    def bytes(self) -> int:
        return sum(shard.bytes for shard in self._shards)

    @property
    def entries(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def snapshot(self) -> CacheSnapshot:
        return CacheSnapshot(
            **self.ledger.read().counters,
            entries=self.entries,
            bytes=self.bytes,
            max_bytes=self.max_bytes,
        )

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.bytes = 0
        with self._fp_lock:
            self._fp_index.clear()
