"""Byte-bounded sharded LRU of terminal cascade answers.

The cache stores :class:`CachedAnswer` values — the (prediction,
bnn_prediction, confidence, source) tuple of a terminal
:class:`repro.serve.ServeResult` — under the blake2b content key of the
raw image bytes (:func:`repro.util.hashing.content_key`), namespaced
per tenant.  Only the key is stored, never the pixels: every hit is
exactly the answer a cold run produced for the same bytes.  Each entry
costs a fixed :data:`ENTRY_OVERHEAD_BYTES` against the byte budget.

Concurrency: the key space is split across ``shards`` independent
locks (key bytes pick the shard), so concurrent tenants and serving
threads never serialize on one cache-wide mutex; the counters live in
the cache's own :class:`repro.obs.Ledger`, behind its one lock.

Books: the declared law :data:`LOOKUPS`, ``hits + misses == lookups``,
holds always (the reconciliation ``repro serve-bench`` and ``repro
serve-tenants`` exit nonzero without).
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
    "lookups": None, "hits": "cache.hit", "misses": "cache.miss",
    "insertions": None, "evictions": "cache.evicted",
}

#: Fixed per-entry bookkeeping cost (key, answer, dict slots) charged
#: against the byte budget.
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


class _Shard:
    __slots__ = ("lock", "entries")

    def __init__(self):
        self.lock = threading.Lock()
        self.entries: OrderedDict[bytes, CachedAnswer] = OrderedDict()

    @property
    def bytes(self) -> int:
        return len(self.entries) * ENTRY_OVERHEAD_BYTES


class ResultCache:
    """Sharded-lock LRU of :class:`CachedAnswer`, bounded by bytes.

    Parameters
    ----------
    max_bytes:
        Total byte budget across all shards.
    shards:
        Independent lock domains (power of two recommended).
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024, shards: int = 8):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.max_bytes = int(max_bytes)
        self._shards = [_Shard() for _ in range(shards)]
        self._shard_budget = max(1, self.max_bytes // shards)
        self.ledger = Ledger(_COUNTERS, laws=(LOOKUPS,))

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def key_for(image: np.ndarray, namespace: str = "") -> bytes:
        """Content key of *image* (optionally namespaced per tenant)."""
        return content_key(image, namespace)

    def _shard_for(self, key: bytes) -> _Shard:
        return self._shards[int.from_bytes(key[:4], "big") % len(self._shards)]

    # -- lookup / insert ------------------------------------------------------
    def get(self, key: bytes, image: np.ndarray | None = None) -> CachedAnswer | None:
        """Look up *key*; *image* is ignored (kept for existing callers)."""
        shard = self._shard_for(key)
        with shard.lock:
            answer = shard.entries.get(key)
            if answer is not None:
                shard.entries.move_to_end(key)
        if answer is None:
            self.ledger.add(lookups=1, misses=1)
            return None
        self.ledger.add(lookups=1, hits=1)
        return answer

    def put(self, key: bytes, image: np.ndarray, answer: CachedAnswer) -> None:
        """Insert (idempotent per key); evicts LRU entries over budget.

        *image* is ignored (kept for existing callers): the key already
        names its bytes.
        """
        if ENTRY_OVERHEAD_BYTES > self._shard_budget:
            return  # an entry larger than a whole shard can never fit
        shard = self._shard_for(key)
        evicted = 0
        with shard.lock:
            shard.entries.pop(key, None)
            shard.entries[key] = answer
            while shard.bytes > self._shard_budget:
                shard.entries.popitem(last=False)
                evicted += 1
        self.ledger.add(insertions=1, evictions=evicted)

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
