"""Shared blake2b digests: rendezvous placement and cache keying.

Two subsystems hash raw image bytes and both must be deterministic
across processes and releases:

* :class:`repro.net.ShardRouter`'s ``rendezvous`` placement ranks
  replicas by highest-random-weight (HRW) score of the image payload —
  :func:`rendezvous_score` / :func:`rendezvous_order` here are the
  exact keyed-blake2b construction the router has always used, so
  placement stays **byte-identical** after the extraction (pinned by a
  golden test in ``tests/cache/test_hashing.py``).
* :class:`repro.cache.ResultCache` keys terminal answers by
  :func:`content_key`, a blake2b digest over the image's dtype, shape
  and raw C-order bytes.  Including the geometry means two images whose
  buffers happen to share bytes but differ in dtype or shape can never
  collide into one cache entry.

Both paths intentionally share one hash family: the same image bytes
that pick a replica under rendezvous placement also name that replica's
cache entry, which is what makes per-replica caches effective (every
duplicate of an image lands on the shard already holding its answer).

Both callers also see the same payload several times in a row (a held
video frame, a retried request), and hashing 24 KB costs tens of
microseconds per pass.  :class:`PayloadMemo` keeps the values of the
last few payloads a caller hashed, so a repeat costs one byte
comparison instead; the functions above stay pure and uncached.  A
routed request is looked up once: under rendezvous placement with
replica caches the router's memo value is the pair (replica order,
content key), and the router hands the key to the replica's cache.  A
:class:`repro.cache.CachingFrontend` keeps its own memo only for the
keys it computes itself (no key handed in, or a tenant namespace).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable, TypeVar

import numpy as np

__all__ = ["PayloadMemo", "content_key", "rendezvous_order", "rendezvous_score"]

T = TypeVar("T")

#: Digest width (bytes) of the HRW score hash — the router's historical
#: choice; 64 bits is plenty for ranking a handful of replicas.
RENDEZVOUS_DIGEST_SIZE = 8

#: Digest width (bytes) of a cache content key.  128 bits keeps the
#: collision probability negligible for any realistic cache population.
CONTENT_DIGEST_SIZE = 16

#: Payloads one :class:`PayloadMemo` remembers: the longest measured
#: distance from a payload back to its previous lookup.  The router on a
#: held video frame sees the repeat next (distance 1).  A tenant's cache
#: frontend under ``repro serve-tenants`` sees the frame's other crops
#: in between, so the distance is the crops per frame: at most 3 over
#: 4,800 frames of the default video source (200 seeds x 24 frames).
#: A new payload pays one comparison per entry, each stopping at the
#: first differing byte.
MEMO_ENTRIES = 3

#: Largest payload a :class:`PayloadMemo` keeps: one 3x32x32 float64
#: image, the largest input of any model here.  Bigger payloads are
#: hashed every time, so one memo holds at most
#: ``MEMO_ENTRIES * MEMO_MAX_BYTES`` (72 KiB) of payload copies.
MEMO_MAX_BYTES = 3 * 32 * 32 * 8


def payload_bytes(image: np.ndarray) -> bytes:
    """Canonical raw bytes of *image*: a fresh C-order copy, whatever its
    layout (``tobytes`` copies even a contiguous array)."""
    return np.asarray(image).tobytes()


def rendezvous_score(payload: bytes, index: int) -> int:
    """HRW score of replica *index* for *payload* (higher wins).

    Keyed blake2b with the replica index as an 8-byte big-endian key —
    byte-for-byte the construction ``repro.net.router`` hand-rolled
    before this helper existed; do not change it, placement stability
    across versions depends on it.
    """
    digest = hashlib.blake2b(
        payload, digest_size=RENDEZVOUS_DIGEST_SIZE, key=index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_order(image: np.ndarray, n: int) -> list[int]:
    """Replica indices ``0..n-1`` ranked by descending HRW score."""
    payload = payload_bytes(np.asarray(image))
    scores = [(rendezvous_score(payload, index), index) for index in range(n)]
    return [index for _, index in sorted(scores, reverse=True)]


def content_key(image: np.ndarray, namespace: str = "") -> bytes:
    """Content address of *image*: blake2b over geometry + raw bytes.

    *namespace* partitions the key space (e.g. per tenant: the same
    image classified by Model A and Model C has two different terminal
    answers, so it must occupy two cache entries).
    """
    image = np.asarray(image)
    h = hashlib.blake2b(digest_size=CONTENT_DIGEST_SIZE)
    if namespace:
        h.update(namespace.encode("utf-8"))
        h.update(b"\x00")
    h.update(str(image.dtype).encode("ascii"))
    h.update(np.asarray(image.shape, dtype="<i8").tobytes())
    h.update(payload_bytes(image))
    return h.digest()


class PayloadMemo:
    """The values of the last :data:`MEMO_ENTRIES` payloads, by exact bytes.

    :meth:`lookup` returns ``compute(image)`` for an image whose raw
    bytes and *tag* equal a remembered entry's, without calling
    *compute*.  The tag names whatever else the value depends on: the
    replica count for a placement; the namespace, ``str`` of the dtype
    and shape for a content key; all of the count, dtype string and
    shape for the router's (placement, key) pair.  A dtype enters a tag
    as its string, since two dtypes can compare equal yet name different
    keys.  Every repeat receives the same value object, so
    *compute* should return an immutable one (a tuple, ``bytes``).

    Exactness: an entry holds an owned ``bytes`` copy of the payload,
    never a view of the caller's array, and its value is computed from
    that copy, so mutating the array later cannot make an entry lie.
    Concurrency: the entries are one immutable tuple, read once and
    replaced in one assignment; two racing misses may drop one of their
    inserts, which only costs a later miss.  Object arrays bypass the
    memo (their bytes are pointers, not content), and so do payloads
    over :data:`MEMO_MAX_BYTES`, which bounds the memory it holds.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: tuple[tuple[Hashable, bytes, object], ...] = ()

    def lookup(
        self, image: np.ndarray, tag: Hashable, compute: Callable[[np.ndarray], T]
    ) -> T:
        """``compute(image)``, reused when the same bytes and *tag* were
        among the last few looked up."""
        image = np.asarray(image)
        if image.dtype.hasobject or image.nbytes > MEMO_MAX_BYTES:
            return compute(image)
        payload = payload_bytes(image)
        entries = self._entries
        for held_tag, held, value in entries:
            if held_tag == tag and held == payload:
                return value
        value = compute(np.frombuffer(payload, image.dtype).reshape(image.shape))
        self._entries = ((tag, payload, value),) + entries[: MEMO_ENTRIES - 1]
        return value
