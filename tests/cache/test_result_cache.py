"""ResultCache: keys, LRU byte bound, books."""

import threading

import numpy as np
import pytest

from repro.cache import CachedAnswer, ResultCache
from repro.cache.result_cache import ENTRY_OVERHEAD_BYTES


def answer(prediction=1, source="host"):
    return CachedAnswer(
        prediction=prediction, bnn_prediction=0, confidence=0.5, source=source
    )


def image(seed, shape=(3, 4, 4)):
    return np.random.default_rng(seed).normal(size=shape)


class TestExactTier:
    def test_miss_then_hit_round_trip(self):
        cache = ResultCache(max_bytes=1 << 20)
        img = image(0)
        key = cache.key_for(img)
        assert cache.get(key) is None
        cache.put(key, img, answer(prediction=7))
        got = cache.get(key)
        assert got == answer(prediction=7)
        snap = cache.snapshot()
        assert (snap.lookups, snap.hits, snap.misses) == (2, 1, 1)
        assert snap.balanced

    def test_namespace_separates_tenants(self):
        cache = ResultCache(max_bytes=1 << 20)
        img = image(1)
        key_a = cache.key_for(img, "model-a")
        key_c = cache.key_for(img, "model-c")
        assert key_a != key_c
        cache.put(key_a, img, answer(prediction=3, source="host"))
        assert cache.get(key_c) is None
        assert cache.get(key_a).prediction == 3

    def test_put_is_idempotent_per_key(self):
        cache = ResultCache(max_bytes=1 << 20)
        img = image(2)
        key = cache.key_for(img)
        cache.put(key, img, answer(prediction=1))
        cache.put(key, img, answer(prediction=2))
        assert cache.entries == 1
        assert cache.get(key).prediction == 2

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(shards=0)


class TestByteBound:
    def test_lru_eviction_keeps_bytes_within_budget(self):
        # One shard makes the LRU order observable; the budget holds four.
        cache = ResultCache(max_bytes=4 * ENTRY_OVERHEAD_BYTES, shards=1)
        imgs = [np.full((8,), float(i)) for i in range(10)]
        for img in imgs:
            cache.put(cache.key_for(img), img, answer())
            assert cache.bytes <= cache.max_bytes
        snap = cache.snapshot()
        assert snap.evictions == snap.insertions - snap.entries > 0
        # The most recent insert survived; the oldest was evicted.
        assert cache.get(cache.key_for(imgs[-1])) is not None
        assert cache.get(cache.key_for(imgs[0])) is None

    def test_get_refreshes_lru_position(self):
        cache = ResultCache(max_bytes=2 * ENTRY_OVERHEAD_BYTES, shards=1)
        a, b, c = (np.full((8,), float(i)) for i in range(3))
        cache.put(cache.key_for(a), a, answer(1))
        cache.put(cache.key_for(b), b, answer(2))
        assert cache.get(cache.key_for(a)) is not None  # a becomes MRU
        cache.put(cache.key_for(c), c, answer(3))       # evicts b, not a
        assert cache.get(cache.key_for(a)) is not None
        assert cache.get(cache.key_for(b)) is None

    def test_oversized_entry_is_skipped_silently(self):
        cache = ResultCache(max_bytes=ENTRY_OVERHEAD_BYTES // 2, shards=1)
        huge = np.zeros(4096)
        cache.put(cache.key_for(huge), huge, answer())
        assert cache.entries == 0
        assert cache.get(cache.key_for(huge)) is None

    def test_clear_resets_storage(self):
        cache = ResultCache(max_bytes=1 << 20)
        img = image(3)
        cache.put(cache.key_for(img), img, answer())
        cache.clear()
        assert (cache.entries, cache.bytes) == (0, 0)
        assert cache.get(cache.key_for(img), img) is None


class TestConcurrency:
    def test_books_balance_under_concurrent_mixed_traffic(self):
        cache = ResultCache(max_bytes=1 << 16, shards=4)
        imgs = [np.full((16,), float(i)) for i in range(32)]
        keys = [cache.key_for(img) for img in imgs]
        errors = []

        def worker(lane):
            try:
                for i in range(200):
                    j = (lane * 7 + i) % len(imgs)
                    if cache.get(keys[j], imgs[j]) is None:
                        cache.put(keys[j], imgs[j], answer(j))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(l,)) for l in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = cache.snapshot()
        assert snap.balanced
        assert snap.lookups == 8 * 200
        assert cache.bytes <= cache.max_bytes
