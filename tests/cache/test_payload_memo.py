"""Exactness of the recent-payload memo at both of its call sites.

:class:`~repro.net.ShardRouter` (rendezvous placement) keeps one
:class:`~repro.util.hashing.PayloadMemo` whose value is the replica
order or, when a replica has a cache, the order and the content key the
router hands to that replica.  :class:`~repro.cache.CachingFrontend`
keeps one for the keys it computes itself (no key given, or a tenant
namespace).  The memo may only ever save work: every order must equal
:func:`~repro.util.hashing.rendezvous_order` and every key
:func:`~repro.util.hashing.content_key` of the bytes passed *in that
call* — across repeats, interleaved streams with more distinct frames
than the memo holds, equal bytes under another dtype (including two
structured dtypes that compare equal but print differently), shape or
namespace, one array object rewritten in place between calls, and many
threads racing on one memo.
"""

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import CachingFrontend, ResultCache
from repro.net.router import InProcessReplica, ShardRouter
from repro.serve.server import ServeResult
from repro.util.hashing import (
    MEMO_ENTRIES,
    MEMO_MAX_BYTES,
    PayloadMemo,
    content_key,
    rendezvous_order,
)

#: Distinct 24-byte payloads, more of them than the memo holds.
PAYLOADS = np.random.default_rng(35).integers(0, 256, size=(MEMO_ENTRIES + 3, 24), dtype=np.uint8)
#: Two structured dtypes that compare (and hash) equal, yet print, and so
#: content-key, differently: a memo tagged with the dtype object would
#: hand one the other's key.
ALIGNED = np.dtype([("a", "<f4"), ("b", "<f4")], align=True)
UNALIGNED = np.dtype([("a", "<f4"), ("b", "<f4")])
#: The same bytes read as other dtypes and shapes (content keys differ).
FORMS = [("u1", (24,)), ("u1", (4, 6)), ("<f4", (6,)), (">f4", (2, 3)), ("<f8", (3,)), ("<i2", (12,)),
         (ALIGNED, (3,)), (UNALIGNED, (3,))]
NAMESPACES = ["", "model-a", "model-c"]
#: How a call's array is made: a fresh array, a view of one array object
#: that is rewritten in place before the call, or a non-contiguous view.
HOLDERS = ["fresh", "live", "strided"]


class Answering:
    """Backend that answers every submit at once."""

    def submit(self, image) -> Future:
        future: Future = Future()
        future.set_result(ServeResult(
            prediction=0, bnn_prediction=0, confidence=0.5,
            source="bnn", latency_seconds=0.0,
        ))
        return future

    def close(self, *args, **kwargs) -> None:
        pass


class KeySpy(ResultCache):
    """Records, per thread, the key of every lookup the frontend makes."""

    def __init__(self):
        super().__init__(max_bytes=1 << 20)
        self.seen: dict[int, list[bytes]] = {}

    def get(self, key, image=None):
        self.seen.setdefault(threading.get_ident(), []).append(key)
        return super().get(key, image)


class CachedReplica(InProcessReplica):
    """An in-process replica with a cache in front, like a cached
    :class:`~repro.net.router.ProcessReplica`: it takes the router's key."""

    def __init__(self, index: int, cache: ResultCache):
        super().__init__(index, Answering())
        self.cache_frontend = CachingFrontend(Answering(), cache)

    def submit(self, image, key=None) -> Future:
        return self.cache_frontend.submit(image, key)


def make_router(n: int, cache: ResultCache | None = None) -> ShardRouter:
    """A rendezvous router; with *cache*, every replica keeps one frontend
    over it (one image always lands on one replica, so they may share)."""
    if cache is None:
        replicas = [InProcessReplica(i, Answering()) for i in range(n)]
    else:
        replicas = [CachedReplica(i, cache) for i in range(n)]
    return ShardRouter(replicas, placement="rendezvous")


def check_placement(router: ShardRouter, image: np.ndarray, n: int) -> list:
    """What the router's memo gives for *image*, against the pure functions:
    ``[]`` when both values are right."""
    order, key = router._place(image)
    wrong = [] if list(order) == rendezvous_order(image, n) else ["order"]
    expected = content_key(image) if router._keyed else None
    return wrong if key == expected else wrong + ["key"]


class Holders:
    """Builds each call's array from (payload, form, holder)."""

    def __init__(self):
        self.live = np.empty(PAYLOADS.shape[1], dtype=np.uint8)

    def image(self, payload: int, form: int, holder: str) -> np.ndarray:
        dtype, shape = FORMS[form]
        if holder == "live":
            self.live[:] = PAYLOADS[payload]  # same object, new bytes
            return self.live if form == 0 else self.live.view(dtype).reshape(shape)
        items = PAYLOADS[payload].view(dtype)
        if holder == "strided":
            wide = np.zeros(2 * items.size, dtype=dtype)
            wide[::2] = items
            return wide[::2].reshape(shape)
        return items.copy().reshape(shape)


calls = st.lists(
    st.tuples(
        st.integers(0, len(PAYLOADS) - 1),
        st.integers(0, len(FORMS) - 1),
        st.sampled_from(NAMESPACES),
        st.sampled_from(HOLDERS),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), keyed=st.booleans(), sequence=calls)
# One array object rewritten in place, then its first bytes again.
@example(n=3, keyed=True, sequence=[(0, 0, "", "live"), (1, 0, "", "live"), (0, 0, "", "live")])
# Equal bytes: another dtype, another shape, another namespace.
@example(n=2, keyed=True, sequence=[(2, 0, "", "fresh"), (2, 2, "", "fresh"), (2, 1, "", "fresh"),
                                    (2, 0, "model-a", "fresh"), (2, 0, "", "strided")])
# Equal dtypes that print differently: each must get its own key.
@example(n=2, keyed=True, sequence=[(1, 6, "", "fresh"), (1, 7, "", "fresh"), (1, 6, "", "live"),
                                    (1, 7, "model-a", "strided")])
# Round-robin over more distinct frames than the memo holds.
@example(n=4, keyed=True, sequence=[(i % len(PAYLOADS), 0, "", "fresh") for i in range(3 * len(PAYLOADS))])
def test_memo_never_changes_a_placement_or_a_key(n, keyed, sequence):
    routed = KeySpy()
    router = make_router(n, routed if keyed else None)
    cache = KeySpy()
    frontend = CachingFrontend(Answering(), cache)
    holders = Holders()
    expected_keys, routed_keys = [], []
    for payload, form, namespace, holder in sequence:
        image = holders.image(payload, form, holder)
        assert check_placement(router, image, n) == []
        router.submit(image).result(timeout=10.0)  # the replica's cache sees the router's key
        routed_keys.append(content_key(image))
        frontend.namespace = namespace
        expected_keys.append(content_key(image, namespace))
        frontend.submit(image).result(timeout=10.0)
    assert cache.seen[threading.get_ident()] == expected_keys
    assert routed.seen.get(threading.get_ident(), []) == (routed_keys if keyed else [])


def test_object_arrays_bypass_the_memo():
    # Their bytes are pointers: equal bytes need not mean equal content.
    memo, computed = PayloadMemo(), []
    image = np.array([[1], [2]], dtype=object)
    for _ in range(2):
        assert memo.lookup(image, 0, lambda owned: computed.append(owned) or len(computed)) == len(computed)
    assert len(computed) == 2 and computed[-1] is image


def test_payloads_over_the_byte_cap_bypass_the_memo():
    # One model input is kept; anything bigger is hashed every time, so a
    # client cannot park large frames in the memo.
    memo, computed = PayloadMemo(), []
    largest = np.zeros(MEMO_MAX_BYTES, dtype=np.uint8)
    bigger = np.zeros(MEMO_MAX_BYTES + 1, dtype=np.uint8)
    for image in (largest, largest, bigger, bigger):
        memo.lookup(image, 0, lambda owned: computed.append(owned) or len(computed))
    assert [image.nbytes for image in computed] == [MEMO_MAX_BYTES] + 2 * [MEMO_MAX_BYTES + 1]
    assert memo.lookup(largest, 0, lambda owned: "recomputed") == 1


def test_value_is_computed_from_an_owned_copy():
    memo, image = PayloadMemo(), np.arange(6, dtype=np.float32).reshape(2, 3)
    owned = memo.lookup(image, None, lambda owned: owned)
    image[:] = -1.0  # the caller rewrites its array; the entry must not see it
    assert not owned.flags.writeable
    assert owned.dtype == image.dtype and owned.shape == image.shape
    np.testing.assert_array_equal(owned, np.arange(6, dtype=np.float32).reshape(2, 3))
    assert memo.lookup(image, None, lambda owned: "recomputed") == "recomputed"


def test_racing_threads_never_get_another_payloads_value():
    """More threads than cores share one router with replica caches, one
    router without and one frontend, switching every microsecond; each
    thread checks every order and key it receives."""
    n, threads, seconds = 3, 8, 2.0
    routed = KeySpy()
    keyed, plain = make_router(n, routed), make_router(n)
    cache = KeySpy()
    frontend = CachingFrontend(Answering(), cache)
    images = [PAYLOADS[i].view("<f4").reshape(2, 3) for i in range(len(PAYLOADS))]
    keys = [content_key(image) for image in images]
    wrong, sent = [], {}
    start = threading.Barrier(threads)

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait(10.0)
        deadline, mine = time.monotonic() + seconds, []
        while time.monotonic() < deadline:
            # Runs of repeats from a shared pool: threads hit, miss and
            # insert into the same memos at once.
            i = int(rng.integers(len(images)))
            for _ in range(int(rng.integers(1, 4))):
                for router in (keyed, plain):
                    wrong.extend((what, i) for what in check_placement(router, images[i], n))
                keyed.submit(images[i]).result(timeout=10.0)
                frontend.submit(images[i]).result(timeout=10.0)
                mine.append(keys[i])
        sent[threading.get_ident()] = mine

    workers = [threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
    assert len(sent) == threads and all(sent.values())
    assert {ident: cache.seen[ident] for ident in sent} == sent
    assert {ident: routed.seen[ident] for ident in sent} == sent
