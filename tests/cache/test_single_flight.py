"""CachingFrontend: hit path, single-flight dedup, exactly-once, books.

The hypothesis properties drive a *real* :class:`CascadeServer` behind
the frontend and compare every answer against a cold (cache-less)
server over the same images — the bit-identity contract the cache
advertises — including under a seeded :class:`repro.faults.FaultPlan`.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CachingFrontend, ResultCache
from repro.core import DecisionMakingUnit
from repro.faults import FaultPlan, FaultSpec, wrap_stack
from repro.serve import CascadeServer, ServerMetrics
from repro.serve.server import ServeResult

NUM_CLASSES = 10


def make_dmu(threshold: float = 0.7) -> DecisionMakingUnit:
    weights = np.zeros(NUM_CLASSES)
    weights[0], weights[1] = 4.0, -4.0
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def bnn_scores_fn(images: np.ndarray) -> np.ndarray:
    return images.reshape(len(images), NUM_CLASSES)


def host_predict_fn(images: np.ndarray) -> np.ndarray:
    return (images.reshape(len(images), NUM_CLASSES).argmax(axis=1) + 1) % NUM_CLASSES


#: Shared pool of distinct images; hypothesis picks interleavings of refs.
IMAGE_POOL = np.random.default_rng(1234).normal(size=(8, NUM_CLASSES, 1, 1))


def make_server(**kwargs) -> CascadeServer:
    kwargs.setdefault("host_queue_capacity", 256)
    return CascadeServer(bnn_scores_fn, make_dmu(), host_predict_fn, **kwargs)


def answer_tuple(r: ServeResult) -> tuple:
    return (int(r.prediction), int(r.bnn_prediction), float(r.confidence))


def books_balanced(snap) -> bool:
    return (
        snap.accepted + snap.rerun + snap.degraded + snap.cache_hits + snap.failed
        == snap.submitted
    )


class ManualBackend:
    """A fake cascade whose futures resolve only when the test says so."""

    def __init__(self):
        self.metrics = ServerMetrics()
        self.pending: list[tuple[np.ndarray, Future]] = []
        self.submits = 0

    def submit(self, image: np.ndarray) -> Future:
        self.metrics.add(submitted=1)
        self.submits += 1
        future: Future = Future()
        self.pending.append((np.asarray(image), future))
        return future

    def resolve(self, index: int = 0, source: str = "host") -> None:
        image, future = self.pending.pop(index)
        prediction = int(image.flat[0])
        if source == "bnn":
            self.metrics.add(accepted=1)
        else:
            self.metrics.add(source, rerun=1, rerun_stages=1)
        self.metrics.latencies.append(0.0)
        future.set_result(ServeResult(
            prediction=prediction, bnn_prediction=prediction, confidence=0.5,
            source=source, latency_seconds=0.0,
        ))

    def fail(self, index: int = 0) -> None:
        _, future = self.pending.pop(index)
        self.metrics.add(failed=1)
        future.set_exception(RuntimeError("backend exploded"))

    def close(self, *args, **kwargs) -> None:
        pass


def manual_frontend(**cache_kwargs):
    backend = ManualBackend()
    cache = ResultCache(max_bytes=1 << 20, **cache_kwargs)
    return backend, CachingFrontend(backend, cache)


class TestSingleFlight:
    def test_concurrent_duplicates_cost_one_cascade_pass(self):
        backend, front = manual_frontend()
        img = np.full((4,), 3.0)
        futures = [front.submit(img) for _ in range(5)]
        assert backend.submits == 1
        backend.resolve()
        answers = [f.result(timeout=5.0) for f in futures]
        assert len({answer_tuple(r) for r in answers}) == 1
        assert answers[0].source == "host"          # the leader's real pass
        assert {r.source for r in answers[1:]} == {"cache"}
        assert {r.cold_source for r in answers[1:]} == {"host"}
        sf = front.single_flight_snapshot()
        assert (sf.leaders, sf.followers, sf.in_flight) == (1, 4, 0)
        assert books_balanced(front.snapshot())

    def test_next_submit_after_resolution_is_a_cache_hit(self):
        backend, front = manual_frontend()
        img = np.full((4,), 2.0)
        leader = front.submit(img)
        backend.resolve()
        leader.result(timeout=5.0)
        hit = front.submit(img).result(timeout=5.0)
        assert backend.submits == 1
        assert hit.source == "cache" and hit.cold_source == "host"
        snap = front.cache_snapshot()
        assert snap.hits == 1 and snap.balanced

    def test_distinct_images_fly_separately(self):
        backend, front = manual_frontend()
        front.submit(np.full((4,), 1.0))
        front.submit(np.full((4,), 2.0))
        assert backend.submits == 2
        assert front.single_flight_snapshot().in_flight == 2
        backend.resolve()
        backend.resolve()

    def test_failed_leader_fails_followers_and_caches_nothing(self):
        backend, front = manual_frontend()
        img = np.full((4,), 5.0)
        futures = [front.submit(img) for _ in range(3)]
        backend.fail()
        for f in futures:
            with pytest.raises(RuntimeError, match="exploded"):
                f.result(timeout=5.0)
        assert front.cache.entries == 0
        assert front.single_flight_snapshot().in_flight == 0
        # The flight is gone: the next submit is a fresh leader.
        retry = front.submit(img)
        assert backend.submits == 2
        backend.resolve()
        assert retry.result(timeout=5.0).source == "host"
        assert books_balanced(front.snapshot())

    def test_futures_resolve_exactly_once(self):
        backend, front = manual_frontend()
        img = np.full((4,), 4.0)
        counts: dict[int, int] = {}
        lock = threading.Lock()

        def tick(fut):
            with lock:
                counts[id(fut)] = counts.get(id(fut), 0) + 1

        futures = [front.submit(img) for _ in range(4)]
        for f in futures:
            f.add_done_callback(tick)
        backend.resolve()
        # A later duplicate hits the cache with a brand-new future — the
        # old ones must not be touched again.
        front.submit(img).result(timeout=5.0)
        assert sorted(counts.values()) == [1, 1, 1, 1]

    def test_hides_the_backends_try_submit(self):
        """The backend's try_submit would skip the cache, so the frontend
        must not hand it out: callers that probe for it use submit()."""
        server = make_server(host_workers=0)
        assert callable(server.try_submit)
        front = CachingFrontend(server, ResultCache(max_bytes=1 << 20))
        with front:
            assert getattr(front, "try_submit", None) is None
            with pytest.raises(AttributeError):
                front.try_submit

    def test_wire_requests_go_through_the_cache(self):
        """Regression: NetFrontend found the backend's try_submit through
        CachingFrontend's attribute delegation, and skipped the cache."""
        from repro.net.client import NetClient
        from repro.net.frontend import NetFrontend

        server = make_server(host_workers=0)
        front = CachingFrontend(server, ResultCache(max_bytes=1 << 20))
        with front, NetFrontend(front) as net:
            with NetClient(*net.address) as client:
                for _ in range(5):
                    client.classify(IMAGE_POOL[0], timeout=10.0)
        cache = front.cache_snapshot()
        assert cache.lookups == 5 and cache.hits >= 1
        assert server.snapshot().check() == []

    def test_wire_requests_into_a_full_rung_0_are_looked_up_once(self):
        """Under backpressure each wire request still costs one lookup."""
        from repro.net.client import NetClient
        from repro.net.frontend import NetFrontend

        gate = threading.Event()

        def gated_bnn(images: np.ndarray) -> np.ndarray:
            gate.wait(10.0)
            return bnn_scores_fn(images)

        # max_batch_size=1: rung 0 holds one image in its worker and six
        # in its inbox, so of 14 distinct misses some must wait.
        server = CascadeServer(
            gated_bnn, make_dmu(), host_predict_fn,
            max_batch_size=1, host_queue_capacity=256, host_workers=0,
        )
        images = np.random.default_rng(7).normal(size=(14, NUM_CLASSES, 1, 1))
        front = CachingFrontend(server, ResultCache(max_bytes=1 << 20))
        with front, NetFrontend(front) as net:
            with NetClient(*net.address) as client:
                futures = [client.submit(img) for img in images]
                futures += [client.submit(images[0]) for _ in range(3)]
                deadline = time.monotonic() + 10.0
                # The server books submitted before the put, so an 8th
                # submit means one is blocked on a full inbox.
                while server.snapshot().submitted < 8:
                    assert time.monotonic() < deadline, "rung 0 never filled"
                    time.sleep(0.005)
                gate.set()
                for future in futures:
                    future.result(timeout=10.0)
        cache = front.cache_snapshot()
        assert cache.lookups == len(futures)
        assert cache.hits + cache.misses == cache.lookups
        assert front.snapshot().submitted == len(futures)
        assert books_balanced(front.snapshot())
        assert server.snapshot().check() == []

    def test_delegates_backend_attributes(self):
        backend, front = manual_frontend()
        assert front.submits == 0  # ManualBackend attribute through __getattr__
        with pytest.raises(AttributeError):
            front.no_such_attribute


@st.composite
def interleavings(draw):
    """A sequence of image refs with guaranteed duplicate pressure."""
    refs = draw(st.lists(st.integers(0, len(IMAGE_POOL) - 1),
                         min_size=2, max_size=30))
    return refs + [refs[0]]  # at least one duplicate


class TestBitIdentityProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(refs=interleavings())
    def test_cached_answers_match_cold_server(self, refs):
        cold = {}
        with make_server() as server:
            for ref in sorted(set(refs)):
                cold[ref] = answer_tuple(
                    server.submit(IMAGE_POOL[ref]).result(timeout=10.0)
                )
        cache = ResultCache(max_bytes=1 << 20)
        with CachingFrontend(make_server(), cache) as front:
            futures = [(ref, front.submit(IMAGE_POOL[ref])) for ref in refs]
            results = [(ref, f.result(timeout=10.0)) for ref, f in futures]
            snap = front.snapshot()
            sf = front.single_flight_snapshot()
        for ref, result in results:
            assert answer_tuple(result) == cold[ref]
        assert books_balanced(snap)
        assert snap.submitted == len(refs)
        assert front.cache_snapshot().balanced
        assert sf.in_flight == 0
        # Everything beyond one cold pass per unique image was deduped.
        assert snap.cache_hits == len(refs) - len(set(refs))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(refs=interleavings(), fault_seed=st.integers(0, 1000))
    def test_books_balance_under_seeded_faults(self, refs, fault_seed):
        plan = FaultPlan(seed=fault_seed, specs=(
            FaultSpec(stage="host", kind="exception", probability=0.4,
                      max_faults=4),
            FaultSpec(stage="bnn", kind="corrupt", probability=0.2),
        ))
        bnn, dmu, host, _ = wrap_stack(
            plan, bnn_scores_fn, make_dmu(), host_predict_fn
        )
        cache = ResultCache(max_bytes=1 << 20)
        server = CascadeServer(
            bnn, dmu, host, host_queue_capacity=256,
        )
        with CachingFrontend(server, cache) as front:
            futures = [front.submit(IMAGE_POOL[ref]) for ref in refs]
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(timeout=10.0))
                except Exception as exc:
                    outcomes.append(exc)
            snap = front.snapshot()
            sf = front.single_flight_snapshot()
        assert len(outcomes) == len(refs)
        assert books_balanced(snap)
        assert snap.submitted == len(refs)
        assert front.cache_snapshot().balanced
        assert sf.in_flight == 0
        # Whatever the faults did, a served answer is never wrong *and*
        # cached: every cache-sourced result equals some cold terminal
        # answer that round actually produced for the same image.
        served = [r for r in outcomes if isinstance(r, ServeResult)]
        by_ref: dict[int, set] = {}
        for ref, outcome in zip(refs, outcomes):
            if isinstance(outcome, ServeResult) and outcome.source != "cache":
                by_ref.setdefault(ref, set()).add(answer_tuple(outcome))
        for ref, outcome in zip(refs, outcomes):
            if isinstance(outcome, ServeResult) and outcome.source == "cache":
                assert answer_tuple(outcome) in by_ref[ref]
        assert all(r.latency_seconds >= 0 for r in served)
