"""Shard router tests: placement, breakers, failover, books.

Most tests use :class:`~repro.net.router.InProcessReplica` around the
controllable fake backend so placement and failure handling are
deterministic and fast; the lifecycle tests exercise real
:class:`~repro.net.router.ProcessReplica` children (spawn → submit → ping →
kill → typed in-flight failure, and a bounded close of replicas whose
host hangs), and the replica-cache tests show that a cached replica
answers repeats on the router's side of its pipe, after one payload
lookup, and that a resolved future is booked before ``submit`` returns.
The invariant every test ends on::

    routed + rejected + failed == submitted
"""

import itertools
import os
import time
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.net.bench import make_oracle_images, oracle_replica_kwargs
from repro.net.router import (
    InProcessReplica,
    NoHealthyReplica,
    ProcessReplica,
    ReplicaFailure,
    ShardRouter,
)
import repro.cache.result_cache
import repro.net.router
from repro.cache import CachingFrontend, ResultCache
from repro.serve.oracle import OracleStage
from repro.serve.resilience import CircuitBreaker
from repro.util.hashing import PayloadMemo, content_key, rendezvous_order

from netharness import FakeBackend, make_result, wait_until


def make_router(n=3, placement="round_robin", modes=None, **kwargs):
    backends = [
        FakeBackend(mode=(modes[i] if modes else "resolve")) for i in range(n)
    ]
    replicas = [InProcessReplica(i, backend) for i, backend in enumerate(backends)]
    router = ShardRouter(replicas, placement=placement, **kwargs)
    return router, backends


def _images(n, start=0):
    return [np.full(4, float(start + i)) for i in range(n)]


class TestPlacement:
    def test_round_robin_spreads_evenly(self):
        router, backends = make_router(3)
        results = router.classify_many(_images(9), timeout=10.0)
        assert len(results) == 9
        assert [len(b.submitted) for b in backends] == [3, 3, 3]
        snap = router.snapshot()
        assert snap.routed == 9
        assert snap.replica_routed == {0: 3, 1: 3, 2: 3}
        assert snap.failovers == 0
        assert snap.balanced

    def test_rendezvous_is_sticky_per_image(self):
        router, backends = make_router(3, placement="rendezvous")
        image = np.full(4, 7.0)
        for _ in range(5):
            router.submit(image).result(timeout=10.0)
        counts = [len(b.submitted) for b in backends]
        # All five placements landed on the same replica.
        assert sorted(counts) == [0, 0, 5]

    def test_rendezvous_spreads_distinct_images(self):
        router, backends = make_router(3, placement="rendezvous")
        router.classify_many(_images(60), timeout=10.0)
        counts = [len(b.submitted) for b in backends]
        assert sum(counts) == 60
        # HRW over 60 distinct payloads should touch every replica.
        assert all(count > 0 for count in counts)

    def test_rendezvous_remaps_only_dead_replicas_share(self):
        router, backends = make_router(3, placement="rendezvous")
        images = _images(30)
        router.classify_many(images, timeout=10.0)
        before = [len(b.submitted) for b in backends]
        owner = max(range(3), key=lambda i: before[i])
        survivor_share = {
            i: before[i] for i in range(3) if i != owner
        }
        router.replicas[owner].kill()
        router.classify_many(images, timeout=10.0)
        after = [len(b.submitted) for b in backends]
        # Survivors kept their original images (plus the remapped ones);
        # an image owned by a survivor never moved.
        for i, share in survivor_share.items():
            assert after[i] >= 2 * share
        assert after[owner] == before[owner]  # dead replica got nothing new
        assert router.snapshot().balanced

    def test_invalid_placement(self):
        with pytest.raises(ValueError, match="placement"):
            make_router(2, placement="random")

    def test_needs_replicas(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ShardRouter([])


class TestFailover:
    def test_dead_replica_drains_to_survivors(self):
        router, backends = make_router(3)
        router.replicas[0].kill()
        results = router.classify_many(_images(6), timeout=10.0)
        assert len(results) == 6
        assert len(backends[0].submitted) == 0
        assert len(backends[1].submitted) + len(backends[2].submitted) == 6
        snap = router.snapshot()
        assert snap.routed == 6
        assert snap.failovers >= 1  # rotations that preferred replica 0
        assert snap.balanced

    def test_all_dead_raises_no_healthy_replica(self):
        router, _ = make_router(2)
        for replica in router.replicas:
            replica.kill()
        with pytest.raises(NoHealthyReplica):
            router.submit(np.zeros(4))
        snap = router.snapshot()
        assert (snap.submitted, snap.rejected) == (1, 1)
        assert snap.balanced

    def test_a_raise_then_a_placement_books_one_failover(self):
        router, backends = make_router(2, modes=[ReplicaFailure(0, "boom"), "resolve"])
        router.submit(np.zeros(4)).result(timeout=10.0)  # round-robin: 0 first
        snap = router.snapshot()
        assert (snap.routed, snap.failovers) == (1, 1)
        assert len(backends[1].submitted) == 1
        assert snap.balanced

    def test_a_dead_replica_then_a_placement_books_one_failover(self):
        router, _ = make_router(2)
        router.replicas[0].kill()
        router.submit(np.zeros(4)).result(timeout=10.0)
        snap = router.snapshot()
        assert (snap.routed, snap.failovers) == (1, 1)
        assert snap.balanced

    def test_a_request_every_replica_refuses_books_no_failover(self):
        boom = ReplicaFailure(0, "boom")
        router, _ = make_router(2, modes=[boom, boom])
        with pytest.raises(NoHealthyReplica):
            router.submit(np.zeros(4))
        snap = router.snapshot()
        assert (snap.submitted, snap.rejected, snap.failovers) == (1, 1, 0)
        assert snap.balanced

    def test_in_flight_failure_is_typed_not_replayed(self):
        router, backends = make_router(2, modes=["hold", "resolve"])
        fut = router.submit(np.zeros(4))  # round-robin: replica 0 first
        wait_until(lambda: len(backends[0].submitted) == 1)
        held = backends[0].held.pop()
        held.set_exception(ReplicaFailure(0, "replica killed"))
        with pytest.raises(ReplicaFailure):
            fut.result(timeout=10.0)
        snap = router.snapshot()
        assert (snap.submitted, snap.failed) == (1, 1)
        assert snap.replica_failed == {0: 1}
        # The request was NOT resubmitted to the healthy replica.
        assert len(backends[1].submitted) == 0
        assert snap.balanced

    def test_breaker_opens_after_repeated_failures(self):
        router, backends = make_router(
            2,
            modes=[ReplicaFailure(0, "boom"), "resolve"],
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=3, cooldown_s=60.0
            ),
        )
        for i in range(8):
            router.submit(np.full(4, float(i))).result(timeout=10.0)
        assert router.breaker_states()[0] == "open"
        assert router.breaker_states()[1] == "closed"
        # Once open, replica 0 is skipped without attempting dispatch.
        failovers_when_open = router.snapshot().failovers
        router.submit(np.zeros(4)).result(timeout=10.0)
        snap = router.snapshot()
        assert snap.routed == 9
        assert len(backends[1].submitted) == 9
        assert snap.balanced
        assert snap.failovers >= failovers_when_open

    def test_closed_router_rejects(self):
        router, _ = make_router(1)
        router.close()
        with pytest.raises(NoHealthyReplica):
            router.submit(np.zeros(4))

    def test_health_views(self):
        router, _ = make_router(2)
        assert router.alive() == [True, True]
        assert router.ping() == [True, True]
        router.replicas[1].kill()
        assert router.alive() == [True, False]
        assert router.ping() == [True, False]
        router.close()


class Recording(FakeBackend):
    """A resolving :class:`FakeBackend` that keeps every future it returns;
    with *error*, each one comes back already failed with it."""

    def __init__(self, error: BaseException | None = None):
        super().__init__()
        self.error = error
        self.futures: list[Future] = []

    def submit(self, image) -> Future:
        if self.error is None:
            future = super().submit(image)
        else:
            future = Future()
            future.set_exception(self.error)
        self.futures.append(future)
        return future


class ProbeLog(CircuitBreaker):
    """A breaker that records every answer of :meth:`allow`."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.allowed: list[bool] = []

    def allow(self) -> bool:
        allowed = super().allow()
        self.allowed.append(allowed)
        return allowed


class TestSettledFuture:
    """A replica future that is already resolved when ``submit`` returns it."""

    def test_a_hit_is_booked_before_its_result_is_read(self):
        backend = Recording()
        frontend = CachingFrontend(backend, ResultCache(max_bytes=1 << 20))
        router = ShardRouter([InProcessReplica(0, frontend)])
        image = np.full(4, 5.0)
        router.submit(image).result(timeout=10.0)  # the miss fills the cache
        hit = router.submit(image)
        snap = router.snapshot()
        assert (snap.submitted, snap.routed, snap.replica_routed) == (2, 2, {0: 2})
        assert snap.balanced and snap.in_flight == 0
        assert len(backend.futures) == 1  # the hit never reached the backend
        assert hit.done() and hit.result(timeout=0).source == "cache"

    def test_a_resolved_future_is_returned_as_is(self):
        backend = Recording()
        router = ShardRouter([InProcessReplica(0, backend)])
        assert router.submit(np.zeros(4)) is backend.futures[-1]

    def test_a_hit_through_a_half_open_breaker_uses_its_probe(self):
        now = [0.0]
        transitions: list[str] = []
        breaker = ProbeLog(
            failure_threshold=1, cooldown_s=1.0, clock=lambda: now[0],
            on_transition=transitions.append,
        )
        frontend = CachingFrontend(Recording(), ResultCache(max_bytes=1 << 20))
        router = ShardRouter([InProcessReplica(0, frontend)], breaker_factory=lambda: breaker)
        image = np.full(4, 2.0)
        router.submit(image).result(timeout=10.0)
        breaker.record_failure()
        now[0] = 1.0  # the cool-down is over
        assert router.breaker_states() == ["half_open"]
        breaker.allowed.clear()
        hit = router.submit(image)
        assert hit.done() and hit.result(timeout=0).source == "cache"
        assert breaker.allowed == [True]
        assert transitions == ["open", "half_open", "closed"]
        assert router.breaker_states() == ["closed"]
        assert router.snapshot().balanced

    def test_a_failed_future_books_a_failure(self):
        backend = Recording(error=RuntimeError("cascade broke"))
        router = ShardRouter(
            [InProcessReplica(0, backend)],
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1, cooldown_s=60.0),
        )
        future = router.submit(np.zeros(4))
        assert future is not backend.futures[-1]
        with pytest.raises(RuntimeError, match="cascade broke"):
            future.result(timeout=10.0)
        snap = router.snapshot()
        assert (snap.submitted, snap.routed, snap.failed) == (1, 0, 1)
        assert snap.replica_failed == {0: 1} and snap.replica_routed == {}
        assert router.breaker_states() == ["open"]
        assert snap.balanced


class TestProcessReplica:
    """One real child process end to end (the chaos suite does the rest)."""

    def test_lifecycle_submit_ping_kill(self):
        replica = ProcessReplica(0, partial(oracle_replica_kwargs, threshold=0.7))
        try:
            assert replica.alive()
            assert replica.ping(timeout=10.0)
            image = make_oracle_images(1, seed=3, signal=4.0)[0]
            result = replica.submit(image).result(timeout=30.0)
            assert result.prediction == int(image[-1])
            assert result.source in ("bnn", "host")
            # Kill with a request in flight: typed failure, no hang.
            fut = replica.submit(image)
            replica.kill()
            with pytest.raises(ReplicaFailure):
                fut.result(timeout=30.0)
            assert not replica.alive()
            assert not replica.ping(timeout=1.0)
            with pytest.raises(ReplicaFailure):
                replica.submit(image)
        finally:
            replica.close(timeout=5.0)

    def test_close_timeout_bounds_the_whole_close(self, tmp_path):
        # Each replica's host blocks on a FIFO no writer opens, so neither
        # replica's server can drain: close(0.5) must share its 0.5 s
        # between them and kill both, not wait 10 s per replica.
        flags, fifo = tmp_path / "flags", tmp_path / "fifo"
        flags.mkdir()
        os.mkfifo(fifo)
        router = ShardRouter.spawn(partial(_fifo_host_factory, str(flags), str(fifo)), 2)
        try:
            image = make_oracle_images(1, seed=3, signal=0.0)[0]
            futures = [router.submit(image) for _ in range(2)]  # round-robin: one each
            deadline = time.monotonic() + 60.0
            while len(list(flags.iterdir())) < 2:  # both hosts are inside the call
                assert time.monotonic() < deadline, "the hosts never entered the call"
                time.sleep(0.01)
            start = time.monotonic()
            router.close(0.5)
            assert time.monotonic() - start < 0.9
            for future in futures:
                with pytest.raises(ReplicaFailure):
                    future.result(timeout=10.0)
            assert router.alive() == [False, False]
        finally:
            router.close(0.5)
            # With a host pool the blocked host runs in a pool worker that
            # outlives its killed replica: open the FIFO's write end once
            # so that worker reads EOF and exits instead of lingering.
            os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))

    def test_factory_error_is_reported(self):
        with pytest.raises(RuntimeError, match="failed to start"):
            ProcessReplica(0, _broken_factory)

    def test_routed_cache_hit_keeps_cold_source(self):
        replica = ProcessReplica(0, _cached_factory)
        try:
            image = make_oracle_images(1, seed=5, signal=4.0)[0]
            cold = replica.submit(image).result(timeout=30.0)
            assert cold.source in ("bnn", "host") and cold.cold_source is None
            hit = replica.submit(image).result(timeout=30.0)
            assert hit.source == "cache"
            assert hit.cold_source == cold.source
            assert hit.prediction == cold.prediction
        finally:
            replica.close(timeout=5.0)


class TestReplicaCache:
    """A cached replica answers repeats in the router's process.

    The child's BNN touches one file per call in a flags dir and, once
    the ``wedge`` flag exists, blocks opening a FIFO, so a repeat that
    reached the child's cascade could not answer.  A spy on the handle's
    ``request`` records what crosses the pipe.
    """

    def test_a_repeat_answers_while_the_child_is_wedged(self, wedge, monkeypatch):
        flags, fifo = wedge
        replica = ProcessReplica(0, partial(_wedgeable_factory, str(flags), str(fifo)))
        try:
            sent = _record_crossings(monkeypatch, replica)
            image = make_oracle_images(1, seed=5, signal=4.0)[0]
            cold = replica.submit(image).result(timeout=30.0)
            (flags / "wedge").touch()
            hit = replica.submit(image).result(timeout=10.0)
            assert hit.source == "cache" and hit.cold_source == cold.source
            assert hit.prediction == cold.prediction
            assert _calls(flags, replica.pid) == 1
            assert sent == ["submit"]  # only the cold request crossed
        finally:
            _unwedge(flags, fifo)
            replica.close(timeout=5.0)

    def test_one_uncached_image_crosses_the_pipe_once(self, wedge, monkeypatch):
        flags, fifo = wedge
        replica = ProcessReplica(0, partial(_wedgeable_factory, str(flags), str(fifo)))
        try:
            sent = _record_crossings(monkeypatch, replica)
            (flags / "wedge").touch()
            image = make_oracle_images(1, seed=6, signal=4.0)[0]
            leader = replica.submit(image)
            wait_until(lambda: _calls(flags, replica.pid) == 1, timeout=30.0)
            follower = replica.submit(image)  # the leader is inside the BNN
            assert sent == ["submit"]
            assert not leader.done() and not follower.done()
            _release(flags, fifo)
            led, followed = leader.result(timeout=30.0), follower.result(timeout=30.0)
            assert led.source in ("bnn", "host") and followed.source == "cache"
            assert followed.cold_source == led.source
            assert followed.prediction == led.prediction
            flights = replica.cache_frontend.single_flight_snapshot()
            assert (flights.leaders, flights.followers, flights.in_flight) == (1, 1, 0)
            assert _calls(flags, replica.pid) == 1
        finally:
            _unwedge(flags, fifo)
            replica.close(timeout=5.0)

    @pytest.mark.parametrize("end", ["kill", "close"])
    def test_a_dead_replica_refuses_a_cached_key(self, end):
        replica = ProcessReplica(0, _cached_factory)
        try:
            image = make_oracle_images(1, seed=5, signal=4.0)[0]
            replica.submit(image).result(timeout=30.0)
            assert replica.submit(image).result(timeout=30.0).source == "cache"
            lookups = replica.cache_frontend.cache_snapshot().lookups
            getattr(replica, end)()
            with pytest.raises(ReplicaFailure):
                replica.submit(image)
            assert replica.cache_frontend.cache_snapshot().lookups == lookups
        finally:
            replica.close(timeout=5.0)

    def test_router_books_each_hit_on_its_placed_replica(self, wedge, monkeypatch):
        flags, fifo = wedge
        router = ShardRouter.spawn(
            partial(_wedgeable_factory, str(flags), str(fifo)), 2, placement="rendezvous"
        )
        try:
            sent = [_record_crossings(monkeypatch, r) for r in router.replicas]
            images = make_oracle_images(8, seed=7, signal=4.0)
            owners = [rendezvous_order(image, 2)[0] for image in images]
            assert set(owners) == {0, 1}  # the test needs both replicas to own images
            colds = router.classify_many(images, timeout=30.0)
            (flags / "wedge").touch()
            for image, owner, cold in zip(images, owners, colds):
                before = router.snapshot().replica_routed[owner]
                hit = router.submit(image)
                # Answered and booked inside submit, in the router's process.
                assert hit.done()
                assert router.snapshot().replica_routed[owner] == before + 1
                result = hit.result(timeout=0)
                assert result.source == "cache" and result.cold_source == cold.source
            snap = router.snapshot()
            assert snap.balanced and snap.in_flight == 0
            assert (snap.submitted, snap.routed, snap.failovers) == (16, 16, 0)
            owned = [owners.count(index) for index in (0, 1)]
            assert snap.replica_routed == {0: 2 * owned[0], 1: 2 * owned[1]}
            assert [len(s) for s in sent] == owned
            assert [_calls(flags, r.pid) for r in router.replicas] == owned
        finally:
            _unwedge(flags, fifo)
            router.close(5.0)


    def test_one_payload_lookup_per_routed_request(self, monkeypatch):
        router = ShardRouter.spawn(_cached_factory, 2, placement="rendezvous")
        try:
            sent = [_record_crossings(monkeypatch, r) for r in router.replicas]
            lookups, placed, keyed = _count(monkeypatch, PayloadMemo, "lookup"), [], []
            order, key = repro.net.router.rendezvous_order, content_key
            monkeypatch.setattr(
                repro.net.router, "rendezvous_order",
                lambda *args: placed.append(1) or order(*args),
            )
            for module in (repro.net.router, repro.cache.result_cache):
                monkeypatch.setattr(module, "content_key", lambda *args: keyed.append(1) or key(*args))
            images = make_oracle_images(6, seed=8, signal=4.0)
            for image in images:
                cold = router.submit(image).result(timeout=30.0)
                for _ in range(2):
                    hit = router.submit(image)
                    assert hit.done()  # answered in the router's process
                    result = hit.result(timeout=0)
                    assert result.source == "cache" and result.cold_source == cold.source
            assert len(lookups) == 3 * len(images)
            assert (len(placed), len(keyed)) == (len(images), len(images))
            assert sum(len(s) for s in sent) == len(images)  # only the misses crossed
            assert all(kind == "submit" for s in sent for kind in s)
            snap = router.snapshot()
            assert (snap.submitted, snap.routed) == (18, 18) and snap.balanced
        finally:
            router.close(5.0)


@pytest.fixture
def wedge(tmp_path):
    """The flags dir and FIFO of :func:`flagged_bnn`."""
    flags, fifo = tmp_path / "flags", tmp_path / "fifo"
    flags.mkdir()
    os.mkfifo(fifo)
    return flags, fifo


_BNN_CALLS = itertools.count()


def flagged_bnn(flags: str, fifo: str, images: np.ndarray) -> np.ndarray:
    """Oracle BNN scores that touch one file per call in *flags*; while
    *flags*/wedge exists, a call first blocks opening the FIFO *fifo*."""
    Path(flags, f"call-{os.getpid()}-{next(_BNN_CALLS)}").touch()
    if Path(flags, "wedge").exists():
        with open(fifo, "rb") as pipe:
            pipe.read()
    return OracleStage(answer="scores")(images)


def _wedgeable_factory(flags: str, fifo: str) -> dict:
    return dict(
        _cached_factory(),
        bnn_scores_fn=partial(flagged_bnn, flags, fifo),
        max_batch_size=1,
    )


def _calls(flags: Path, pid: int) -> int:
    """BNN calls replica process *pid* has made."""
    return len(list(flags.glob(f"call-{pid}-*")))


def _count(monkeypatch, owner, name: str) -> list:
    """One entry per call of *owner*.*name* from now on."""
    calls, method = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _record_crossings(monkeypatch, replica) -> list:
    """The kind of every request *replica* sends down its pipe, from now on."""
    sent = []
    request = replica.request

    def spy(kind, *fields, **kwargs):
        sent.append(kind)
        return request(kind, *fields, **kwargs)

    monkeypatch.setattr(replica, "request", spy)
    return sent


def _release(flags: Path, fifo: Path) -> None:
    """Unwedge, then let the one call blocked opening *fifo* return: open
    the write end once that call holds the read end, and close it (EOF)."""
    (flags / "wedge").unlink()
    fds = []

    def opened() -> bool:
        try:
            fds.append(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # ENXIO: no reader yet
            return False
        return True

    wait_until(opened, timeout=30.0)
    os.close(fds[0])


def _unwedge(flags: Path, fifo: Path) -> None:
    """Teardown: no call blocks from now on, and one blocked now returns."""
    (flags / "wedge").unlink(missing_ok=True)
    os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))


def _broken_factory():
    raise RuntimeError("no cascade for you")


def fifo_host(flags: str, fifo: str, images: np.ndarray) -> np.ndarray:
    """Host callable that touches a file in *flags*, then blocks opening
    the FIFO *fifo* for reading, which no writer ever opens."""
    Path(flags, str(os.getpid())).touch()
    with open(fifo, "rb") as pipe:
        pipe.read()
    return np.zeros(len(images), dtype=np.int64)


def _fifo_host_factory(flags: str, fifo: str) -> dict:
    # Threshold 1.0: no oracle margin reaches it, so every image reruns.
    return dict(
        oracle_replica_kwargs(threshold=1.0),
        host_predict_fn=partial(fifo_host, flags, fifo),
    )


def _cached_factory():
    return dict(oracle_replica_kwargs(threshold=0.7), cache_max_bytes=1 << 20)
