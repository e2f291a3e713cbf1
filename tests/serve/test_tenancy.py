"""Multi-tenant serving: DRR pool scheduling, quotas, per-tenant books."""

import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import DecisionMakingUnit
from repro.serve import (
    CascadeServer,
    MultiTenantServer,
    ServerClosed,
    SharedHostPool,
    TenantQuotaExceeded,
    TenantSpec,
    UnknownTenant,
)
from repro.serve.tenancy import POOL_LAW, _Work

NUM_CLASSES = 10


def make_dmu(threshold: float = 0.7) -> DecisionMakingUnit:
    weights = np.zeros(NUM_CLASSES)
    weights[0], weights[1] = 4.0, -4.0
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def make_images(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, NUM_CLASSES, 1, 1))


def scores_fn(images: np.ndarray) -> np.ndarray:
    return images.reshape(len(images), NUM_CLASSES)


def neg_scores_fn(images: np.ndarray) -> np.ndarray:
    return -images.reshape(len(images), NUM_CLASSES)


def host_fn(images: np.ndarray) -> np.ndarray:
    return (images.reshape(len(images), NUM_CLASSES).argmax(axis=1) + 1) % NUM_CLASSES


def shifted_host_fn(images: np.ndarray) -> np.ndarray:
    return (images.reshape(len(images), NUM_CLASSES).argmax(axis=1) + 5) % NUM_CLASSES


def spec(name: str, **kwargs) -> TenantSpec:
    kwargs.setdefault("bnn_scores_fn", scores_fn)
    kwargs.setdefault("dmu", make_dmu())
    kwargs.setdefault("host_predict_fn", host_fn)
    kwargs.setdefault(
        "server_kwargs", {"host_queue_capacity": 256}
    )
    return TenantSpec(name=name, **kwargs)


# -- the DRR decision rule, without dispatcher threads ------------------------

def scheduler_only(**kwargs) -> SharedHostPool:
    """A pool whose lanes exit immediately: _next_work is ours to drive."""
    with mock.patch.object(SharedHostPool, "_lane_loop", lambda self: None):
        return SharedHostPool(**kwargs)


def enqueue(pool: SharedHostPool, name: str, cost_s: float) -> None:
    with pool._lock:
        pool._tenants[name].queue.append(_Work(np.zeros((1, 4)), cost_s=cost_s))


def drain(pool: SharedHostPool, n: int) -> list[str]:
    picks = []
    with pool._lock:
        for _ in range(n):
            picked = pool._next_work()
            if picked is None:
                break
            picks.append(picked[0].name)
    return picks


class TestDeficitRoundRobin:
    def test_weights_set_the_service_ratio(self):
        # Equal per-item cost, weight 2:1 -> tenant a is served twice as
        # often; the exact cycle is a, a, c.
        pool = scheduler_only(lanes=1, quantum_s=0.5)
        pool.register("a", host_fn, weight=2.0)
        pool.register("c", host_fn, weight=1.0)
        for _ in range(6):
            enqueue(pool, "a", 1.0)
            enqueue(pool, "c", 1.0)
        assert drain(pool, 9) == ["a", "a", "c"] * 3

    def test_cost_equalises_host_seconds_not_item_counts(self):
        # Equal weights but tenant a's items cost 4x: a is served once
        # per four c items, so host-seconds still divide evenly.
        pool = scheduler_only(lanes=1, quantum_s=1.0)
        pool.register("a", host_fn, weight=1.0)
        pool.register("c", host_fn, weight=1.0)
        for _ in range(3):
            enqueue(pool, "a", 4.0)
        for _ in range(12):
            enqueue(pool, "c", 1.0)
        picks = drain(pool, 5)
        assert picks == ["c", "c", "c", "c", "a"]

    def test_idle_tenant_banks_no_credit(self):
        pool = scheduler_only(lanes=1, quantum_s=1.0)
        pool.register("a", host_fn)
        pool.register("c", host_fn)
        with pool._lock:
            pool._tenants["a"].deficit = 50.0  # stale credit, empty queue
        enqueue(pool, "c", 1.0)
        assert drain(pool, 1) == ["c"]
        assert pool.stats()["a"].deficit == 0.0

    def test_blocked_tenant_deficit_is_capped(self):
        # A tenant stuck behind one huge item can accrue at most its
        # head cost plus one weighted quantum, however long it waits.
        pool = scheduler_only(lanes=1, quantum_s=1.0)
        pool.register("a", host_fn, weight=1.0)
        pool.register("c", host_fn, weight=1.0)
        enqueue(pool, "a", 100.0)
        for _ in range(30):
            enqueue(pool, "c", 1.0)
        drain(pool, 30)
        assert pool.stats()["a"].deficit <= 100.0 + pool.quantum_s

    def test_empty_pool_returns_none(self):
        pool = scheduler_only(lanes=1)
        pool.register("a", host_fn)
        assert drain(pool, 1) == []


class TestSharedHostPool:
    def test_handle_executes_and_accounts(self):
        with SharedHostPool(lanes=1) as pool:
            handle = pool.register("a", host_fn, cost_s_per_image=0.5)
            images = make_images(4)
            labels = handle(images)
            np.testing.assert_array_equal(labels, host_fn(images))
            stats = pool.stats()["a"]
            assert stats.scheduled == 1
            assert stats.images_executed == 4
            assert stats.busy_seconds >= 0.0
            # The EWMA pulled the seeded 0.5 s/img toward the measured
            # sub-millisecond truth.
            assert stats.cost_s_per_image < 0.5

    def test_tenant_exception_is_contained(self):
        def broken(images):
            raise ValueError("model a is broken")

        with SharedHostPool(lanes=1) as pool:
            bad = pool.register("a", broken)
            good = pool.register("c", host_fn)
            with pytest.raises(ValueError, match="model a is broken"):
                bad(make_images(2))
            np.testing.assert_array_equal(
                good(make_images(2, seed=1)), host_fn(make_images(2, seed=1))
            )

    def test_duplicate_registration_rejected(self):
        with SharedHostPool(lanes=1) as pool:
            pool.register("a", host_fn)
            with pytest.raises(ValueError, match="already registered"):
                pool.register("a", host_fn)

    def test_close_strands_queued_work_and_rejects_new(self):
        pool = scheduler_only(lanes=1)
        pool.register("a", host_fn)
        enqueue(pool, "a", 1.0)
        stranded = pool._tenants["a"].queue[0]
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            stranded.future.result(timeout=1.0)
        with pytest.raises(RuntimeError, match="closed"):
            pool.register("b", host_fn)

    def test_close_timeout_bounds_the_whole_call(self):
        # Three hung lanes share one deadline: one lane-join each would
        # take 3 x 0.5 s.  The two items queued behind them are stranded.
        gate, entered = threading.Event(), threading.Semaphore(0)

        def hung(images):
            entered.release()
            gate.wait(timeout=10.0)
            return host_fn(images)

        pool = SharedHostPool(lanes=3)
        handle = pool.register("a", hung)
        callers = [
            threading.Thread(target=handle, args=(make_images(1, seed=i),), daemon=True)
            for i in range(3)
        ]
        for caller in callers:
            caller.start()
        for _ in range(3):
            assert entered.acquire(timeout=10.0)
        queued = [_Work(make_images(1), cost_s=1e-3) for _ in range(2)]
        with pool._lock:
            pool._tenants["a"].queue.extend(queued)
        pool.ledger.add("a", enqueued=len(queued))
        try:
            start = time.monotonic()
            pool.close(timeout=0.5)
            assert time.monotonic() - start < 0.9
            for work in queued:
                with pytest.raises(RuntimeError, match="closed"):
                    work.future.result(timeout=0)
        finally:
            gate.set()
        for thread in callers + pool._lanes:
            thread.join(timeout=10.0)
        counters = pool.ledger.read().counters
        assert counters["scheduled"]["a"] == 3 and counters["stranded"]["a"] == 2
        assert POOL_LAW not in pool.ledger.check()

    def test_rejects_bad_config(self):
        for kwargs in (
            {"lanes": 0},
            {"quantum_s": 0.0},
            {"max_pending": 0},
            {"ewma_alpha": 0.0},
        ):
            with pytest.raises(ValueError):
                SharedHostPool(**kwargs)


class TestTenantSpecValidation:
    def test_rejects_bad_specs(self):
        for kwargs in (
            {"name": ""},
            {"weight": 0.0},
            {"quota": 0},
            {"cost_s_per_image": 0.0},
        ):
            with pytest.raises(ValueError):
                spec(kwargs.pop("name", "a"), **kwargs)

    def test_server_rejects_bad_rosters(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiTenantServer([])
        with pytest.raises(ValueError, match="unique"):
            MultiTenantServer([spec("a"), spec("a")])


class TestMultiTenantServer:
    def make_server(self, **kwargs) -> MultiTenantServer:
        kwargs.setdefault(
            "tenants",
            [
                spec("model-a"),
                spec(
                    "model-c",
                    bnn_scores_fn=neg_scores_fn,
                    host_predict_fn=shifted_host_fn,
                ),
            ],
        )
        kwargs.setdefault("lanes", 2)
        kwargs.setdefault("cache_max_bytes", 1 << 20)
        return MultiTenantServer(**kwargs)

    def test_unknown_tenant_is_rejected_unbooked(self):
        with self.make_server() as server:
            with pytest.raises(UnknownTenant):
                server.submit(make_images(1)[0], tenant="nope")
            assert server.snapshot().submitted == 0

    def test_default_tenant_is_the_first_registered(self):
        with self.make_server() as server:
            img = make_images(1, seed=3)[0]
            default = server.submit(img).result(timeout=10.0)
            named = server.submit(img, tenant="model-a").result(timeout=10.0)
            assert (default.prediction, default.bnn_prediction) == (
                named.prediction, named.bnn_prediction
            )
            assert server.tenant_snapshot("model-a").metrics.submitted == 2
            assert server.tenant_snapshot("model-c").metrics.submitted == 0

    def test_namespacing_keeps_tenant_answers_apart(self):
        # Same pixels, two models: the shared cache must never leak
        # model-a's answer to model-c.
        with self.make_server() as server:
            img = make_images(1, seed=4)[0]
            a1 = server.submit(img, tenant="model-a").result(timeout=10.0)
            c1 = server.submit(img, tenant="model-c").result(timeout=10.0)
            assert (a1.prediction, a1.bnn_prediction) != (
                c1.prediction, c1.bnn_prediction
            )
            # Repeats are cache-served and bit-identical per tenant.
            a2 = server.submit(img, tenant="model-a").result(timeout=10.0)
            c2 = server.submit(img, tenant="model-c").result(timeout=10.0)
            assert a2.source == "cache" and c2.source == "cache"
            assert (a2.prediction, a2.bnn_prediction, a2.confidence) == (
                a1.prediction, a1.bnn_prediction, a1.confidence
            )
            assert (c2.prediction, c2.bnn_prediction, c2.confidence) == (
                c1.prediction, c1.bnn_prediction, c1.confidence
            )

    def test_quota_rejection_books_nothing(self):
        gate = threading.Event()

        def gated_scores(images):
            gate.wait(timeout=10.0)
            return scores_fn(images)

        roster = [spec("model-a", bnn_scores_fn=gated_scores, quota=2)]
        with MultiTenantServer(roster, cache_max_bytes=0) as server:
            imgs = make_images(3, seed=5)
            futures = [server.submit(imgs[0]), server.submit(imgs[1])]
            with pytest.raises(TenantQuotaExceeded):
                server.submit(imgs[2])
            snap = server.tenant_snapshot("model-a")
            assert snap.rejected == 1
            assert snap.in_flight == 2
            assert snap.metrics.submitted == 2  # the rejection left no trace
            gate.set()
            for f in futures:
                f.result(timeout=10.0)
            snap = server.tenant_snapshot("model-a")
            assert snap.in_flight == 0
            assert snap.balanced
            # Freed quota admits again.
            server.submit(imgs[2]).result(timeout=10.0)

    def test_books_balance_across_tenants_under_load(self):
        with self.make_server() as server:
            imgs = make_images(12, seed=6)
            futures = []
            for i, img in enumerate(imgs):
                tenant = "model-a" if i % 2 == 0 else "model-c"
                futures.append(server.submit(img, tenant=tenant))
                if i % 3 == 0:  # duplicate pressure on both tenants
                    futures.append(server.submit(img, tenant=tenant))
            for f in futures:
                f.result(timeout=10.0)
            snap = server.snapshot()
        assert snap.balanced
        assert snap.submitted == len(futures)
        assert snap.cache is not None and snap.cache.balanced
        hits = sum(t.metrics.cache_hits for t in snap.tenants.values())
        assert hits == len(futures) - 12
        for name in ("model-a", "model-c"):
            assert snap.tenants[name].pool.images_executed >= 0

    def test_classify_many_routes_one_tenant(self):
        with self.make_server() as server:
            results = server.classify_many(
                make_images(4, seed=7), tenant="model-c", timeout=10.0
            )
            assert len(results) == 4
            assert server.tenant_snapshot("model-c").metrics.submitted == 4

    def test_cache_disabled_serves_cold_every_time(self):
        roster = [spec("model-a")]
        with MultiTenantServer(roster, cache_max_bytes=0) as server:
            assert server.cache is None
            img = make_images(1, seed=8)[0]
            first = server.submit(img).result(timeout=10.0)
            second = server.submit(img).result(timeout=10.0)
            assert second.source != "cache"
            assert (second.prediction, second.bnn_prediction) == (
                first.prediction, first.bnn_prediction
            )
            snap = server.snapshot()
            assert snap.cache is None
            assert snap.balanced

    def test_tenant_servers_share_one_pool(self):
        with self.make_server() as server:
            for t in server._tenants.values():
                assert isinstance(t.server, CascadeServer)
            assert set(server.pool.stats()) == {"model-a", "model-c"}
            assert server.tenant_names == ("model-a", "model-c")

    def test_close_timeout_bounds_the_whole_call(self):
        # A hung host stalls both the tenant's cascade and a pool lane;
        # closing them one full timeout after the other would take 1 s.
        gate, entered = threading.Event(), threading.Event()

        def hung_host(images):
            entered.set()
            gate.wait(timeout=10.0)
            return host_fn(images)

        roster = [spec("model-a", host_predict_fn=hung_host, dmu=make_dmu(1.0))]
        server = MultiTenantServer(roster, cache_max_bytes=0)
        future = server.submit(make_images(1, seed=9)[0])
        try:
            assert entered.wait(timeout=10.0)
            start = time.monotonic()
            server.close(timeout=0.5)
            assert time.monotonic() - start < 0.9
            with pytest.raises(ServerClosed):
                future.result(timeout=0)
        finally:
            gate.set()
