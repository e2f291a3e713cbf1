"""Every declared law is load-bearing, and the tracer and the ledgers agree.

One short in-process scenario drives every layer that keeps books:
``NetClient`` → ``NetFrontend`` → ``ShardRouter`` over two
``InProcessReplica`` s, each a ``CachingFrontend`` over a
``CascadeServer`` on stub compute; then a ``MultiTenantServer`` and a
``SharedHostPool`` that strands a queued batch at close.  It produces
at least one accepted, rerun, degraded, failed, rejected, cached and
single-flight-follower request, each one at a time, so nothing depends
on timing.

With every increment booked, ``check()`` is clean on every ledger.  For
each counter a law names, a ledger that drops that counter's increments
makes ``check()`` report every law naming it, and no other.
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.cache import CachingFrontend, ResultCache
from repro.core.dmu import DecisionMakingUnit
from repro.net import InProcessReplica, NetClient, NetFrontend, ShardRouter
from repro.net.client import WireError, WireRejected
from repro.obs.ledger import Ledger, tally
from repro.serve import CascadeServer, MultiTenantServer, RetryPolicy, TenantSpec
from repro.serve.tenancy import SharedHostPool, TenantQuotaExceeded

WAIT = 10.0
TAG = 10  # column 10 tells the stub stages what to do with a row
NORMAL, BNN_FAILS, HOST_FAILS, SLOW = 0, 1, 2, 3


def row(kind: int, winner: int, confident: bool) -> np.ndarray:
    scores = np.zeros(TAG + 1)
    scores[winner] = 5.0 if confident else 1.0
    scores[(winner + 1) % TAG] = 0.0 if confident else 0.9
    scores[TAG] = kind
    return scores


class Stub:
    """BNN echoes the scores; the host answers the runner-up.  Tagged rows
    make a stage raise, or hold the BNN until :attr:`gate` opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()

    def bnn(self, images):
        if (images[:, TAG] == SLOW).any():
            assert self.gate.wait(WAIT)
        if (images[:, TAG] == BNN_FAILS).any():
            raise RuntimeError("bnn down")
        return images[:, :TAG]

    def host(self, images):
        if (images[:, TAG] == HOST_FAILS).any():
            raise RuntimeError("host down")
        return np.argsort(images[:, :TAG], axis=1)[:, -2]


def cascade(stub: Stub) -> dict:
    return dict(
        bnn_scores_fn=stub.bnn, dmu=DecisionMakingUnit.margin(0.9),
        host_predict_fn=stub.host, controller=0.9, breaker=None, host_workers=0,
        retry=RetryPolicy(max_retries=1, base_delay_s=0.0, max_delay_s=0.0),
    )


def wait_until(condition) -> None:
    deadline = time.monotonic() + WAIT
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def outcome(future) -> str:
    try:
        return future.result(timeout=WAIT).source
    except WireRejected:
        return "rejected"
    except (WireError, RuntimeError) as exc:
        return type(exc).__name__


def wire_scenario(ledgers: list) -> dict:
    stub = Stub()
    fronts = [
        CachingFrontend(CascadeServer(**cascade(stub)), ResultCache(max_bytes=1 << 20))
        for _ in range(2)
    ]
    replicas = [InProcessReplica(i, front) for i, front in enumerate(fronts)]
    router = ShardRouter(replicas, placement="rendezvous")
    frontend = NetFrontend(router)
    frontend.start()
    seen = []
    try:
        with NetClient(*frontend.address) as client:
            def send(image, **kwargs):
                seen.append(outcome(client.submit(image, **kwargs)))

            send(row(NORMAL, 1, confident=True))          # accepted
            send(row(NORMAL, 2, confident=False))         # rerun by the host
            send(row(HOST_FAILS, 3, confident=False))     # degraded after a retry
            send(row(BNN_FAILS, 4, confident=True))       # failed at every layer
            send(row(NORMAL, 1, confident=True))          # a cache hit
            send(row(NORMAL, 5, confident=True), tenant="nobody")  # frontend rejects
            stub.gate.clear()                             # hold a leader in flight
            slow = row(SLOW, 6, confident=True)
            leader, follower = client.submit(slow), client.submit(slow)
            wait_until(lambda: sum(f.ledger.read().counters["followers"] for f in fronts))
            stub.gate.set()
            seen += [outcome(leader), outcome(follower)]
            for replica in replicas:
                replica.kill()
            send(row(NORMAL, 7, confident=True))          # no replica: router rejects
    finally:
        frontend.close()
        router.close()
    ledgers += [frontend.metrics, router.metrics]
    for front in fronts:
        ledgers += [front.metrics, front.cache.ledger, front.ledger]
    return {"seen": seen, "frontend": frontend, "router": router, "fronts": fronts}


def tenant_scenario(ledgers: list) -> MultiTenantServer:
    stub = Stub()
    params = cascade(stub)
    spec = TenantSpec(
        "only", params.pop("bnn_scores_fn"), params.pop("dmu"), params.pop("host_predict_fn"),
        quota=1, server_kwargs={k: v for k, v in params.items() if k != "host_workers"},
    )
    server = MultiTenantServer([spec], cache_max_bytes=1 << 20, host_workers=0)
    try:
        for image in (row(NORMAL, 1, True), row(NORMAL, 2, False), row(NORMAL, 1, True)):
            server.submit(image).result(timeout=WAIT)
        stub.gate.clear()
        held = server.submit(row(SLOW, 3, True))
        with pytest.raises(TenantQuotaExceeded):
            server.submit(row(NORMAL, 4, True))
        stub.gate.set()
        held.result(timeout=WAIT)
    finally:
        server.close()
    ledgers += [
        server._tenants["only"].metrics, server.ledger, server.cache.ledger, server.pool.ledger,
    ]
    return server


def stranding_pool(ledgers: list) -> SharedHostPool:
    """A lane busy with one batch, a second batch queued, then close()."""
    pool = SharedHostPool(lanes=1)
    entered, release = threading.Event(), threading.Event()

    def predict(images):
        entered.set()
        assert release.wait(WAIT)
        return images[:, 0]

    handle = pool.register("t", predict)

    def call():
        try:
            handle(np.zeros((1, 2)))
        except RuntimeError:
            pass  # the stranded batch fails typed

    threads = [threading.Thread(target=call) for _ in range(2)]
    threads[0].start()
    assert entered.wait(WAIT)
    threads[1].start()
    try:
        wait_until(lambda: pool.stats()["t"].queued == 1)
        pool.close(timeout=0.0)
    finally:
        release.set()
        for thread in threads:
            thread.join(WAIT)
    ledgers.append(pool.ledger)
    return pool


def scenario() -> tuple[list, dict]:
    ledgers: list = []
    wire = wire_scenario(ledgers)
    wire["tenants"] = tenant_scenario(ledgers)
    stranding_pool(ledgers)
    return ledgers, wire


def test_scenario_reaches_every_outcome_with_clean_books():
    ledgers, run = scenario()
    assert run["seen"] == [
        "bnn", "host", "degraded", "WireError", "cache", "rejected", "bnn", "cache",
        "rejected",
    ]
    assert [law for ledger in ledgers for law in ledger.check()] == []
    assert run["frontend"].metrics.snapshot().balanced
    assert run["router"].snapshot().balanced
    assert run["tenants"].snapshot().balanced
    counters = [ledger.read().counters for ledger in ledgers]
    for name in ("accepted", "rerun", "degraded", "failed", "rejected", "cache_hits",
                 "followers", "hits", "stranded"):
        assert any(tally(c, name) for c in counters if name in c), name


def _law_counters() -> list[str]:
    ledgers, _ = scenario()
    return sorted({n for ledger in ledgers for law in ledger.laws for n in (*law.parts, law.total)})


LAW_COUNTERS = [
    "accepted", "answered", "cache_hits", "degraded", "enqueued", "failed", "hits",
    "lookups", "misses", "replica_routed", "requests", "rejected", "rerun",
    "rerun_stages", "routed", "scheduled", "stranded", "submitted",
]


def test_law_counter_list_is_complete():
    assert _law_counters() == sorted(LAW_COUNTERS)


@pytest.mark.parametrize("dropped", LAW_COUNTERS)
def test_dropping_any_law_counter_breaks_its_laws(dropped, monkeypatch):
    add = Ledger.add

    def lossy(self, key=None, /, **counts):
        counts.pop(dropped, None)
        add(self, key, **counts)

    monkeypatch.setattr(Ledger, "add", lossy)
    ledgers, run = scenario()
    naming = {
        law for ledger in ledgers for law in ledger.laws if dropped in (*law.parts, law.total)
    }
    broken = {law for ledger in ledgers for law in ledger.check()}
    assert naming and broken == naming
    if dropped in ("accepted", "rerun", "cache_hits", "submitted"):
        assert not run["tenants"].snapshot().balanced  # the global tenant books too


def test_tracer_counters_equal_the_ledgers():
    with obs.tracing() as tracer:
        ledgers, _ = scenario()
    exported: dict = {}
    for ledger in ledgers:
        for name, value in ledger.export().items():
            exported[name] = exported.get(name, 0) + value
    counters = tracer.counters()
    assert exported and set(exported) <= set(counters)
    assert {name: counters[name] for name in exported} == exported
    assert {"serve.accepted", "serve.rerun", "serve.degraded", "serve.failed",
            "net.request", "net.answered", "net.rejected", "net.failed",
            "cache.hit", "cache.miss", "cache.single_flight",
            "tenant.only.scheduled", "tenant.only.rejected"} <= set(exported)
