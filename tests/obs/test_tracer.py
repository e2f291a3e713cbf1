"""Tracer core: nesting, thread safety, disabled-mode overhead."""

import threading
import time

import pytest

from repro import obs
from repro.obs.tracer import _NULL_CONTEXT, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


def test_span_records_name_duration_args():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("work", category="test", items=3):
        clock.advance(0.5)
    (span,) = tracer.spans
    assert span.name == "work"
    assert span.category == "test"
    assert span.args == {"items": 3}
    assert span.duration == pytest.approx(0.5)
    assert span.depth == 0 and span.parent is None


def test_nesting_depth_and_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1 and by_name["inner"].parent == "outer"
    assert by_name["leaf"].depth == 2 and by_name["leaf"].parent == "inner"
    # Spans close inside-out.
    assert [s.name for s in tracer.spans] == ["leaf", "inner", "outer"]


def test_nesting_is_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker(name):
        with tracer.span(name):
            barrier.wait(timeout=5)

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Both ran concurrently (barrier), yet neither nests under the other.
    assert all(s.depth == 0 and s.parent is None for s in tracer.spans)
    assert len({s.thread_id for s in tracer.spans}) == 2


def test_concurrent_recording_loses_nothing():
    tracer = Tracer()
    n, workers = 200, 8

    def worker(k):
        for i in range(n):
            with tracer.span(f"w{k}"):
                pass
            tracer.count("events", 1)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer.spans) == n * workers
    assert tracer.counters()["events"] == n * workers
    assert tracer.dropped == 0


def test_max_events_bounds_memory():
    tracer = Tracer(max_events=5)
    for _ in range(8):
        with tracer.span("s"):
            pass
    assert len(tracer.spans) == 5
    assert tracer.dropped == 3


def test_counters_gauges_instants():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.count("hits", 2)
    tracer.count("hits", 3)
    clock.advance(1.0)
    tracer.gauge("depth", 7)
    tracer.instant("marker", reason="x")
    assert tracer.counters() == {"hits": 5}
    assert tracer.gauge_samples()["depth"][-1][1] == 7
    (instant,) = tracer.instants
    assert instant[0] == "marker" and instant[3] == {"reason": "x"}


def test_global_install_and_tracing_context():
    assert not obs.enabled()
    with obs.tracing() as tracer:
        assert obs.enabled() and obs.active() is tracer
        with obs.trace_span("global.work"):
            pass
        obs.count("c", 1)
        obs.gauge("g", 2.0)
        obs.instant("i")
    assert not obs.enabled() and obs.active() is None
    assert [s.name for s in tracer.spans] == ["global.work"]
    assert tracer.counters() == {"c": 1}


def test_tracing_restores_previous_tracer():
    with obs.tracing() as outer:
        with obs.tracing() as inner:
            assert obs.active() is inner
        assert obs.active() is outer
        installed = obs.install()
        assert obs.active() is installed and installed is not outer
    assert obs.active() is None


def test_disabled_mode_returns_shared_null_context():
    assert obs.active() is None
    ctx = obs.trace_span("anything", key="value")
    assert ctx is _NULL_CONTEXT
    with ctx:
        pass  # no-op, reusable
    with ctx:
        pass
    # Module-level metric helpers are no-ops too.
    obs.count("x", 1)
    obs.gauge("y", 2)
    obs.instant("z")


def test_disabled_mode_overhead_is_negligible():
    def bare():
        total = 0
        for i in range(20000):
            total += i
        return total

    def traced_loop():
        total = 0
        for i in range(20000):
            with obs.trace_span("hot"):
                total += i
        return total

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    assert obs.active() is None
    bare_t, traced_t = best_of(bare), best_of(traced_loop)
    # One global read + a shared null context per iteration. The bound is
    # deliberately loose (CI noise); the real guard is the <5% end-to-end
    # folded-BNN criterion, where trace_span is a tiny fraction of work.
    assert traced_t < bare_t * 20


def test_add_span_retrospective():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    start = tracer.now()
    clock.advance(2.0)
    tracer.add_span("late", start, tracer.now(), category="x", n=1)
    (span,) = tracer.spans
    assert span.duration == pytest.approx(2.0)
    assert span.args == {"n": 1}
