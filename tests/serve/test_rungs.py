"""The rung policy table: one loop, three positions, seven events.

``CascadeServer`` runs every rung — first (``bnn``), middle, last
(``host``) — through the same worker loop; what differs by position is
read off the request (does it carry an answer yet?) and the table
(does this rung, or the next one, have a DMU?).  Each case below drives
one event at one position of a 3-rung server and pins

* the terminal state: a typed error, ``source="degraded"``, or a rung name;
* which prediction a degraded answer carries — this rung's own when only
  its DMU failed or the next inbox was full (or skipped), otherwise the
  previous rung's (CascadeCNN: a fallback is always a cheaper unit's answer);
* the exact books: faults, deadline misses, retries, per-rung traffic,
  queue-wait counts, and ``accepted + rerun + degraded + failed ==
  submitted``.

No sleeps: the clock is fake, the stage callables are inline, and the
choreography is event-driven (a stage call parks on a gate; a threshold
knob signals when a batch has been routed).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core import DecisionMakingUnit, LadderStage
from repro.serve import (
    AdaptiveThresholdController,
    CascadeServer,
    CircuitBreaker,
    DeadlineExceeded,
    LadderThresholdController,
    RetryPolicy,
    ServerMetrics,
    StageFailure,
)

WAIT = 10.0        # safety timeout on every event wait; never the pacing
NAMES = ("bnn", "mid", "host")
T_CLASS = 3        # the request under test: bnn says 3, mid 4, host 5
ANSWER = {"bnn": 3, "mid": 4, "host": 5}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Stage:
    """Inline stage: rung *k* answers ``(class + k) % 10``; scriptable faults."""

    def __init__(self, shift: int, labels: bool = False):
        self.shift, self.labels = shift, labels
        self.fail = 0                                  # raise on the next n calls
        self.gate: threading.Event | None = None       # park the next call on it
        self.parked = threading.Event()

    def __call__(self, images: np.ndarray) -> np.ndarray:
        if self.gate is not None:
            gate, self.gate = self.gate, None
            self.parked.set()
            assert gate.wait(WAIT)
        if self.fail:
            self.fail -= 1
            raise RuntimeError("stage down")
        scores = np.roll(images, self.shift, axis=1)
        return scores.argmax(axis=1) if self.labels else scores


class Dmu:
    """Duck-typed DMU: flags everything unless told to accept (or to raise)."""

    threshold = 0.5

    def __init__(self):
        self.accept = False
        self.fail = False

    def confidence(self, scores: np.ndarray) -> np.ndarray:
        if self.fail:
            raise RuntimeError("dmu down")
        return np.full(len(scores), 1.0 if self.accept else 0.0)


class Knob(AdaptiveThresholdController):
    """Static 0.5 threshold that reports each batch its hop has routed."""

    def __init__(self):
        super().__init__(initial_threshold=0.5, gain=0.0, overload_backoff=0.0)
        self._routed = threading.Semaphore(0)

    def observe(self, total: int, rerun: int, degraded: int = 0) -> float:
        out = super().observe(total, rerun, degraded)
        self._routed.release()
        return out

    def wait_routed(self, batches: int) -> None:
        for _ in range(batches):
            assert self._routed.acquire(timeout=WAIT)


class CrashingMetrics(ServerMetrics):
    """Books that raise once when asked to time *crash_on* — an exception
    no ``try`` in the rung expects, so the worker's containment gets it."""

    crash_on: str | None = None

    def observe_stage(self, name, seconds, count=1):
        if name == self.crash_on:
            self.crash_on = None
            raise RuntimeError("books down")
        super().observe_stage(name, seconds, count)


class Harness:
    """A 3-rung server on a fake clock with one-deep forwarding queues."""

    def __init__(self, breaker_threshold: int = 100):
        self.clock = FakeClock()
        self.stages = [Stage(0), Stage(1), Stage(2, labels=True)]
        self.dmus = [Dmu(), Dmu()]
        self.knobs = [Knob(), Knob()]
        self.metrics = CrashingMetrics(clock=self.clock)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown_s=1e9, clock=self.clock
        )
        self.server = CascadeServer(
            self.stages[0], self.dmus[0], self.stages[2],
            controller=LadderThresholdController(self.knobs),
            ladder=[LadderStage("mid", self.stages[1], dmu=self.dmus[1])],
            host_batch_size=1, host_queue_capacity=1,
            deadline_s=1.0, clock=self.clock, metrics=self.metrics,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.0, max_delay_s=0.0),
            breaker=self.breaker,
            # The scripted stages keep their state in this process; a
            # REPRO_HOST_WORKERS pool would run the host script elsewhere.
            host_workers=0,
        )
        self.helpers: list = []     # futures of the requests that set the scene

    def submit(self, klass: int = 0):
        return self.server.submit(np.eye(10)[klass])

    def park(self, rung: int) -> threading.Event:
        """Submit a helper (class 0) and hold it inside rung *rung*'s call."""
        gate = threading.Event()
        self.stages[rung].gate = gate
        self.helpers.append(self.submit())
        assert self.stages[rung].parked.wait(WAIT)
        return gate


# -- the events: each returns the future of the request under test ----------
def late_on_arrival(h: Harness, rung: int):
    if rung < 2:
        h.dmus[rung].accept = True      # the helper leaves through the accept path
    gate = h.park(rung)
    future = h.submit(T_CLASS)
    if rung:
        h.knobs[rung - 1].wait_routed(2)    # helper, then T: T is in the inbox
    h.clock.now += 2.0                  # past deadline_s=1.0
    gate.set()
    return future


def scoring_raises(h: Harness, rung: int):
    h.stages[rung].fail = 1
    return h.submit(T_CLASS)


def dmu_raises(h: Harness, rung: int):
    h.dmus[rung].fail = True
    return h.submit(T_CLASS)


def next_queue_full(h: Harness, rung: int):
    h.dmus[1].accept = rung == 0        # the helpers stop at the rung that holds them
    gate = h.park(rung + 1)             # helper 1 is out of the inbox, in the call
    h.helpers.append(h.submit())        # helper 2 fills the one-deep inbox
    h.knobs[rung].wait_routed(2)
    future = h.submit(T_CLASS)
    future.exception(timeout=WAIT)      # T is shed while the next rung is held
    gate.set()
    return future


def breaker_open(h: Harness, rung: int):
    if rung == 2:
        h.stages[2].fail = 1            # threshold 1: the failure itself trips it
    else:
        h.breaker.record_failure()
        h.dmus[1].accept = rung == 0    # rung 0's hop is not guarded: mid answers
    return h.submit(T_CLASS)


def retries_exhausted(h: Harness, rung: int):
    h.stages[rung].fail = 3             # max_retries=2: three attempts, all down
    return h.submit(T_CLASS)


def worker_crashes(h: Harness, rung: int):
    h.metrics.crash_on = NAMES[rung]
    return h.submit(T_CLASS)


@dataclass
class Expect:
    """Terminal state of T plus the whole run's books (helpers included)."""

    terminal: str                       # exception class name | source
    prediction: int | None = None
    accepted: int = 0
    rerun_stages: dict = field(default_factory=dict)
    degraded: int = 0
    failed: int = 0
    faults: dict = field(default_factory=dict)
    deadline_missed: int = 0
    retries: int = 0
    arrived: dict = field(default_factory=dict)
    forwarded: dict = field(default_factory=dict)
    waited: dict = field(default_factory=lambda: {"bnn": 1})  # rung -> images timed in its inbox
    breaker_threshold: int = 100


B, M, H = ANSWER["bnn"], ANSWER["mid"], ANSWER["host"]
# Traffic books of one request that climbed to mid / to host.  A rung books
# its arrivals with its routing, so one that faulted before routing has none.
TO_MID = dict(arrived={"bnn": 1}, forwarded={"bnn": 1}, waited={"bnn": 1, "mid": 1})
AT_MID = dict(TO_MID, arrived={"bnn": 1, "mid": 1})
TO_HOST = dict(
    arrived={"bnn": 1, "mid": 1, "host": 1}, forwarded={"bnn": 1, "mid": 1},
    waited={"bnn": 1, "mid": 1, "host": 1},
)

TABLE = [
    # -- late on arrival: no answer yet -> typed; else the previous rung's
    (late_on_arrival, 0, Expect(
        "DeadlineExceeded", failed=1, deadline_missed=1, accepted=1, arrived={"bnn": 1})),
    (late_on_arrival, 1, Expect(
        "degraded", B, degraded=1, deadline_missed=1, rerun_stages={"mid": 1},
        arrived={"bnn": 2, "mid": 1}, forwarded={"bnn": 2}, waited={"bnn": 2, "mid": 1})),
    (late_on_arrival, 2, Expect(
        "degraded", M, degraded=1, deadline_missed=1, rerun_stages={"host": 1},
        arrived={"bnn": 2, "mid": 2, "host": 1}, forwarded={"bnn": 2, "mid": 2},
        waited={"bnn": 2, "mid": 2, "host": 1})),
    # -- scoring raises: only the last rung retries (and here recovers)
    (scoring_raises, 0, Expect("StageFailure", failed=1, faults={"bnn": 1})),
    (scoring_raises, 1, Expect("degraded", B, degraded=1, faults={"mid": 1}, **TO_MID)),
    (scoring_raises, 2, Expect(
        "host", H, rerun_stages={"host": 1}, faults={"host": 1}, retries=1, **TO_HOST)),
    # -- DMU raises: the rung answered, keep its own answer
    (dmu_raises, 0, Expect("degraded", B, degraded=1, faults={"dmu": 1})),
    (dmu_raises, 1, Expect("degraded", M, degraded=1, faults={"mid.dmu": 1}, **TO_MID)),
    # -- next inbox full: shed with this rung's own answer
    (next_queue_full, 0, Expect(
        "degraded", B, degraded=1, rerun_stages={"mid": 2},
        arrived={"bnn": 3, "mid": 2}, forwarded={"bnn": 2}, waited={"bnn": 3, "mid": 2})),
    (next_queue_full, 1, Expect(
        "degraded", M, degraded=1, rerun_stages={"host": 2},
        arrived={"bnn": 3, "mid": 3, "host": 2}, forwarded={"bnn": 3, "mid": 2},
        waited={"bnn": 3, "mid": 3, "host": 2})),
    # -- breaker open: only the hop into the last rung is guarded
    (breaker_open, 0, Expect(
        "mid", M, rerun_stages={"mid": 1}, breaker_threshold=1, **AT_MID)),
    (breaker_open, 1, Expect("degraded", M, degraded=1, breaker_threshold=1, **AT_MID)),
    (breaker_open, 2, Expect(
        "degraded", M, degraded=1, faults={"host": 1}, retries=0,
        breaker_threshold=1, **TO_HOST)),
    # -- retries exhausted: the last rung's alone to exhaust
    (retries_exhausted, 2, Expect(
        "degraded", M, degraded=1, faults={"host": 3}, retries=2, **TO_HOST)),
    # -- an exception no try expects: containment, same fall-back rule
    (worker_crashes, 0, Expect("StageFailure", failed=1)),
    (worker_crashes, 1, Expect("degraded", B, degraded=1, **TO_MID)),
    (worker_crashes, 2, Expect("degraded", M, degraded=1, **TO_HOST)),
]


@pytest.mark.parametrize(
    "event, rung, expect", TABLE, ids=[f"{e.__name__}-{NAMES[r]}" for e, r, _ in TABLE]
)
def test_rung_policy(event, rung, expect):
    h = Harness(breaker_threshold=expect.breaker_threshold)
    try:
        future = event(h, rung)
        error = future.exception(timeout=WAIT)
        for helper in h.helpers:
            helper.result(timeout=WAIT)
    finally:
        h.server.close(timeout=WAIT)

    if expect.prediction is None:
        assert type(error).__name__ == expect.terminal
        assert isinstance(error, (DeadlineExceeded, StageFailure))
    else:
        assert error is None
        result = future.result()
        assert (result.source, result.prediction) == (expect.terminal, expect.prediction)
        assert result.bnn_prediction == ANSWER["bnn"]

    snap = h.server.snapshot()
    assert snap.accepted == expect.accepted
    assert snap.rerun_stages == expect.rerun_stages
    assert snap.degraded == expect.degraded
    assert snap.failed == expect.failed
    assert snap.faults == expect.faults
    assert snap.deadline_missed == expect.deadline_missed
    assert snap.retries == expect.retries
    assert snap.stage_arrived == expect.arrived
    assert snap.stage_forwarded == expect.forwarded
    waited = {
        name[: -len("_queue_wait")]: stats.count
        for name, stats in snap.stages.items() if name.endswith("_queue_wait")
    }
    assert waited == expect.waited
    # books balance after every case
    assert snap.accepted + snap.rerun + snap.degraded + snap.failed == snap.submitted
    assert snap.rerun_stage_total == snap.rerun
    assert snap.in_flight == 0


def test_two_stage_hop_into_host_is_the_guarded_one():
    """With zero middle rungs, rung 0's hop is the hop into the last rung."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1e9, clock=clock)
    breaker.record_failure()
    with CascadeServer(
        Stage(0), Dmu(), Stage(2, labels=True), controller=0.5, clock=clock, breaker=breaker
    ) as server:
        result = server.submit(np.eye(10)[T_CLASS]).result(timeout=WAIT)
    assert (result.source, result.prediction) == ("degraded", ANSWER["bnn"])
    assert server.snapshot().stage_forwarded == {}


def test_no_ladder_and_empty_ladder_are_the_same_server():
    """N = 2 is the ladder with zero middle rungs: same answers, same books."""
    rng = np.random.default_rng(22)
    images = rng.normal(size=(256, 10))
    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0
    runs = []
    for kwargs in ({}, {"ladder": []}):
        dmu = DecisionMakingUnit(weights, bias=0.0, threshold=0.6)
        # A frozen clock takes every wall-clock field out of the snapshot;
        # one request in flight at a time takes batch cuts and queue
        # depths out of it.  The property is rung topology, not the host
        # pool: pool workers time host_worker_seconds on their own clocks,
        # so host_workers=0 keeps REPRO_HOST_WORKERS out of the books.
        with CascadeServer(
            lambda x: x, dmu, lambda x: x.argmax(axis=1) + 100,
            clock=lambda: 0.0, host_workers=0, **kwargs,
        ) as server:
            results = [server.submit(img).result(timeout=WAIT) for img in images]
        runs.append((results, server.snapshot()))

    (res_a, snap_a), (res_b, snap_b) = runs
    assert np.array_equal(
        [r.prediction for r in res_a], [r.prediction for r in res_b]
    )
    assert [r.source for r in res_a] == [r.source for r in res_b]
    assert {r.source for r in res_a} == {"bnn", "host"}
    assert snap_a == snap_b
