"""SLO autoscaler: convergence, anti-thrash, scale-down, balanced books.

Two layers of coverage: a deterministic toy plant (fake clock, fake
pool) pins the control law's exact behaviour — convergence within K
windows, bounded action rate, full de-escalation — and a real oracle
cascade under an open-loop flash-crowd trace shows the integrated loop
recovering p99 with books that still balance.
"""

import numpy as np
import pytest

from repro.serve import (
    AdaptiveThresholdController,
    SLOAutoscaler,
    ServerMetrics,
)


class Plant:
    """Deterministic latency plant: p99 falls with workers and tightening.

    One ``window()`` call = one control window: it records a latency
    sample set whose level is ``base * load / (workers * relief)`` where
    each tightening step halves the host-bound load (relief).  The
    fixed-point structure mirrors the real cascade: more workers or less
    admitted work ⇒ lower latency.
    """

    def __init__(self, scaler, metrics, clock, base_ms=20.0):
        self.scaler = scaler
        self.metrics = metrics
        self.clock = clock
        self.base_ms = base_ms
        self.load = 1.0

    def window(self):
        workers = max(1, self.scaler.workers)
        relief = 0.5 ** self.scaler.tighten_depth
        latency_s = self.base_ms * 1e-3 * self.load * relief / workers
        for _ in range(200):
            self.metrics.latencies.append(latency_s)
        self.clock[0] += 1.0
        return self.scaler.observe_window()


def make_scaler(max_workers=4, controllers=(), **kwargs):
    metrics = ServerMetrics()
    clock = [0.0]
    scale_calls = []

    def scale(n):
        scale_calls.append(n)
        return n

    kwargs.setdefault("cooldown_windows", 2)
    kwargs.setdefault("clear_windows", 3)
    scaler = SLOAutoscaler(
        metrics,
        slo_p99_ms=25.0,
        scale_fn=scale,
        current_workers=1,
        min_workers=1,
        max_workers=max_workers,
        controllers=controllers,
        clock=lambda: clock[0],
        **kwargs,
    )
    return scaler, metrics, clock, scale_calls


def test_step_load_converges_within_k_windows():
    scaler, metrics, clock, _ = make_scaler()
    plant = Plant(scaler, metrics, clock)
    plant.load = 1.0
    assert not plant.window().violating  # healthy baseline

    plant.load = 3.0  # step: 60 ms at 1 worker; needs 3 workers for 20 ms
    decisions = [plant.window() for _ in range(10)]
    assert decisions[0].violating
    # converged: p99 back under SLO within K windows (two scale-ups at
    # cooldown 2, plus one window of slack)
    recovered_at = next(i for i, d in enumerate(decisions) if not d.violating)
    assert recovered_at <= 6
    # the scaler probes downward after a healthy streak and re-escalates,
    # but the loop must settle at the fixed point: 3 workers, healthy tail
    assert scaler.workers == 3
    assert not decisions[-1].violating
    assert sum(d.violating for d in decisions[recovered_at:]) <= 3


def test_flash_crowd_tightens_after_pool_exhausted():
    ctrl = AdaptiveThresholdController(target_rerun_ratio=0.4)
    scaler, metrics, clock, _ = make_scaler(max_workers=2, controllers=[ctrl])
    plant = Plant(scaler, metrics, clock)
    plant.load = 16.0  # flash: unreachable by capacity alone (max 2 workers)
    for _ in range(12):
        plant.window()
    assert scaler.workers == 2                  # capacity exhausted first
    assert scaler.tighten_depth > 0             # then admission tightened
    assert ctrl.target_rerun_ratio < 0.4        # knob actually moved
    assert ctrl.target_rerun_ratio == pytest.approx(
        0.4 * scaler.tighten_factor ** scaler.tighten_depth
    )


def test_never_thrashes_bounded_action_rate():
    scaler, metrics, clock, scale_calls = make_scaler()
    plant = Plant(scaler, metrics, clock)
    # oscillating load, adversarial for a naive scaler
    for i in range(30):
        plant.load = 8.0 if i % 2 == 0 else 0.5
        plant.window()
    # at most one action per cooldown window, ever
    assert scaler.actions_taken <= 30 // scaler.cooldown_windows + 1
    # consecutive actions never alternate faster than the cooldown
    action_windows = [
        d.window for d in scaler.decisions
        if d.action in ("scale_up", "scale_down", "tighten", "relax")
    ]
    gaps = np.diff(action_windows)
    assert (gaps >= scaler.cooldown_windows).all()


def test_scale_down_returns_to_min_workers_and_original_targets():
    ctrl = AdaptiveThresholdController(target_rerun_ratio=0.3)
    scaler, metrics, clock, _ = make_scaler(max_workers=3, controllers=[ctrl])
    plant = Plant(scaler, metrics, clock)
    plant.load = 20.0
    for _ in range(12):
        plant.window()
    assert scaler.workers == 3 and scaler.tighten_depth > 0

    plant.load = 0.2  # load drops away
    for _ in range(40):
        plant.window()
    assert scaler.tighten_depth == 0
    assert ctrl.target_rerun_ratio == pytest.approx(0.3)  # fully restored
    assert scaler.workers == scaler.min_workers


def test_empty_windows_count_as_healthy():
    scaler, metrics, clock, _ = make_scaler()
    plant = Plant(scaler, metrics, clock)
    plant.load = 5.0
    for _ in range(4):
        plant.window()
    assert scaler.workers > 1
    # traffic stops entirely: no samples at all, still walks back down
    for _ in range(20):
        clock[0] += 1.0
        scaler.observe_window()
    assert scaler.workers == scaler.min_workers


def test_violation_seconds_accumulate():
    scaler, metrics, clock, _ = make_scaler()
    plant = Plant(scaler, metrics, clock)
    plant.load = 50.0
    for _ in range(5):
        plant.window()
    assert scaler.violation_seconds == pytest.approx(5.0)  # 1 s windows


def test_threshold_only_mode_without_pool():
    """A serial-host server still gets admission control."""
    metrics = ServerMetrics()
    ctrl = AdaptiveThresholdController(target_rerun_ratio=0.3)
    clock = [0.0]
    scaler = SLOAutoscaler(
        metrics, slo_p99_ms=10.0, scale_fn=None, controllers=[ctrl],
        cooldown_windows=1, clock=lambda: clock[0],
    )
    for _ in range(4):
        for _ in range(50):
            metrics.latencies.append(0.05)
        clock[0] += 1.0
        scaler.observe_window()
    assert scaler.tighten_depth > 0
    assert all(
        d.action in ("tighten", "saturated", "observe") for d in scaler.decisions
    )


def test_constructor_validation():
    metrics = ServerMetrics()
    with pytest.raises(ValueError):
        SLOAutoscaler(metrics, slo_p99_ms=0.0)
    with pytest.raises(ValueError):
        SLOAutoscaler(metrics, slo_p99_ms=10, tighten_factor=1.5)
    with pytest.raises(ValueError):
        SLOAutoscaler(metrics, slo_p99_ms=10, cooldown_windows=0)
    with pytest.raises(ValueError):
        SLOAutoscaler(
            metrics, slo_p99_ms=10, scale_fn=lambda n: n,
            min_workers=4, max_workers=2,
        )


# -- integrated: oracle cascade under an open-loop flash crowd ---------------
@pytest.fixture
def no_collector_pauses():
    """No stop-the-world cyclic-GC pass while a wall-clock run is measured.

    Late in a long pytest process one generation-2 pass stops every
    thread for 50-90 ms (CHANGES.md, PR 15); inside a 0.4 s control
    window that alone lifts the window's p99 over a 40 ms SLO.  The
    pause is the interpreter's, not the cascade's, so the run is
    measured without it: collect up front, then keep the collector off
    (reference counting still frees everything acyclic).
    """
    import gc

    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_flash_crowd_recovery_on_real_cascade(no_collector_pauses):
    """The acceptance-criteria scenario, compressed for CI.

    A flash-crowd trace replays open-loop against a real CascadeServer
    with a 1-process host pool; the autoscaler must take scale-up
    actions during the spike, end with balanced books, and leave p99
    under the SLO once the spike decays.
    """
    from repro.traffic import ServeLoadConfig, run_serve_load

    report = run_serve_load(
        ServeLoadConfig(
            trace="flash",
            rate=300.0,
            duration=10.0,
            time_scale=5.0,
            slo_p99_ms=40.0,
            window_seconds=0.4,
            host_workers=1,
            max_workers=3,
            seed=0,
        )
    )
    assert report.books["balanced"], report.books
    assert report.terminal_fraction == pytest.approx(1.0)
    assert report.actions_taken >= 1
    assert report.final_workers > 1          # the pool actually grew
    assert report.recovered, [
        (w.index, w.p99_ms, w.action) for w in report.windows
    ]


def test_for_server_wires_pool_and_controllers():
    import time

    from repro.core.dmu import DecisionMakingUnit
    from repro.serve import CascadeServer

    rng = np.random.default_rng(0)
    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0
    dmu = DecisionMakingUnit(weights, bias=0.0, threshold=0.9)
    ctrl = AdaptiveThresholdController(initial_threshold=0.9)

    def bnn_fn(images):
        time.sleep(0.0001 * len(images))
        return images

    def host_fn(images):
        time.sleep(0.001 * len(images))
        return images.argmax(axis=1)

    with CascadeServer(
        bnn_fn, dmu, host_fn, controller=ctrl, host_workers=1
    ) as server:
        scaler = SLOAutoscaler.for_server(server, slo_p99_ms=50.0, max_workers=2)
        assert scaler.workers == 1
        assert ctrl in scaler.controllers
        for payload in rng.normal(size=(40, 10)):
            server.submit(payload)
        # a tick drains the latency buffer and records a decision
        decision = scaler.observe_window()
        assert decision.action in SLOAutoscaler.ACTIONS
        # the capacity actuator drives the real pool
        scaler.scale_fn(2)
        assert server.host_pool_size == 2
    total = server.snapshot()
    answered = total.accepted + total.rerun + total.degraded + total.failed
    assert answered == total.submitted


def test_for_server_reads_every_knob_off_the_public_controllers():
    """``for_server`` collects what ``CascadeServer.controllers`` lists:
    every hop's knob of a 3-stage ladder, in hop order — and nothing from
    a server whose thresholds are static."""
    from repro.core import LadderStage
    from repro.core.dmu import DecisionMakingUnit
    from repro.serve import CascadeServer, LadderThresholdController

    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0

    def dmu():
        return DecisionMakingUnit(weights, bias=0.0, threshold=0.9)

    def scores_fn(images):
        return images

    def host_fn(images):
        return images.argmax(axis=1)

    ladder_ctrl = LadderThresholdController.from_targets([0.9, 0.8], [0.3, 0.5])
    with CascadeServer(
        scores_fn, dmu(), host_fn, controller=ladder_ctrl,
        ladder=[LadderStage("mid", scores_fn, dmu=dmu())],
    ) as server:
        assert server.num_stages == 3
        assert server.controllers == ladder_ctrl.knobs
        scaler = SLOAutoscaler.for_server(server, slo_p99_ms=50.0)
        assert scaler.controllers == ladder_ctrl.knobs
        assert scaler.workers == 0          # serial host: threshold-only mode

    with CascadeServer(
        scores_fn, dmu(), host_fn, controller=0.9,
        ladder=[LadderStage("mid", scores_fn, dmu=dmu())],
    ) as server:
        assert server.controllers == ()
        assert SLOAutoscaler.for_server(server, slo_p99_ms=50.0).controllers == ()

