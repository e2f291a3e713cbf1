"""Serving metrics facade and its Eq. (1) bridge into repro.hetero."""

import pytest

from repro.obs import ladder_eq1_residual
from repro.serve import MetricsSnapshot, ServerMetrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clocked():
    clock = FakeClock()
    return clock, ServerMetrics(clock=clock)


class TestStages:
    def test_observe_aggregates_latency(self, clocked):
        _, metrics = clocked
        metrics.observe_stage("bnn", 0.2, count=10)
        metrics.observe_stage("bnn", 0.4, count=10)
        stage = metrics.snapshot().stages["bnn"]
        assert stage.count == 20
        assert stage.total_seconds == pytest.approx(0.6)
        assert stage.max_seconds == pytest.approx(0.4)
        assert stage.mean_seconds == pytest.approx(0.03)


class TestQueues:
    def test_depth_gauge_tracks_maximum(self, clocked):
        _, metrics = clocked
        metrics.set("host", queue_capacity=8)
        for depth in (3, 7, 2):
            metrics.set("host", queue_depth=depth)
        q = metrics.snapshot().queues["host"]
        assert (q.capacity, q.depth, q.max_depth) == (8, 2, 7)


class TestDecisions:
    def test_counters_and_ratios(self, clocked):
        clock, metrics = clocked
        metrics.add(accepted=60, degraded=10)
        metrics.add("host", rerun=30, rerun_stages=30)
        clock.now = 2.0
        snap = metrics.snapshot()
        assert snap.completed == 100
        assert snap.rerun_ratio == pytest.approx(0.3)
        assert snap.degraded_ratio == pytest.approx(0.1)
        assert snap.images_per_second == pytest.approx(50.0)
        assert snap.seconds_per_image == pytest.approx(0.02)

    def test_empty_snapshot_is_well_defined(self, clocked):
        _, metrics = clocked
        snap = metrics.snapshot()
        assert snap.completed == 0
        assert snap.rerun_ratio == 0.0
        assert snap.images_per_second == 0.0
        assert snap.seconds_per_image == float("inf")

    def test_threshold_trajectory_records_every_update(self, clocked):
        _, metrics = clocked
        for t in (0.9, 0.8, 0.7):
            metrics.set_threshold(t)
        snap = metrics.snapshot()
        assert snap.threshold == 0.7
        assert snap.threshold_trajectory == (0.9, 0.8, 0.7)

    def test_threshold_trajectory_is_bounded(self, clocked, monkeypatch):
        """An adaptive controller records once per BNN batch forever and
        every snapshot copies the trajectory: it keeps the last `limit`."""
        from repro.serve import metrics as metrics_module

        limit, extra = 16, 5
        monkeypatch.setattr(metrics_module, "TRAJECTORY_BUFFER_LIMIT", limit)
        metrics = ServerMetrics()
        values = [i / 100 for i in range(limit + extra)]
        for t in values:
            metrics.set_threshold(t)
        snap = metrics.snapshot()
        assert snap.threshold_trajectory == tuple(values[-limit:])
        assert snap.threshold == values[-1]

    def test_since_windows_counters_and_wall_clock(self, clocked):
        clock, metrics = clocked
        metrics.add("host", accepted=50, rerun=50, rerun_stages=50)
        clock.now = 1.0
        earlier = metrics.snapshot()
        metrics.add("host", accepted=90, rerun=10, rerun_stages=10)
        clock.now = 2.0
        window = metrics.snapshot().since(earlier)
        assert window.completed == 100
        assert window.rerun_ratio == pytest.approx(0.1)
        assert window.wall_seconds == pytest.approx(1.0)
        assert window.images_per_second == pytest.approx(100.0)


class TestRobustnessCounters:
    def test_fault_retry_deadline_failure_counters(self, clocked):
        _, metrics = clocked
        metrics.add(submitted=10)
        metrics.add("host", faults=1)
        metrics.add("host", faults=1)
        metrics.add("bnn", faults=1)
        metrics.add(retries=3)
        metrics.add(deadline_missed=2)
        metrics.add(failed=1)
        metrics.add("host", accepted=5, rerun=2, rerun_stages=2, degraded=2)
        snap = metrics.snapshot()
        assert snap.submitted == 10
        assert snap.faults == {"host": 2, "bnn": 1}
        assert snap.fault_total == 3
        assert snap.retries == 3
        assert snap.deadline_missed == 2
        assert snap.failed == 1
        assert snap.completed == 9
        assert snap.terminal == 10
        assert snap.in_flight == 0
        assert snap.answered == 9
        assert snap.check() == [] and metrics.check() == []

    def test_cache_hits_balance_the_books(self, clocked):
        # accepted + rerun + degraded + cache_hits + failed == submitted:
        # a cache-served answer is a terminal state of its own, counted
        # toward completed but never toward the stage decisions.
        _, metrics = clocked
        metrics.add(submitted=10)
        metrics.add("host", accepted=4, rerun=2, rerun_stages=2, degraded=1)
        metrics.add(cache_hits=2)
        metrics.add(failed=1)
        metrics.set(cache_bytes=4096)
        snap = metrics.snapshot()
        assert snap.cache_hits == 2
        assert snap.cache_bytes == 4096
        assert snap.completed == 9          # 4 + 2 + 1 + 2
        assert snap.terminal == 10
        assert (
            snap.accepted + snap.rerun + snap.degraded + snap.cache_hits
            + snap.failed
            == snap.submitted
        )

    def test_cache_hits_window_delta(self, clocked):
        clock, metrics = clocked
        metrics.add(submitted=4, cache_hits=3)
        metrics.set(cache_bytes=100)
        clock.now = 1.0
        earlier = metrics.snapshot()
        metrics.add(submitted=2, cache_hits=1)
        metrics.set(cache_bytes=250)
        clock.now = 2.0
        window = metrics.snapshot().since(earlier)
        assert window.cache_hits == 1
        assert window.cache_bytes == 250    # a gauge, not a delta
        assert window.completed == 1

    def test_breaker_state_integrates_open_time(self, clocked):
        clock, metrics = clocked
        metrics.set_breaker_state("open")
        clock.now = 2.0
        metrics.set_breaker_state("half_open")
        clock.now = 3.0
        metrics.set_breaker_state("closed")
        snap = metrics.snapshot()
        assert snap.breaker_state == "closed"
        assert snap.breaker_trips == 1
        # open (2 s) + half_open (1 s) both count as degraded-mode time.
        assert snap.breaker_open_seconds == pytest.approx(3.0)

    def test_breaker_open_time_accrues_while_still_open(self, clocked):
        clock, metrics = clocked
        metrics.set_breaker_state("open")
        clock.now = 1.5
        snap = metrics.snapshot()
        assert snap.breaker_state == "open"
        assert snap.breaker_open_seconds == pytest.approx(1.5)

    def test_since_windows_robustness_counters(self, clocked):
        clock, metrics = clocked
        metrics.add(submitted=5)
        metrics.add("host", faults=1)
        metrics.add(retries=1)
        clock.now = 1.0
        earlier = metrics.snapshot()
        metrics.add(submitted=7)
        metrics.add("host", faults=1)
        metrics.add("dmu", faults=1)
        metrics.add(retries=2)
        metrics.add(deadline_missed=1)
        metrics.add(failed=1)
        window = metrics.snapshot().since(earlier)
        assert window.submitted == 7
        assert window.faults == {"host": 1, "dmu": 1}
        assert window.retries == 2
        assert window.deadline_missed == 1
        assert window.failed == 1


class TestEq1Bridge:
    """A served window against Eq. (1) through the one comparator."""

    def _snapshot(self, completed_rerun: tuple[int, int], wall: float) -> MetricsSnapshot:
        accepted = completed_rerun[0] - completed_rerun[1]
        return MetricsSnapshot(
            stages={}, queues={}, completed=completed_rerun[0],
            accepted=accepted, rerun=completed_rerun[1], degraded=0,
            threshold=0.8, threshold_trajectory=(), wall_seconds=wall,
        )

    @staticmethod
    def _eq1(snap, ratio, t_fp, t_bnn, num_host_workers=1) -> dict:
        return ladder_eq1_residual(
            snap.seconds_per_image, [t_bnn, t_fp], [ratio],
            stage_names=["bnn", "host"], num_host_workers=num_host_workers,
        )

    def test_host_bound_window(self):
        # 1000 images in 4 s at 30% rerun, t_fp = 10 ms: Eq. (1) says
        # 3 ms/img, so the measured 4 ms/img is 33% above the bound.
        snap = self._snapshot((1000, 300), wall=4.0)
        eq1 = self._eq1(snap, snap.rerun_ratio, t_fp=0.010, t_bnn=0.001)
        assert eq1["predicted_seconds_per_image"] == pytest.approx(0.003)
        assert eq1["measured_seconds_per_image"] == pytest.approx(0.004)
        assert eq1["relative_residual"] == pytest.approx(1 / 3)
        assert eq1["bottleneck_stage"] == "host"

    def test_host_pool_scales_the_bound(self):
        snap = self._snapshot((1000, 300), wall=4.0)
        one = self._eq1(snap, snap.rerun_ratio, t_fp=0.010, t_bnn=0.0001)
        two = self._eq1(snap, snap.rerun_ratio, t_fp=0.010, t_bnn=0.0001, num_host_workers=2)
        assert two["predicted_seconds_per_image"] == pytest.approx(
            one["predicted_seconds_per_image"] / 2
        )
        assert two["stages"][-1]["t_image"] == pytest.approx(0.005)
        with pytest.raises(ValueError, match="num_host_workers"):
            self._eq1(snap, snap.rerun_ratio, 0.010, 0.0001, num_host_workers=0)

    def test_ratio_is_completions_based_not_arrivals_based(self):
        """``rerun / completed`` and the per-hop ``forwarded / arrived`` differ.

        A window with degraded requests makes the two definitions differ:
        600 of 1000 arrivals were forwarded but only 300 came back from
        the host (the rest degraded on the way).  Eq. (1) at the
        completions ratio is 0.3 / 3 ms; at the per-hop forward ratio the
        same comparator reads 0.6 / 6 ms.
        """
        from dataclasses import replace

        snap = MetricsSnapshot(
            stages={}, queues={}, completed=1000, accepted=400, rerun=300,
            degraded=300, threshold=0.8, threshold_trajectory=(), wall_seconds=8.0,
            stage_arrived={"bnn": 1000, "host": 300}, stage_forwarded={"bnn": 600},
        )
        assert snap.rerun_ratio == 0.3 and snap.ladder_forward_ratios["bnn"] == 0.6
        eq1 = self._eq1(snap, snap.rerun_ratio, t_fp=0.010, t_bnn=0.001)
        assert eq1["predicted_seconds_per_image"] == pytest.approx(0.003)
        hops = self._eq1(snap, snap.ladder_forward_ratios["bnn"], t_fp=0.010, t_bnn=0.001)
        assert hops["predicted_seconds_per_image"] == pytest.approx(0.006)
        # Same window, same arithmetic: where the two ratios agree, so do they.
        calm = replace(
            self._snapshot((1000, 300), wall=4.0),
            stage_arrived={"bnn": 1000}, stage_forwarded={"bnn": 300},
        )
        assert self._eq1(calm, calm.rerun_ratio, 0.010, 0.001) == self._eq1(
            calm, calm.ladder_forward_ratios["bnn"], 0.010, 0.001
        )

    def test_bnn_bound_window(self):
        snap = self._snapshot((1000, 0), wall=1.5)
        eq1 = self._eq1(snap, snap.rerun_ratio, t_fp=0.010, t_bnn=0.001)
        assert eq1["predicted_seconds_per_image"] == pytest.approx(0.001)
        assert 1 / eq1["measured_seconds_per_image"] == pytest.approx(1000 / 1.5)
        assert eq1["bottleneck_stage"] == "bnn"
