"""Heterogeneous pipeline simulator: timeline, devices, scheduler, Eq. (1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hetero import (
    FPGAExecutor,
    HostExecutor,
    Interval,
    Timeline,
    flagged_per_batch,
    simulate_cascade,
)
from repro.obs import ladder_eq1_residual


class TestTimeline:
    def test_record_and_query(self):
        tl = Timeline()
        tl.record("fpga", 0.0, 1.0, "b0")
        tl.record("host", 0.5, 2.0, "r0")
        assert tl.busy_seconds("fpga") == pytest.approx(1.0)
        assert tl.makespan() == pytest.approx(2.0)
        assert tl.utilization("fpga") == pytest.approx(0.5)

    def test_overlap(self):
        tl = Timeline()
        tl.record("a", 0.0, 2.0, "x")
        tl.record("b", 1.0, 3.0, "y")
        assert tl.overlap_seconds("a", "b") == pytest.approx(1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval("a", 1.0, 0.5, "bad")

    def test_empty(self):
        tl = Timeline()
        assert tl.makespan() == 0.0
        assert tl.utilization("a") == 0.0


class TestExecutors:
    def test_fpga_batch_time(self):
        fpga = FPGAExecutor(interval_seconds=0.002, fill_seconds=0.01)
        assert fpga.batch_seconds(100) == pytest.approx(0.01 + 0.2)

    def test_fpga_from_pipeline(self):
        from repro.finn import ZC702_CLOCK_HZ, balance_network, evaluate_pipeline, finn_cnv_specs

        perf = evaluate_pipeline(balance_network(finn_cnv_specs(), 232_000))
        fpga = FPGAExecutor.from_pipeline(perf)
        assert fpga.interval_seconds == pytest.approx(perf.seconds_per_image)
        assert fpga.fill_seconds >= 0

    def test_host_rerun_time(self):
        host = HostExecutor(seconds_per_image=0.03, dmu_seconds_per_image=1e-6)
        t = host.rerun_seconds(batch_size=100, num_flagged=25)
        assert t == pytest.approx(100e-6 + 25 * 0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            FPGAExecutor(interval_seconds=0.0)
        with pytest.raises(ValueError):
            HostExecutor(seconds_per_image=-1.0)
        host = HostExecutor(seconds_per_image=0.03)
        with pytest.raises(ValueError):
            host.rerun_seconds(10, 11)
        fpga = FPGAExecutor(interval_seconds=0.01)
        with pytest.raises(ValueError):
            fpga.batch_seconds(0)


class TestFlaggedPerBatch:
    def test_split(self):
        mask = np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool)
        assert flagged_per_batch(mask, 3) == [2, 1, 1]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            flagged_per_batch(np.zeros(4, dtype=bool), 0)


class TestSimulateCascade:
    def _components(self, t_fp=1 / 29.68, t_bnn=1 / 430.15):
        return (
            FPGAExecutor(interval_seconds=t_bnn, fill_seconds=5 * t_bnn),
            HostExecutor(seconds_per_image=t_fp, dmu_seconds_per_image=2e-7),
        )

    def test_argument_validation(self):
        fpga, host = self._components()
        with pytest.raises(ValueError):
            simulate_cascade(fpga, host, 0, 10, rerun_ratio=0.2)
        with pytest.raises(ValueError):
            simulate_cascade(fpga, host, 100, 10)  # neither mask nor ratio
        with pytest.raises(ValueError):
            simulate_cascade(fpga, host, 100, 10, rerun_ratio=0.2, rerun_mask=np.zeros(100, bool))
        with pytest.raises(ValueError):
            simulate_cascade(fpga, host, 100, 10, rerun_ratio=1.2)
        with pytest.raises(ValueError):
            simulate_cascade(fpga, host, 100, 10, rerun_mask=np.zeros(99, dtype=bool))

    def test_all_images_accounted(self):
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 105, 20, rerun_ratio=0.25)
        assert sum(b.size for b in result.batches) == 105
        assert len(result.batches) == 6  # 5 full + 1 remainder of 5

    def test_host_and_fpga_overlap(self):
        # The core claim of Fig. 2: host rerun of batch i-1 runs while the
        # FPGA processes batch i.
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 1000, 100, rerun_ratio=0.25)
        assert result.timeline.overlap_seconds("fpga", "host") > 0

    def test_zero_rerun_is_fpga_bound(self):
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 2000, 100, rerun_ratio=0.0)
        # Rate approaches the BNN rate (DMU scan cost is negligible).
        assert result.images_per_second == pytest.approx(430.15, rel=0.05)

    def test_full_rerun_is_host_bound(self):
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 300, 100, rerun_ratio=1.0)
        assert result.images_per_second == pytest.approx(29.68, rel=0.05)

    def test_paper_operating_point(self):
        # R_rerun = 25.1%: simulated throughput should be far above the
        # standalone host rate and below the BNN rate.
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 2000, 100, rerun_ratio=0.251)
        assert 29.68 * 2 < result.images_per_second < 430.15
        assert result.rerun_ratio == pytest.approx(0.251, abs=0.01)

    def test_rerun_mask_equivalent_to_ratio(self):
        fpga, host = self._components()
        mask = np.zeros(400, dtype=bool)
        mask[::4] = True  # exactly 25% per batch of 100
        by_mask = simulate_cascade(fpga, host, 400, 100, rerun_mask=mask)
        by_ratio = simulate_cascade(fpga, host, 400, 100, rerun_ratio=0.25)
        assert by_mask.total_seconds == pytest.approx(by_ratio.total_seconds)

    def test_monotone_in_rerun_ratio(self):
        fpga, host = self._components()
        times = [
            simulate_cascade(fpga, host, 1000, 100, rerun_ratio=r).total_seconds
            for r in (0.0, 0.2, 0.5, 1.0)
        ]
        assert times == sorted(times)

    def test_batch_size_insensitive_throughput(self):
        # Paper: "Changing batch size does not have a significant effect on
        # multi-precision features" — throughput varies little with batch.
        fpga, host = self._components()
        rates = [
            simulate_cascade(fpga, host, 2000, bs, rerun_ratio=0.251).images_per_second
            for bs in (50, 100, 200, 400)
        ]
        assert max(rates) / min(rates) < 1.15

    def test_latency_grows_with_batch_size(self):
        # Paper: "with higher batch sizes, the latency of an image to pass
        # through the multi-precision system increases".
        fpga, host = self._components()
        lat = [
            simulate_cascade(fpga, host, 2000, bs, rerun_ratio=0.251).average_batch_latency()
            for bs in (50, 100, 200, 400)
        ]
        assert lat == sorted(lat)

    def test_utilizations_bounded(self):
        fpga, host = self._components()
        result = simulate_cascade(fpga, host, 1000, 100, rerun_ratio=0.251)
        assert 0 < result.fpga_utilization() <= 1
        assert 0 < result.host_utilization() <= 1


class TestCompareWithEq1:
    def test_eq1_is_optimistic_but_close(self):
        t_fp, t_bnn = 1 / 29.68, 1 / 430.15
        fpga = FPGAExecutor(interval_seconds=t_bnn, fill_seconds=5 * t_bnn)
        host = HostExecutor(seconds_per_image=t_fp, dmu_seconds_per_image=2e-7)
        result = simulate_cascade(fpga, host, 5000, 100, rerun_ratio=0.251)
        eq1 = ladder_eq1_residual(
            result.seconds_per_image, [t_bnn, t_fp], [result.rerun_ratio]
        )
        # Eq. (1) ignores ramp-up and the trailing host call, so the
        # simulation is slightly slower but within a few percent.
        assert 0.0 <= eq1["relative_residual"] < 0.05
        assert eq1["measured_seconds_per_image"] > eq1["predicted_seconds_per_image"]
