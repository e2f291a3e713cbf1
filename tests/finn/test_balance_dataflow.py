"""Rate balancer and streaming-dataflow performance model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.finn import (
    ZC702_CLOCK_HZ,
    balance_layer,
    balance_network,
    evaluate_pipeline,
    finn_cnv_specs,
    sweep_targets,
)


class TestBalanceLayer:
    def test_meets_target_when_feasible(self):
        spec = finn_cnv_specs()[1]
        engine = balance_layer(spec, target_cycles=250_000)
        assert engine.cycles_per_image <= 250_000

    def test_minimizes_compute_cost(self):
        # A looser target must never cost more P*S than a tighter one.
        spec = finn_cnv_specs()[1]
        loose = balance_layer(spec, target_cycles=1_000_000)
        tight = balance_layer(spec, target_cycles=100_000)
        assert loose.pe * loose.simd <= tight.pe * tight.simd

    def test_infeasible_target_returns_fastest(self):
        spec = finn_cnv_specs()[1]  # conv2: 28.9M ops
        engine = balance_layer(spec, target_cycles=1, max_pe=4, max_simd=4)
        # fastest legal folding at caps: P=4, S=4
        assert engine.pe == 4 and engine.simd == 4

    def test_trivial_layer_uses_minimal_folding(self):
        spec = finn_cnv_specs()[-1]  # fc3: 4096 ops
        engine = balance_layer(spec, target_cycles=10_000)
        assert engine.pe == 1 and engine.simd == 1

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            balance_layer(finn_cnv_specs()[0], target_cycles=0)

    @given(st.sampled_from([50_000, 100_000, 250_000, 500_000, 1_000_000]))
    @settings(max_examples=10, deadline=None)
    def test_property_all_layers_meet_feasible_targets(self, target):
        for spec in finn_cnv_specs():
            engine = balance_layer(spec, target)
            # CNV layers are all balanceable to >= 50k cycles at S<=16.
            assert engine.cycles_per_image <= target


class TestBalanceNetwork:
    def test_bottleneck_definition(self):
        result = balance_network(finn_cnv_specs(), target_cycles=232_000)
        assert result.bottleneck_cycles == max(e.cycles_per_image for e in result.engines)
        assert result.bottleneck.cycles_per_image == result.bottleneck_cycles

    def test_total_pe_counts_only_pes(self):
        result = balance_network(finn_cnv_specs(), target_cycles=232_000)
        assert result.total_pe == sum(e.pe for e in result.engines)

    def test_fps_is_eq5_on_bottleneck(self):
        result = balance_network(finn_cnv_specs(), target_cycles=232_000)
        assert result.fps(ZC702_CLOCK_HZ) == pytest.approx(
            ZC702_CLOCK_HZ / result.bottleneck_cycles
        )

    def test_paper_anchor_430fps_config(self):
        # The paper's chosen configuration reaches ~430 img/s around 32
        # total PEs; the balancer should land in that neighbourhood.
        target_cycles = int(ZC702_CLOCK_HZ / 430)
        result = balance_network(finn_cnv_specs(), target_cycles)
        fps = result.fps(ZC702_CLOCK_HZ)
        assert 400 <= fps <= 700
        assert 20 <= result.total_pe <= 45

    def test_tighter_target_more_pes(self):
        specs = finn_cnv_specs()
        slow = balance_network(specs, target_cycles=1_000_000)
        fast = balance_network(specs, target_cycles=50_000)
        assert fast.total_pe > slow.total_pe
        assert fast.bottleneck_cycles < slow.bottleneck_cycles


class TestSweep:
    def test_deduplicates(self):
        results = sweep_targets(finn_cnv_specs(), [100, 100, 101], ZC702_CLOCK_HZ)
        assert len(results) == 1

    def test_monotone_throughput(self):
        results = sweep_targets(
            finn_cnv_specs(), [100, 430, 1200, 3000], ZC702_CLOCK_HZ
        )
        fps = [r.fps(ZC702_CLOCK_HZ) for r in results]
        assert fps == sorted(fps)

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            sweep_targets(finn_cnv_specs(), [0], ZC702_CLOCK_HZ)


class TestPipelinePerformance:
    def _result(self, fps=430):
        return balance_network(finn_cnv_specs(), int(ZC702_CLOCK_HZ / fps))

    def test_obtained_below_expected(self):
        perf = evaluate_pipeline(self._result())
        assert perf.obtained_fps < perf.expected_fps
        assert perf.obtained_fps > 0.9 * perf.expected_fps  # small gap at low PE

    def test_gap_grows_with_parallelism(self):
        slow = evaluate_pipeline(self._result(fps=100))
        fast = evaluate_pipeline(self._result(fps=3000))
        gap_slow = 1 - slow.obtained_fps / slow.expected_fps
        gap_fast = 1 - fast.obtained_fps / fast.expected_fps
        assert gap_fast >= gap_slow

    def test_partitioning_slows_low_pe_configs(self):
        result = self._result(fps=200)  # low-PE configuration
        plain = evaluate_pipeline(result, partitioned=False)
        part = evaluate_pipeline(result, partitioned=True)
        assert part.obtained_fps < plain.obtained_fps

    def test_partitioning_retains_high_pe_performance(self):
        result = self._result(fps=3000)
        plain = evaluate_pipeline(result, partitioned=False)
        part = evaluate_pipeline(result, partitioned=True)
        assert part.obtained_fps == pytest.approx(plain.obtained_fps)

    def test_latency_exceeds_interval(self):
        perf = evaluate_pipeline(self._result())
        assert perf.latency_cycles > perf.interval_cycles

    def test_seconds_per_image(self):
        perf = evaluate_pipeline(self._result())
        assert perf.seconds_per_image == pytest.approx(1.0 / perf.obtained_fps)
