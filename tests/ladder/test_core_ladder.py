"""PrecisionLadder core: validation, routing, partition invariant, Eq. (1N).

The hypothesis property at the bottom is the batch-level form of the
serving-books invariant: for ANY scores and ANY threshold setting, the
per-stage answer sets partition the input batch exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DecisionMakingUnit,
    LadderResult,
    LadderStage,
    PrecisionLadder,
    ladder_accuracy,
    ladder_interval,
    ladder_reach_fractions,
    multi_precision_interval,
)
from repro.obs import ladder_eq1_residual

NUM_CLASSES = 10


def margin_dmu(hop: int, threshold: float = 0.5) -> DecisionMakingUnit:
    """Confidence from the margin at sorted positions (2*hop, 2*hop+1)."""
    weights = np.zeros(NUM_CLASSES)
    weights[2 * hop], weights[2 * hop + 1] = 4.0, -4.0
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def score_images(n: int, seed: int = 0) -> np.ndarray:
    """(n, 10, 1, 1) images that ARE score vectors (oracle engines)."""
    return np.random.default_rng(seed).normal(size=(n, NUM_CLASSES, 1, 1))


def identity_engine(images: np.ndarray) -> np.ndarray:
    return np.asarray(images).reshape(len(images), NUM_CLASSES)


def make_ladder(thresholds) -> PrecisionLadder:
    """len(thresholds)+1 rungs: each hop reads its own sorted-margin pair."""
    stages = [
        LadderStage(name=f"s{i}", scores_fn=identity_engine, dmu=margin_dmu(i, thr))
        for i, thr in enumerate(thresholds)
    ]
    stages.append(LadderStage(name="final", scores_fn=identity_engine))
    return PrecisionLadder(stages)


class TestValidation:
    def test_needs_two_stages(self):
        with pytest.raises(ValueError, match="at least 2"):
            PrecisionLadder([LadderStage("only", identity_engine)])

    def test_unique_names(self):
        stages = [
            LadderStage("x", identity_engine, dmu=margin_dmu(0)),
            LadderStage("x", identity_engine),
        ]
        with pytest.raises(ValueError, match="unique"):
            PrecisionLadder(stages)

    def test_middle_stage_needs_dmu(self):
        stages = [
            LadderStage("a", identity_engine),  # no DMU but forwards
            LadderStage("b", identity_engine),
        ]
        with pytest.raises(ValueError, match="needs a DMU"):
            PrecisionLadder(stages)

    def test_stage_field_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            LadderStage("", identity_engine)
        with pytest.raises(ValueError, match="threshold"):
            LadderStage("a", identity_engine, threshold=1.5)

    def test_effective_threshold_prefers_override(self):
        stage = LadderStage(
            "a", identity_engine, dmu=margin_dmu(0, 0.7), threshold=0.4
        )
        assert stage.effective_threshold == 0.4
        stage = LadderStage("a", identity_engine, dmu=margin_dmu(0, 0.7))
        assert stage.effective_threshold == 0.7


class TestClassify:
    def test_three_stage_partition_and_counts(self):
        ladder = make_ladder([0.6, 0.6])
        result = ladder.classify(score_images(400))
        result.check_partition()
        assert result.num_stages == 3
        assert result.stage_names == ("s0", "s1", "final")
        # Every rung answers someone at these thresholds on normal scores.
        assert (result.answered > 0).all()
        assert int(result.arrived[0]) == 400
        # Traffic conservation per hop: forwarded from i == arrived at i+1.
        np.testing.assert_array_equal(result.forwarded[:-1], result.arrived[1:])

    def test_measured_ratios_consistent(self):
        # 0.5 would accept everything (sorted margins are non-negative, so
        # sigmoid confidence >= 0.5 always); 0.6 forwards a real residue.
        ladder = make_ladder([0.6, 0.6])
        result = ladder.classify(score_images(300, seed=3))
        reach = result.reach_fractions
        assert reach[0] == 1.0
        for i, ratio in enumerate(result.forward_ratios):
            arrived = int(result.arrived[i])
            assert arrived > 0
            assert ratio == pytest.approx(int(result.forwarded[i]) / arrived)
        # Reach telescopes: R_{i+1} = R_i * r_i.
        for i in range(len(result.forward_ratios)):
            assert reach[i + 1] == pytest.approx(reach[i] * result.forward_ratios[i])

    def test_two_stage_matches_dmu_categorize(self):
        """N=2 ladder routes exactly like the paper's accept/flag split."""
        dmu = margin_dmu(0, 0.6)
        ladder = PrecisionLadder(
            [
                LadderStage("bnn", identity_engine, dmu=dmu),
                LadderStage("host", identity_engine),
            ]
        )
        images = score_images(200, seed=5)
        result = ladder.classify(images)
        scores = identity_engine(images)
        accept = dmu.accept(scores)
        np.testing.assert_array_equal(result.stage_of == 0, accept)
        assert result.rerun_ratio == pytest.approx(float((~accept).mean()))

    def test_stage_images_variants(self):
        """Per-rung input variants route by each rung's own view."""
        ladder = make_ladder([0.5])
        images = score_images(50, seed=8)
        doubled = 2.0 * images
        via_variants = ladder.classify(images, stage_images=[doubled, doubled])
        via_plain = ladder.classify(doubled)
        np.testing.assert_array_equal(via_variants.predictions, via_plain.predictions)
        np.testing.assert_array_equal(via_variants.stage_of, via_plain.stage_of)

    def test_extreme_thresholds(self):
        n = 64
        everything_up = make_ladder([1.0, 1.0]).classify(score_images(n, seed=2))
        assert int(everything_up.answered[-1]) == n
        nothing_up = make_ladder([0.0, 0.0]).classify(score_images(n, seed=2))
        assert int(nothing_up.answered[0]) == n

    def test_empty_batch(self):
        result = make_ladder([0.5]).classify(score_images(0))
        result.check_partition()
        assert result.predictions.shape == (0,)

    def test_accuracy_helpers(self):
        ladder = make_ladder([0.6])
        images = score_images(100, seed=9)
        labels = identity_engine(images).argmax(axis=1)
        result = ladder.classify(images)
        assert result.accuracy(labels) == 1.0  # oracle engines
        assert result.stage_accuracy(labels, 0) == 1.0

    def test_check_partition_rejects_corruption(self):
        result = make_ladder([0.5]).classify(score_images(20, seed=1))
        broken = LadderResult(
            predictions=result.predictions,
            stage_of=result.stage_of,
            stage_names=result.stage_names,
            arrived=result.arrived,
            forwarded=result.forwarded + np.array([1, 0]),
            confidences=result.confidences,
        )
        with pytest.raises(ValueError, match="partition|forward"):
            broken.check_partition()


class TestEq1NPrediction:
    def test_predicted_interval_uses_stage_times(self):
        """The ladder's measured ratios, priced by the one comparator."""
        ladder = make_ladder([0.5, 0.5])
        times = [0.001, 0.004, 0.02]
        ratios = ladder.classify(score_images(200, seed=3)).forward_ratios
        eq1n = ladder_eq1_residual(0.01, times, ratios, stage_names=ladder.stage_names)
        assert eq1n["predicted_seconds_per_image"] == ladder_interval(times, ratios)
        busy = [t * w for t, w in zip(times, ladder_reach_fractions(ratios))]
        assert eq1n["bottleneck_stage"] == ladder.stage_names[busy.index(max(busy))]
        assert [s["reach_fraction"] for s in eq1n["stages"]] == (
            ladder_reach_fractions(ratios)
        )

    def test_two_stage_reduction_to_eq1(self):
        """Eq. (1N) at N=2 is exactly the paper's Eq. (1)."""
        t_bnn, t_fp, r = 0.00025, 0.008, 0.3
        assert ladder_interval([t_bnn, t_fp], [r]) == pytest.approx(
            multi_precision_interval(t_fp, t_bnn, r)
        )

    @given(
        t_fp=st.floats(1e-9, 1e3),
        t_bnn=st.floats(1e-9, 1e3),
        r=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_eq1_is_evaluated_by_eq1n_bit_for_bit(self, t_fp, t_bnn, r):
        """``==``, not ``approx``: Eq. (1) *is* the N = 2 call of Eq. (1N),
        and the call agrees with the paper's formula as written — to the
        last bit, because ``t * 1.0`` and ``1.0 * r`` are exact."""
        assert multi_precision_interval(t_fp, t_bnn, r) == ladder_interval(
            [t_bnn, t_fp], [r]
        )
        assert multi_precision_interval(t_fp, t_bnn, r) == max(t_fp * r, t_bnn)

    def test_bottleneck_checks_lengths_before_it_multiplies(self):
        # One ratio too many, and an out-of-range one at that: the length
        # mismatch is the error reported, not the ratio the extra hop holds.
        for predict in (ladder_interval, lambda t, r: ladder_eq1_residual(0.01, t, r)):
            with pytest.raises(ValueError, match="forward ratios"):
                predict([0.001, 0.02], [0.3, 7.0])
            with pytest.raises(ValueError, match="forward ratios"):
                predict([0.001, 0.004, 0.02], [0.3])
            with pytest.raises(ValueError, match="at least 2"):
                predict([0.001], [])

    @given(
        times=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
        ratios=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_comparator_is_eq1n_with_the_host_pool_dividing_the_last_stage(
        self, times, ratios, workers
    ):
        ratios = ratios[: len(times) - 1]
        pooled = times[:-1] + [times[-1] / workers]
        predicted = ladder_eq1_residual(
            0.01, times, ratios, num_host_workers=workers
        )["predicted_seconds_per_image"]
        assert predicted == ladder_interval(pooled, ratios)
        assert predicted == ladder_interval(times, ratios, num_host_workers=workers)
        if len(times) == 2 and workers == 1:
            assert predicted == multi_precision_interval(times[1], times[0], ratios[0])

    def test_ladder_accuracy_telescopes(self):
        # 2-stage sanity: Acc = a0 + a1*r - err.
        assert ladder_accuracy(
            [0.8, 0.9], [0.25], err_fractions=[0.02]
        ) == pytest.approx(0.8 + 0.9 * 0.25 - 0.02)


class TestRoutingPartitionProperty:
    """For ANY scores and ANY thresholds, the routing partitions the batch."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 80),
        thresholds=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_reconstructs_the_batch(self, seed, n, thresholds):
        ladder = make_ladder(thresholds)
        result = ladder.classify(score_images(n, seed=seed))
        result.check_partition()  # no drop, no duplicate, final rung absorbs
        # Reconstruction: stage_of assigns every image to exactly one rung
        # whose per-stage counts re-sum to the batch.
        assert result.stage_of.min(initial=0) >= 0
        counts = np.bincount(result.stage_of, minlength=result.num_stages)
        assert int(counts.sum()) == n
        np.testing.assert_array_equal(counts, result.answered)
        # Every answer came from that rung's argmax over its own scores.
        assert (result.predictions >= 0).all() if n else True
