"""Eqs. (1)-(2) closed forms and the functional cascade pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DecisionMakingUnit,
    MultiPrecisionPipeline,
    estimate,
    multi_precision_accuracy,
    multi_precision_interval,
    render_table,
    format_percent,
)


class TestEq1:
    def test_host_bound(self):
        # Paper: "in general the host re-inference latency is the bottleneck".
        t = multi_precision_interval(t_fp=1 / 29.68, t_bnn=1 / 430.15, r_rerun=0.251)
        assert t == pytest.approx(0.251 / 29.68)

    def test_fpga_bound_at_tiny_rerun(self):
        t = multi_precision_interval(t_fp=1 / 29.68, t_bnn=1 / 430.15, r_rerun=0.001)
        assert t == pytest.approx(1 / 430.15)

    def test_paper_headline_rate(self):
        # Model A & FINN: ~90.82 img/s at R_rerun ~= 25.1% and a host-side
        # rate slightly above the standalone 29.68 (paper reports the
        # host accuracy/rate improve on the subset).
        t = multi_precision_interval(1 / 29.68, 1 / 430.15, 0.251)
        assert 1 / t == pytest.approx(118.2, rel=0.01)
        # The paper's measured 90.82 is below this ideal Eq. (1) value —
        # the equation is explicitly an upper-bound approximation.
        assert 1 / t > 90.82

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            multi_precision_interval(0.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            multi_precision_interval(0.1, 0.1, 1.5)

    @given(
        t_fp=st.floats(1e-3, 1.0),
        t_bnn=st.floats(1e-5, 1e-2),
        r=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_bounds(self, t_fp, t_bnn, r):
        t = multi_precision_interval(t_fp, t_bnn, r)
        assert t >= t_bnn
        assert t >= t_fp * r
        assert t == pytest.approx(max(t_fp * r, t_bnn))


class TestEq2:
    def test_paper_table2_numbers(self):
        # Acc_bnn=78.5%, host subset acc drives the gain; with Table II's
        # R_rerun=25.1% and R_rerun_err=12.3%, a host at 65% subset accuracy:
        acc = multi_precision_accuracy(0.785, 0.65, 0.251, 0.123)
        assert acc == pytest.approx(0.825, abs=0.01)  # paper: 82.5%

    def test_zero_rerun_is_bnn(self):
        assert multi_precision_accuracy(0.785, 0.9, 0.0, 0.0) == pytest.approx(0.785)

    def test_invalid(self):
        with pytest.raises(ValueError):
            multi_precision_accuracy(1.2, 0.5, 0.5, 0.1)

    @given(
        acc_bnn=st.floats(0, 1),
        acc_fp=st.floats(0, 1),
        r=st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_perfect_dmu_improves(self, acc_bnn, acc_fp, r):
        # With no DMU error, re-inference can only add accuracy.
        assert multi_precision_accuracy(acc_bnn, acc_fp, r, 0.0) >= acc_bnn


class TestEstimateAndGain:
    def test_bottleneck_labels(self):
        assert estimate(1 / 30, 1 / 430, 0.785, 0.65, 0.25, 0.12).bottleneck == "host"
        assert estimate(1 / 30, 1 / 430, 0.785, 0.65, 0.001, 0.0).bottleneck == "fpga"


class _ConstantBNN:
    """Fake FoldedBNN: fixed scores per image."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)
        self.num_classes = self.scores.shape[1]

    def class_scores(self, images, batch_size=128):
        return self.scores[: images.shape[0]]


class _ConstantHost:
    """Fake host network answering a fixed class."""

    def __init__(self, answer):
        self.answer = answer
        self.seen = 0

    def predict_classes(self, images, batch_size=128):
        self.seen += images.shape[0]
        return np.full(images.shape[0], self.answer, dtype=np.int64)


class TestPipeline:
    def _dmu(self):
        # Confidence = sigmoid(10 * score[0]) on raw (unsorted) scores:
        # images with score[0] >= 0 accepted at threshold 0.5.
        w = np.zeros(3)
        w[0] = 10.0
        return DecisionMakingUnit(w, 0.0, threshold=0.5, sort_inputs=False)

    def test_cascade_routing(self):
        scores = np.array(
            [
                [5.0, 0.0, 1.0],   # confident -> class 0 accepted
                [-5.0, 2.0, 0.0],  # unconfident -> host answers 2
                [3.0, 4.0, 0.0],   # confident -> class 1 accepted
            ]
        )
        pipe = MultiPrecisionPipeline(_ConstantBNN(scores), self._dmu(), _ConstantHost(2))
        result = pipe.classify(np.zeros((3, 3, 4, 4)))
        np.testing.assert_array_equal(result.predictions, [0, 2, 1])
        np.testing.assert_array_equal(result.rerun_mask, [False, True, False])
        assert result.rerun_ratio == pytest.approx(1 / 3)

    def test_no_reruns(self):
        scores = np.array([[5.0, 0.0, 0.0]] * 4)
        host = _ConstantHost(1)
        pipe = MultiPrecisionPipeline(_ConstantBNN(scores), self._dmu(), host)
        result = pipe.classify(np.zeros((4, 3, 4, 4)))
        assert host.seen == 0
        assert result.rerun_ratio == 0.0
        np.testing.assert_array_equal(result.predictions, result.bnn_predictions)

    def test_accuracy_metrics(self):
        scores = np.array(
            [
                [5.0, 0.0, 0.0],
                [-5.0, 2.0, 0.0],
                [-5.0, 0.0, 2.0],
            ]
        )
        pipe = MultiPrecisionPipeline(_ConstantBNN(scores), self._dmu(), _ConstantHost(2))
        result = pipe.classify(np.zeros((3, 3, 4, 4)))
        labels = np.array([0, 2, 2])
        assert result.accuracy(labels) == pytest.approx(1.0)
        assert result.bnn_accuracy(labels) == pytest.approx(2 / 3)
        assert result.host_subset_accuracy(labels) == pytest.approx(1.0)

    def test_host_subset_accuracy_nan_when_no_reruns(self):
        scores = np.array([[5.0, 0.0, 0.0]])
        pipe = MultiPrecisionPipeline(_ConstantBNN(scores), self._dmu(), _ConstantHost(0))
        result = pipe.classify(np.zeros((1, 3, 4, 4)))
        assert np.isnan(result.host_subset_accuracy(np.array([0])))

    def test_threshold_override(self):
        scores = np.array([[1.0, 0.0, 0.0]])  # conf = sigmoid(10) ~ 1
        pipe = MultiPrecisionPipeline(
            _ConstantBNN(scores), self._dmu(), _ConstantHost(1), threshold=1.0
        )
        result = pipe.classify(np.zeros((1, 3, 4, 4)))
        assert result.rerun_mask.all()  # threshold 1.0 reruns everything

    def test_input_validation(self):
        pipe = MultiPrecisionPipeline(_ConstantBNN(np.zeros((1, 3))), self._dmu(), _ConstantHost(0))
        with pytest.raises(ValueError):
            pipe.classify(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError):
            pipe.classify(np.zeros((1, 3, 4, 4)), bnn_images=np.zeros((2, 3, 4, 4)))
        with pytest.raises(ValueError):
            MultiPrecisionPipeline(_ConstantBNN(np.zeros((1, 3))), self._dmu(), _ConstantHost(0), threshold=2.0)


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_format_percent(self):
        assert format_percent(0.825) == "82.5%"
