"""QuantizedEngine: reference equivalence, determinism, calibration hygiene.

Tolerances mirror the documented expectations in
``repro/nn/quantized.py``: thresholds were calibrated from measured
agreement on random-weight Models A/B/C at scale 0.25 (8-bit max rel
err ~2e-2, 4-bit ~0.3 with >= 92% argmax agreement), with headroom so
seed drift does not flake the suite.
"""

import numpy as np
import pytest

from repro.models.host_models import build_model_a, build_model_b, build_model_c
from repro.nn import SUPPORTED_BITS, Dense, Flatten, QuantizedEngine, Sequential

BUILDERS = {"a": build_model_a, "b": build_model_b, "c": build_model_c}


def make_net(model: str, scale: float = 0.25, seed: int = 0):
    net = BUILDERS[model](scale=scale, rng=np.random.default_rng(seed))
    net.eval_mode()
    return net


def make_images(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32))


def make_quantized(net, bits: int, micro_batch: int = 16):
    return net.compile_quantized(
        bits=bits, calibration_images=make_images(32, seed=7),
        micro_batch=micro_batch,
    )


class TestReferenceEquivalence:
    """Scores against the float64 engine, per documented bit-width tier."""

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_8bit_close_to_f64_reference(self, model):
        net = make_net(model)
        x = make_images(64)
        ref = net.compile_inference(dtype=np.float64).predict_scores(x)
        got = make_quantized(net, bits=8).predict_scores(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 5e-2
        agree = (got.argmax(axis=1) == ref.argmax(axis=1)).mean()
        assert agree >= 0.99

    # Measured random-weight floors (3 image seeds): a/b >= 0.99, c >= 0.82
    # (the deeper net compounds more per-layer quantization noise).
    FOUR_BIT_ARGMAX_FLOOR = {"a": 0.95, "b": 0.95, "c": 0.75}

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_4bit_preserves_argmax_rate(self, model):
        net = make_net(model)
        x = make_images(128)
        ref = net.compile_inference(dtype=np.float64).predict_scores(x)
        got = make_quantized(net, bits=4).predict_scores(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 0.5
        agree = (got.argmax(axis=1) == ref.argmax(axis=1)).mean()
        assert agree >= self.FOUR_BIT_ARGMAX_FLOOR[model]

    def test_2bit_runs_and_is_finite(self):
        """2-bit exists for routing tests; only shape/finiteness hold."""
        net = make_net("a")
        got = make_quantized(net, bits=2).predict_scores(make_images(16))
        assert got.shape == (16, 10)
        assert np.isfinite(got).all()

    def test_monotone_fidelity_across_bit_widths(self):
        """More bits must not be (much) worse: err(8) <= err(4) <= err(2)."""
        net = make_net("b")
        x = make_images(64)
        ref = net.compile_inference(dtype=np.float64).predict_scores(x)
        errs = {}
        for bits in SUPPORTED_BITS:
            got = make_quantized(net, bits=bits).predict_scores(x)
            errs[bits] = np.abs(got - ref).max() / np.abs(ref).max()
        assert errs[8] <= errs[4] <= errs[2]


class TestDeterminism:
    """Integer accumulation is exact: chunking must not change a bit."""

    @pytest.mark.parametrize("bits", sorted(SUPPORTED_BITS))
    def test_bit_identical_across_arbitrary_chunkings(self, bits):
        net = make_net("a")
        engine = make_quantized(net, bits=bits, micro_batch=16)
        x = make_images(41)  # deliberately not a multiple of micro_batch
        whole = engine.predict_scores(x)
        for cuts in ([41], [7, 34], [1, 16, 24], [13, 13, 13, 2]):
            parts, start = [], 0
            for size in cuts:
                parts.append(engine.predict_scores(x[start:start + size]))
                start += size
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_repeated_calls_do_not_leak_buffer_state(self):
        net = make_net("a")
        engine = make_quantized(net, bits=8)
        x = make_images(8)
        first = engine.predict_scores(x).copy()
        engine.predict_scores(make_images(8, seed=99))  # perturb the buffers
        np.testing.assert_array_equal(engine.predict_scores(x), first)

    def test_empty_batch(self):
        engine = make_quantized(make_net("a"), bits=8)
        scores = engine.predict_scores(make_images(0))
        assert scores.shape == (0, engine.predict_scores(make_images(1)).shape[1])


class TestCalibration:
    def test_uncalibrated_engine_refuses_to_predict(self):
        net = make_net("a")
        engine = QuantizedEngine(net, bits=8)  # no calibration images
        with pytest.raises(RuntimeError, match="calibrat"):
            engine.predict_scores(make_images(4))

    def test_calibrate_returns_self_and_freezes_scales(self):
        net = make_net("a")
        engine = QuantizedEngine(net, bits=8)
        assert engine.calibrate(make_images(16, seed=7)) is engine
        scales = engine.activation_scales()
        assert scales and all(s > 0 for s in scales.values())

    def test_recalibration_replaces_scales(self):
        net = make_net("a")
        engine = QuantizedEngine(net, bits=8)
        engine.calibrate(make_images(16, seed=7))
        small = engine.activation_scales()
        engine.calibrate(10.0 * make_images(16, seed=7))
        large = engine.activation_scales()
        # First GEMM sees the raw input, so its scale must track the 10x.
        first = min(small)
        assert large[first] > 5.0 * small[first]

    def test_calibration_images_constructor_path_matches_calibrate(self):
        net = make_net("a")
        cal = make_images(16, seed=7)
        x = make_images(8)
        via_ctor = QuantizedEngine(net, bits=8, calibration_images=cal)
        via_call = QuantizedEngine(net, bits=8).calibrate(cal)
        np.testing.assert_array_equal(
            via_ctor.predict_scores(x), via_call.predict_scores(x)
        )

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            QuantizedEngine(make_net("a"), bits=3)

    def test_flatten_dense_network_quantizes(self):
        """No-conv path: only dense GEMMs, straight off the pixels."""
        rng = np.random.default_rng(0)
        net = Sequential([Flatten(), Dense(3 * 8 * 8, 5, rng=rng)])
        net.eval_mode()
        data = np.random.default_rng(2)
        cal = data.normal(size=(16, 3, 8, 8))
        x = data.normal(size=(6, 3, 8, 8))
        ref = net.compile_inference(dtype=np.float64).predict_scores(x)
        got = net.compile_quantized(bits=8, calibration_images=cal).predict_scores(x)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 5e-2
