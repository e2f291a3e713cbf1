"""InferenceEngine fast path: equivalence, determinism, eval-mode hygiene."""

import numpy as np
import pytest

from repro.models.host_models import build_model_a, build_model_b, build_model_c
from repro.nn import Conv2D, Dense, Dropout, Flatten, InferenceEngine, ReLU, Sequential

BUILDERS = {"a": build_model_a, "b": build_model_b, "c": build_model_c}


def make_net(model: str, scale: float = 0.25, seed: int = 0):
    net = BUILDERS[model](scale=scale, rng=np.random.default_rng(seed))
    net.eval_mode()
    return net


def make_images(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32))


class TestEquivalence:
    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_f64_engine_matches_legacy_forward(self, model):
        net = make_net(model)
        x = make_images(9)
        expected = net.predict(x)
        got = net.compile_inference(dtype=np.float64).predict_scores(x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_f32_engine_preserves_argmax(self, model):
        net = make_net(model)
        x = make_images(17)
        legacy = net.predict(x)
        scores = net.compile_inference().predict_scores(x)
        assert scores.dtype == np.float32
        np.testing.assert_array_equal(scores.argmax(axis=1), legacy.argmax(axis=1))
        np.testing.assert_array_equal(
            net.compile_inference().predict_classes(x), legacy.argmax(axis=1)
        )

    def test_repeated_calls_are_deterministic(self):
        """Buffer reuse must not leak state between calls."""
        net = make_net("a")
        engine = net.compile_inference()
        x = make_images(8)
        first = engine.predict_scores(x).copy()
        engine.predict_scores(make_images(8, seed=99))  # perturb the buffers
        np.testing.assert_array_equal(engine.predict_scores(x), first)

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_micro_batch_boundary_shards_are_bit_identical(self, model):
        """The determinism contract behind parallel sharding (Eq. 1 lever)."""
        net = make_net(model)
        engine = net.compile_inference(micro_batch=16)
        x = make_images(48)
        whole = engine.predict_scores(x)
        parts = np.concatenate(
            [engine.predict_scores(x[0:16]), engine.predict_scores(x[16:48])]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("engine_kind", ["float", "quantized"])
    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_one_buffer_set_for_every_batch_size(self, model, engine_kind):
        """The host worker hands the engine every batch size 1…micro_batch:
        scratch must stop growing after the first call, whatever the order,
        and the scores must be those of an engine whose buffers are exactly
        that batch's size (the arrangement a per-size buffer set had)."""
        from repro.nn.quantized import QuantizedEngine

        def compile_engine(micro_batch):
            if engine_kind == "quantized":
                # One calibration image: the same float GEMM shapes, hence
                # the same activation scales, at every micro_batch.
                return QuantizedEngine(
                    net, calibration_images=x[:1], micro_batch=micro_batch
                )
            return net.compile_inference(micro_batch=micro_batch)

        def buffer_set(engine):
            return len(engine.buffers), sum(buf.nbytes for buf in engine.buffers)

        micro_batch = 8
        net = make_net(model)
        x = make_images(micro_batch)
        sizes = list(range(1, micro_batch + 1))
        np.random.default_rng(0).shuffle(sizes)
        engine = compile_engine(micro_batch)
        engine.predict_scores(x[: sizes[0]])
        first = buffer_set(engine)
        assert first[1] > 0
        for n in sizes[1:]:
            got = engine.predict_scores(x[:n])
            assert buffer_set(engine) == first, n
            np.testing.assert_array_equal(got, compile_engine(n).predict_scores(x[:n]))
        single_size = compile_engine(micro_batch)
        single_size.predict_scores(x)
        assert buffer_set(single_size) == first

    def test_empty_batch(self):
        net = make_net("a")
        engine = net.compile_inference()
        scores = engine.predict_scores(make_images(0))
        assert scores.shape == (0, engine.predict_scores(make_images(1)).shape[1])
        assert scores.dtype == engine.dtype

    def test_unsupported_layer_raises(self):
        class Exotic(Sequential):
            pass

        net = Sequential([Dense(4, 2)])
        net.layers.append(object())  # not a Layer the engine knows
        with pytest.raises(ValueError):
            InferenceEngine(net)


class TestEvalModeHygiene:
    """PR satellites: eval mode must not pay training-only costs."""

    def test_dropout_eval_draws_no_rng(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))

        class Tripwire:
            def random(self, *a, **k):  # pragma: no cover - should not run
                raise AssertionError("Dropout drew RNG numbers in eval mode")

            def uniform(self, *a, **k):  # pragma: no cover
                raise AssertionError("Dropout drew RNG numbers in eval mode")

        layer.rng = Tripwire()
        layer.eval_mode()
        x = np.ones((4, 3))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_conv2d_eval_retains_no_backward_buffers(self):
        conv = Conv2D(3, 4, kernel_size=3, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        conv.train_mode()
        conv.forward(x)
        assert conv._cache is not None  # training keeps im2col for backward
        conv.eval_mode()
        conv.forward(x)
        assert conv._cache is None  # eval must not retain the im2col slab

    def test_conv2d_relu_fusion_matches_unfused(self):
        rng = np.random.default_rng(2)
        net = Sequential([Conv2D(3, 4, kernel_size=3, rng=rng), ReLU(), Flatten()])
        net.eval_mode()
        x = np.random.default_rng(3).normal(size=(3, 3, 8, 8))
        fused = net.compile_inference(dtype=np.float64)
        expected = net.forward(x)
        got = fused.predict_scores(x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
