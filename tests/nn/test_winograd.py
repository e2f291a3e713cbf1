"""Winograd F(4x4, 3x3) conv stage of the compiled host engine.

The property checks the stage against a float64 direct convolution
computed from the same im2col weight matrix, over the geometries where
a tiling slip would show: odd sizes, sizes that are not multiples of the
4x4 output tile (down to a single 3x3 window), both paddings, every
chunk size up to the micro-batch (run back to back on one buffer set),
and bias / ReLU on and off.  The error bound scales per output with the
size of the terms the convolution sums, sum |x|*|w| (+|b|), not with the
output itself: a small output can cancel to far below the terms Winograd
adds up (a 1x1 output of 0.004 from terms summing to 4.4 did, at
seed=1854).  The remaining tests pin where the engines
use the stage: exactly at the documented shape rule in the float engine,
never in the integer-exact quantized engine.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.host_models import build_model_a, build_model_b, build_model_c
from repro.nn import Conv2D, Flatten, InferenceEngine, Sequential
from repro.nn import infer
from repro.nn.infer import _HostCompiler, _winograd_filter
from repro.nn.quantized import QuantizedEngine

BUILDERS = {"a": build_model_a, "b": build_model_b, "c": build_model_c}
#: Bound on |error| / sum |x|*|w| (+|b|) per output: about 5x the largest
#: ratio measured over 53,000 random draws of this test's strategy
#: (float32 4.7e-5, float64 2.7e-13; the worst draws have c_in=1, pad=1).
TOLERANCE = {np.float32: 2.5e-4, np.float64: 1.5e-12}


def direct_conv(x, wmat, bias, pad):
    """float64 NHWC correlation with a ``(9·C_in, C_out)`` im2col weight matrix."""
    n, h, w, c = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh, ow = h + 2 * pad - 2, w + 2 * pad - 2
    g = wmat.astype(np.float64).reshape(3, 3, c, -1)
    out = np.zeros((n, oh, ow, g.shape[3]))
    for dy in range(3):
        for dx in range(3):
            out += xp[:, dy : dy + oh, dx : dx + ow, :] @ g[dy, dx]
    return out if bias is None else out + bias


@given(
    seed=st.integers(0, 100_000),
    h=st.integers(3, 19),
    w=st.integers(3, 19),
    pad=st.sampled_from([0, 1]),
    micro_batch=st.integers(1, 4),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    c_in=st.integers(1, 12),
    c_out=st.integers(1, 12),
    use_bias=st.booleans(),
    relu=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
)
@settings(max_examples=150, deadline=None)
@example(seed=1854, h=3, w=3, pad=0, micro_batch=1, sizes=[1], c_in=1, c_out=1,
         use_bias=False, relu=False, dtype=np.float32)
def test_winograd_step_matches_float64_direct_conv(
    seed, h, w, pad, micro_batch, sizes, c_in, c_out, use_bias, relu, dtype
):
    rng = np.random.default_rng(seed)
    wmat = rng.normal(size=(9 * c_in, c_out))
    bias = rng.normal(size=c_out) if use_bias else None
    engine = InferenceEngine(Sequential([Flatten()]), dtype=dtype, micro_batch=micro_batch)
    compiler = _HostCompiler(engine, dtype, "float")
    build, _ = compiler.winograd(
        ("map", h, w, c_in), pad, _winograd_filter(wmat).astype(dtype),
        None if bias is None else bias.astype(dtype), relu,
    )
    compiler.finish()
    for n in (min(s, micro_batch) for s in sizes):
        x = rng.normal(size=(n, h, w, c_in))
        calls, got = build(n, x.astype(dtype))
        for call in calls:
            call()
        pre = direct_conv(x, wmat, bias, pad)
        expected = np.maximum(pre, 0.0) if relu else pre
        terms = direct_conv(np.abs(x), np.abs(wmat), None if bias is None else np.abs(bias), pad)
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.flags.c_contiguous
        assert np.all(np.abs(got - expected) <= TOLERANCE[dtype] * terms)


def expected_winograd(layer) -> bool:
    """The rule the module docstring states, written out independently."""
    return (
        layer.kernel_size == 3 and layer.stride == 1 and layer.pad == 1
        and min(layer.in_channels, layer.out_channels) >= 16
    )


def conv_stages(engine, net):
    """``(layer, stage, calls, out)`` per conv of a one-image program."""
    engine.predict_scores(np.zeros((1, 3, 32, 32)))
    convs = [layer for layer in net if isinstance(layer, Conv2D)]
    _, steps, _ = engine.programs[1]
    stages = [
        (stage, calls, out)
        for stage, (_, calls, out) in zip(engine.stages, steps)
        if stage.name.split(".")[1].startswith("conv")
    ]
    assert len(stages) == len(convs)
    return [(layer, *stage) for layer, stage in zip(convs, stages)]


class TestShapeRule:
    def test_model_c_uses_winograd_on_its_padded_stride1_3x3_convs(self):
        net = build_model_c(scale=1.0, rng=np.random.default_rng(1))
        kinds = [stage.kind for _, stage, _, _ in conv_stages(net.compile_inference(), net)]
        # conv1 has 3 input channels, conv3/conv6 stride 2, conv7 no
        # padding, conv8/conv9 are 1x1: all stay im2col.
        assert kinds == [
            "im2col", "winograd", "im2col", "winograd",
            "winograd", "im2col", "im2col", "im2col", "im2col",
        ]

    @pytest.mark.parametrize("scale", [0.25, 1.0])
    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_every_conv_follows_the_rule(self, model, scale):
        net = BUILDERS[model](scale=scale, rng=np.random.default_rng(0))
        for dtype in (np.float32, np.float64):
            for layer, stage, _, out in conv_stages(net.compile_inference(dtype=dtype), net):
                assert (stage.kind == "winograd") == expected_winograd(layer), layer
                assert out.shape[-1] == layer.out_channels

    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_every_step_returns_a_contiguous_buffer(self, model):
        net = BUILDERS[model](scale=0.25, rng=np.random.default_rng(0))
        net.eval_mode()
        engine = net.compile_inference(micro_batch=4)
        engine.predict_scores(np.random.default_rng(1).normal(size=(3, 3, 32, 32)))
        _, steps, _ = engine.programs[3]
        for span, _, out in steps:
            assert out.flags.c_contiguous, span


class TestQuantizedEngineStaysIm2col:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_every_conv_step_is_a_quantized_im2col_step(self, model, bits, monkeypatch):
        def no_transform(wmat):  # pragma: no cover - must not run
            raise AssertionError("QuantizedEngine computed a Winograd filter")

        monkeypatch.setattr(infer, "_winograd_filter", no_transform)
        net = BUILDERS[model](scale=0.25, rng=np.random.default_rng(0))
        engine = QuantizedEngine(net, bits=bits, calibration_images=np.zeros((1, 3, 32, 32)))
        stages = conv_stages(engine, net)
        assert stages and all(stage.kind == "im2col" for _, stage, _, _ in stages)
        # The int32 GEMM: each conv multiplies rint-quantized int32 operands.
        for _, _, calls, _ in stages:
            assert any(c.func is np.rint for c in calls)
            assert any(c.func is np.matmul and c.args[0].dtype == np.int32 for c in calls)
