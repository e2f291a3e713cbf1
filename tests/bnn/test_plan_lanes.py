"""Two lanes per float32 value in the compiled plan's binary convs, and
conv1's plane gather.

A binary conv stage of fan-in K packs the two halves of a chunk into one
plane, ``x[:⌈n/2⌉] + B·x[⌈n/2⌉:]``, runs one GEMM over half the rows and
decodes both lanes; a one-image chunk on a large enough stage packs its
top and bottom output rows the same way.  Packing must be invisible:
every decision equals the XNOR-popcount oracle's, for any fan-in the
exactness check admits, for odd and even chunks, one image or many,
padded or not, serial and tiled — and a fan-in one past the check must
stay unpacked.  conv1 gathers its im2col plane transposed; its float
accumulator must equal the row layout's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnn import FoldedBNN, FoldedDense, FoldedPool, fold_network
from repro.bnn import plan as plan_module
from repro.bnn.inference import FoldedConv
from repro.bnn.plan import CompiledBNNPlan, _Compiler, _fold_float, _lane_base
from repro.bnn.thresholding import ChannelThresholds
from repro.data import normalize_to_pm1
from repro.models import build_finn_cnv
from repro.nn import functional as F
from repro.nn import program as program_module

from oracle import forward_oracle, oracle_stage

#: The largest fan-in whose packed GEMM stays exact: B = 4096 and
#: (B + 1)·K < 2**24; K + 1 needs B = 8192 and fails the check.
MAX_PACKED_FAN_IN = 2047


def test_lane_base_boundary():
    assert _lane_base(1, np.float32) == 4
    assert _lane_base(144, np.float32) == 512
    assert _lane_base(MAX_PACKED_FAN_IN, np.float32) == 4096
    assert _lane_base(MAX_PACKED_FAN_IN + 1, np.float32) is None
    assert _lane_base(144, np.float64) is None  # float64 plans stay unpacked
    for k in range(1, MAX_PACKED_FAN_IN + 1, 97):
        base = _lane_base(k, np.float32)
        assert base >= 2 * k + 2 and base & (base - 1) == 0 and base // 2 < 2 * k + 2


def _conv_stage(rng, k, c, oc, stride, pad=0):
    """A binary conv engine whose columns and thresholds include extremes."""
    lean = rng.choice([0.0, 0.5, 1.0], size=oc)  # all -1, mixed, all +1 columns
    weights = np.where(rng.random((oc, c * k * k)) < lean[:, None], 1.0, -1.0)
    fan_in = c * k * k
    tau = rng.integers(-fan_in - 2, fan_in + 3, size=oc) + rng.choice([0.0, 0.5], size=oc)
    thresholds = ChannelThresholds(
        tau=tau.astype(np.float64),
        sign=rng.choice([-1.0, 0.0, 1.0], size=oc, p=[0.4, 0.1, 0.5]),
        constant=rng.choice([-1.0, 1.0], size=oc),
    )
    return FoldedConv(weights, k, stride, pad, c, thresholds, binary_input=True)


def _plane_op(stage, h, w, micro_batch, threads):
    """Compile *stage* alone as a float32 plane conv of the plan; returns
    the compile (it owns the buffers) and a function running a chunk."""
    plan = CompiledBNNPlan(FoldedBNN([stage]), micro_batch=micro_batch, threads=threads)
    compiler = _Compiler(plan, np.float32)
    build, _ = compiler.conv_plane(stage, ("map", h, w, stage.in_channels))

    def op(maps):
        calls, out = build(len(maps), maps)
        for call in calls:
            call()
        return out

    return compiler, op


def _unpacked(stage, maps):
    """The oracle's 0/1 decisions for the stage, NHWC."""
    pm1 = maps.transpose(0, 3, 1, 2).astype(np.float64) * 2.0 - 1.0
    return oracle_stage(stage, pm1).transpose(0, 2, 3, 1) > 0


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.one_of(
        st.sampled_from([(1, MAX_PACKED_FAN_IN), (1, MAX_PACKED_FAN_IN + 1)]),
        st.tuples(st.sampled_from([1, 2, 3]), st.integers(1, 40)),
    ),
    oc=st.integers(1, 12),
    stride=st.sampled_from([1, 2]),
    pad=st.sampled_from([0, 0, 1]),
    extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    micro_batch=st.integers(1, 9),
    fill=st.sampled_from([0.0, 0.5, 1.0]),
    threads=st.sampled_from([None, 2]),
    data=st.data(),
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_packed_stage_equals_unpacked(
    seed, shape, oc, stride, pad, extra, micro_batch, fill, threads, data, monkeypatch
):
    monkeypatch.setattr(program_module, "available_cpus", lambda: 2)
    k, c = shape
    rng = np.random.default_rng(seed)
    stage = _conv_stage(rng, k, c, oc, stride, pad)
    h, w = k + extra[0], k + extra[1]
    n = data.draw(st.integers(1, micro_batch), label="n")
    maps = (rng.random((n, h, w, c)) < fill).astype(np.float32)
    maps[-1] = 1.0  # image n-1 sits in the hi lane whenever n >= 2
    compiler, op = _plane_op(stage, h, w, micro_batch, threads)
    for buf in compiler.buffers:
        buf.fill(0)

    np.testing.assert_array_equal(op(maps), _unpacked(stage, maps))

    base = _lane_base(stage.fan_in, np.float32)
    if base is not None and n >= 2:
        # Packing really ran: unpacked, no buffer ever holds a value >= B
        # (planes and maps are 0/1, products |p| <= K), but the all-ones
        # hi-lane image put B into the lane plane.
        assert any((buf >= base).any() for buf in compiler.buffers)


@pytest.fixture(scope="module")
def folded_packed(micro_workbench):
    return fold_network(micro_workbench.bnn_net)


@pytest.mark.parametrize("micro_batch", [2, 3, 5, 7])
@pytest.mark.parametrize("threads", [None, 2])
def test_plan_matches_uncompiled_at_odd_chunks(
    folded_packed, micro_workbench, micro_batch, threads, monkeypatch
):
    monkeypatch.setattr(program_module, "available_cpus", lambda: 2)
    images = normalize_to_pm1(micro_workbench.splits.test.images)[: 4 * micro_batch + 1]
    plan = folded_packed.compile_inference(micro_batch=micro_batch, threads=threads)
    plan.forward(images[:1])  # compile, then clear what the compile run left
    for buf in plan.buffers:
        buf.fill(0)
    np.testing.assert_array_equal(
        plan.forward(images),
        forward_oracle(folded_packed, images, batch_size=micro_batch),
    )
    # Every binary conv of this network is inside the exactness check, so
    # the chunks of >= 2 images left lane values (>= B) in float32 buffers.
    bases = [
        _lane_base(s.fan_in, np.float32)
        for s in folded_packed.stages
        if isinstance(s, FoldedConv) and s.binary_input
    ]
    assert bases and None not in bases
    planes = [buf for buf in plan.buffers if buf.dtype == np.float32]
    assert max(float(buf.max()) for buf in planes) >= min(bases)


def _split_spans(plan, n: int = 1) -> set:
    """Span names of the stages whose n-image program decodes lanes."""
    _, stages, _ = plan.programs[n]
    return {span for span, calls, _ in stages if any(c.func is np.rint for c in calls)}


@st.composite
def lane_topologies(draw):
    """(folded, input shape, stages that split a one-image chunk): an
    integer-valued float conv1 (its GEMM is exact, whatever the chunk),
    one to three binary convs — stride 2, padding (position bound tables),
    odd output heights, fan-ins up to one past the lane limit — an
    optional pool, an affine output."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (draw(st.integers(1, 3)), draw(st.integers(4, 13)), draw(st.integers(4, 13)))
    c_in, h, w = shape
    k = draw(st.integers(1, 3))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
    channels = draw(
        st.one_of(st.integers(1, 8), st.sampled_from([227, 228, MAX_PACKED_FAN_IN])),
        label="conv1 channels",
    )
    weights = rng.integers(-2, 3, size=(channels, c_in * k * k)).astype(np.float64)
    thresholds = ChannelThresholds(
        tau=rng.integers(-6, 7, size=channels) + rng.choice([0.0, 0.5], size=channels),
        sign=rng.choice([-1.0, 0.0, 1.0], size=channels, p=[0.4, 0.1, 0.5]),
        constant=rng.choice([-1.0, 1.0], size=channels),
    )
    stages = [FoldedConv(weights, k, stride, pad, c_in, thresholds, binary_input=False)]
    h, w = F.conv_output_size(h, k, stride, pad), F.conv_output_size(w, k, stride, pad)
    splits = set()
    for conv in range(2, 2 + draw(st.integers(1, 3), label="binary convs")):
        pad = draw(st.sampled_from([0, 1]))
        k = draw(st.integers(1, min(3, h + 2 * pad, w + 2 * pad)))
        stride = draw(st.sampled_from([1, 2]))
        out = draw(st.integers(1, 8))
        stages.append(_conv_stage(rng, k, channels, out, stride, pad))
        h = F.conv_output_size(h, k, stride, pad)
        w = F.conv_output_size(w, k, stride, pad)
        if _lane_base(stages[-1].fan_in, np.float32) is not None and h >= 2:
            splits.add(f"bnn.conv{conv}")
        channels = out
        if min(h, w) >= 2 and draw(st.booleans(), label="pool"):
            stages.append(FoldedPool(2, 2))
            h, w = h // 2, w // 2
    features = channels * h * w
    classes = draw(st.integers(2, 5))
    stages.append(FoldedDense(
        np.where(rng.random((classes, features)) < 0.5, 1.0, -1.0), None,
        output_scale=rng.normal(size=classes), output_offset=rng.normal(size=classes),
    ))
    return FoldedBNN(stages, num_classes=classes), shape, splits


@given(
    case=lane_topologies(),
    micro_batch=st.integers(1, 3),
    threads=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_one_image_chunk_splits_into_half_image_lanes(
    case, micro_batch, threads, seed, monkeypatch
):
    # Every stage the exactness check admits splits, whatever its size.
    monkeypatch.setattr(plan_module, "_SPLIT_PLANE_BYTES", 0)
    monkeypatch.setattr(program_module, "available_cpus", lambda: 2)
    folded, shape, splits = case
    images = np.random.default_rng(seed).integers(-3, 4, size=(2,) + shape).astype(np.float64)
    plan = folded.compile_inference(micro_batch=micro_batch, threads=threads)
    paired = plan.forward(images)
    for i in range(2):
        solo = plan.forward(images[i : i + 1])
        np.testing.assert_array_equal(solo, forward_oracle(folded, images[i : i + 1], 1))
        np.testing.assert_array_equal(solo[0], paired[i])
    assert _split_spans(plan) == splits


def test_cnv_one_image_program_splits_conv2_only():
    """At the benchmark's CNV geometry (scale 0.25, 32x32 input) only
    conv2's plane (452 KB) is past the split threshold; conv3 (83 KB) and
    conv4 (115 KB) measured slower split and must stay unpacked."""
    net = build_finn_cnv(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    plan = fold_network(net).compile_inference(micro_batch=32)
    plan.forward(np.zeros((1, 3, 32, 32)))
    assert _split_spans(plan) == {"bnn.conv2"}


def _take_rows(images: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """conv1's im2col in the row layout, (n·OH·OW, C·k·k), gathered by
    one ``np.take`` over flat source indices."""
    n, c, h, w = images.shape
    oh, ow = F.conv_output_size(h, k, s, p), F.conv_output_size(w, k, s, p)
    padded = np.pad(np.asarray(images, dtype=np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    index = np.arange(padded[0].size).reshape(padded.shape[1:])
    sc, sh, sw = index.strides
    index = np.lib.stride_tricks.as_strided(
        index, shape=(oh, ow, c, k, k), strides=(sh * s, sw * s, sc, sh, sw)
    ).reshape(-1)
    return np.take(padded.reshape(n, -1), index, axis=1).reshape(n * oh * ow, -1)


@pytest.mark.parametrize("n", [1, 2, 7, 32])
@pytest.mark.parametrize("pad, stride", [(0, 1), (1, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv1_plane_gather_matches_row_layout(n, pad, stride, dtype):
    micro_batch, c, k, oc, h, w = 32, 3, 3, 16, 32, 31
    rng = np.random.default_rng(n + 10 * pad + 100 * stride)
    thresholds = ChannelThresholds(
        tau=rng.normal(size=oc), sign=rng.choice([-1.0, 1.0], size=oc),
        constant=np.ones(oc),
    )
    stage = FoldedConv(rng.normal(size=(oc, c * k * k)), k, stride, pad, c, thresholds, False)
    compiler = _Compiler(CompiledBNNPlan(FoldedBNN([stage]), micro_batch=micro_batch), np.float32)
    build, _ = compiler.conv_float(stage, ("float", c, h, w))
    images = rng.normal(size=(n, c, h, w)).astype(dtype)
    calls, _ = build(n, None)
    calls[0](images)
    for call in calls[1:]:
        call()

    oh, ow = F.conv_output_size(h, k, stride, pad), F.conv_output_size(w, k, stride, pad)
    (acc,) = [b for b in compiler.buffers if b.shape == (micro_batch * oh * ow, oc)]
    weight_t, _ = _fold_float(stage.weight_matrix, stage.thresholds)
    expected = np.matmul(_take_rows(images, k, stride, pad), weight_t)
    np.testing.assert_array_equal(acc[: n * oh * ow], expected)
