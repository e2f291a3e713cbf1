"""Two images per float32 lane in the compiled plan's binary convs.

A binary conv stage of fan-in K packs the two halves of a chunk into one
plane, ``x[:⌈n/2⌉] + B·x[⌈n/2⌉:]``, runs one GEMM over half the rows and
decodes both lanes.  Packing must be invisible: every decision equals
the XNOR-popcount oracle's, for any fan-in the exactness check admits,
for odd and even chunks, padded or not, serial and tiled — and a fan-in
one past the check must stay unpacked.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnn import FoldedBNN, fold_network
from repro.bnn import plan as plan_module
from repro.bnn.inference import FoldedConv
from repro.bnn.plan import CompiledBNNPlan, _lane_base
from repro.bnn.thresholding import ChannelThresholds
from repro.data import normalize_to_pm1

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
    """Compile *stage* alone as a float32 plane conv of the plan."""
    plan = CompiledBNNPlan(FoldedBNN([stage]), micro_batch=micro_batch, threads=threads)
    plan._dtype = np.dtype(np.float32)
    plan._threads = plan._tile_threads()
    op, _ = plan._conv_plane_op(stage, ("map", h, w, stage.in_channels))
    return plan, op


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
    monkeypatch.setattr(plan_module, "available_cpus", lambda: 2)
    k, c = shape
    rng = np.random.default_rng(seed)
    stage = _conv_stage(rng, k, c, oc, stride, pad)
    h, w = k + extra[0], k + extra[1]
    n = data.draw(st.integers(1, micro_batch), label="n")
    maps = (rng.random((n, h, w, c)) < fill).astype(np.float32)
    maps[-1] = 1.0  # image n-1 sits in the hi lane whenever n >= 2
    plan, op = _plane_op(stage, h, w, micro_batch, threads)
    for buf in plan._buffers:
        buf.fill(0)

    np.testing.assert_array_equal(op(maps), _unpacked(stage, maps))

    base = _lane_base(stage.fan_in, np.float32)
    if base is not None and n >= 2:
        # Packing really ran: unpacked, no buffer ever holds a value >= B
        # (planes and maps are 0/1, products |p| <= K), but the all-ones
        # hi-lane image put B into the lane plane.
        assert any((buf >= base).any() for buf in plan._buffers)


@pytest.fixture(scope="module")
def folded_packed(micro_workbench):
    return fold_network(micro_workbench.bnn_net)


@pytest.mark.parametrize("micro_batch", [2, 3, 5, 7])
@pytest.mark.parametrize("threads", [None, 2])
def test_plan_matches_uncompiled_at_odd_chunks(
    folded_packed, micro_workbench, micro_batch, threads, monkeypatch
):
    monkeypatch.setattr(plan_module, "available_cpus", lambda: 2)
    images = normalize_to_pm1(micro_workbench.splits.test.images)[: 4 * micro_batch + 1]
    plan = folded_packed.compile_inference(micro_batch=micro_batch, threads=threads)
    plan.forward(images[:1])  # compile, then clear what the compile run left
    for buf in plan._buffers:
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
    planes = [buf for buf in plan._buffers if buf.dtype == np.float32]
    assert max(float(buf.max()) for buf in planes) >= min(bases)
