"""Compiled-plan contract: the one BNN executor is invisible.

The plan preallocates every buffer and carries 0/1 float planes between
stages with the thresholds folded into the weights, but the arithmetic
is integer-exact, so on a *trained* network it must reproduce the
XNOR-popcount oracle (``oracle.forward_oracle``) bit-for-bit — under
every legacy backend spelling, every thread count, and batch sizes that
exercise full chunks, ragged tails, and single images.  Buffer reuse
across calls must be observable only as speed, never as state.
"""

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bnn import (
    BinaryActivation,
    BinaryConv2D,
    BinaryDense,
    ChannelThresholds,
    FoldedBNN,
    FoldedConv,
    FoldedDense,
    FoldedPool,
    fold_network,
)
from repro.bnn import plan as plan_module
from repro.data import normalize_to_pm1
from repro.models import build_finn_cnv, build_model_a
from repro.nn import BatchNorm, Dense, Flatten, MaxPool2D, Sequential

from oracle import forward_oracle

BATCH_SIZES = (1, 7, 64, 129)
BACKENDS = (None, "bitplane", "auto", "threaded@1")


@pytest.fixture(scope="module")
def folded_packed(micro_workbench):
    return fold_network(micro_workbench.bnn_net)


@pytest.fixture(scope="module")
def test_images(micro_workbench):
    return normalize_to_pm1(micro_workbench.splits.test.images)


@pytest.mark.parametrize("micro_batch", BATCH_SIZES)
def test_plan_bit_identical_every_backend(micro_workbench, test_images, micro_batch):
    # batch 1 walks one image per chunk; cap the count so the oracle
    # stays cheap without losing the ragged-tail case.
    images = test_images[:13] if micro_batch == 1 else test_images
    expected = None
    for backend in BACKENDS:
        folded = fold_network(micro_workbench.bnn_net, backend=backend)
        if expected is None:
            expected = forward_oracle(folded, images, batch_size=micro_batch)
        plan = folded.compile_inference(micro_batch=micro_batch)
        np.testing.assert_array_equal(
            plan.forward(images), expected, err_msg=f"{backend}@batch{micro_batch}"
        )


def test_thread_count_invariance(folded_packed, test_images):
    plans = [
        folded_packed.compile_inference(micro_batch=64, threads=k)
        for k in (1, 2, 4)
    ]
    baseline = plans[0].forward(test_images).copy()
    for k, plan in zip((2, 4), plans[1:]):
        np.testing.assert_array_equal(
            plan.forward(test_images), baseline, err_msg=f"threads={k}"
        )


def test_buffer_reuse_is_deterministic(folded_packed, test_images):
    plan = folded_packed.compile_inference(micro_batch=32)
    first = plan.forward(test_images)
    first_copy = first.copy()
    second = plan.forward(test_images)
    np.testing.assert_array_equal(second, first_copy)
    # The returned array is the caller's, not a view of the reused pool.
    np.testing.assert_array_equal(first, first_copy)
    assert first is not second


def test_class_scores_and_predict(folded_packed, test_images):
    plan = folded_packed.compile_inference(micro_batch=64)
    scores = plan.class_scores(test_images)
    assert scores.shape == (len(test_images), folded_packed.num_classes)
    np.testing.assert_array_equal(
        scores, folded_packed.class_scores(test_images, batch_size=64)
    )
    np.testing.assert_array_equal(plan.predict(test_images), scores.argmax(axis=1))


def test_forward_autocompiles(folded_packed, test_images):
    auto = folded_packed.forward(test_images, batch_size=64)
    assert folded_packed._auto_plan(64) is not None
    np.testing.assert_array_equal(
        auto, forward_oracle(folded_packed, test_images, batch_size=64)
    )


def test_unknown_backend_rejected_at_construction(micro_workbench):
    # The name changes nothing, so only the fold can catch it.
    for name in ("nonesuch", "reference"):
        with pytest.raises(KeyError, match=f"{name}.*valid: bitplane, auto, threaded@1"):
            fold_network(micro_workbench.bnn_net, backend=name)


def test_threads_below_one_rejected_at_construction(folded_packed):
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads"):
            folded_packed.compile_inference(threads=threads)


def test_empty_batch_has_the_class_width(folded_packed):
    plan = folded_packed.compile_inference(micro_batch=8)
    scores = plan.class_scores(np.zeros((0, 3, 32, 32)))
    assert scores.shape == (0, folded_packed.num_classes)
    assert scores.dtype == plan.forward(np.zeros((1, 3, 32, 32))).dtype


@given(seed=st.integers(0, 10_000), n=st.integers(1, 9))
@settings(max_examples=10, deadline=None)
def test_plan_matches_uncompiled_on_random_inputs(folded_packed, seed, n):
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1.0, 1.0, size=(n, 3, 32, 32))
    plan = folded_packed.compile_inference(micro_batch=4)
    np.testing.assert_array_equal(
        plan.forward(images), forward_oracle(folded_packed, images, batch_size=4)
    )


# -- the plane dataflow: chunk sizes, every topology, float64 planes ---------


def test_every_chunk_size_and_ragged_tails(folded_packed, test_images):
    micro_batch = 16
    plan = folded_packed.compile_inference(micro_batch=micro_batch)
    for n in [*range(1, micro_batch + 1), micro_batch + 1, 2 * micro_batch + 5]:
        np.testing.assert_array_equal(
            plan.forward(test_images[:n]),
            forward_oracle(folded_packed, test_images[:n], batch_size=micro_batch),
            err_msg=f"n={n}",
        )


def test_one_buffer_set_whatever_the_batch_size(folded_packed, test_images):
    micro_batch = 16
    plan = folded_packed.compile_inference(micro_batch=micro_batch)
    sizes = list(range(1, micro_batch + 1))
    random.Random(0).shuffle(sizes)

    def buffer_set():
        return len(plan.buffers), sum(buf.nbytes for buf in plan.buffers)

    plan.forward(test_images[: sizes[0]])
    first = buffer_set()
    assert first[0] > 0
    for n in sizes[1:]:
        plan.forward(test_images[:n])
        assert buffer_set() == first, n


#: Model A's stages, labelled by layer kind (conv2's and conv3's ReLUs fuse).
MODEL_A_STAGES = [
    "conv1", "pool1", "lrn1", "conv2", "pool2", "lrn2", "conv3", "pool3", "flatten1", "fc1",
]


@pytest.mark.parametrize("engine", ["bnn", "host"])
def test_spans_per_chunk_and_one_program_per_chunk_size(folded_packed, test_images, engine):
    micro_batch = 8
    if engine == "bnn":
        plan = folded_packed.compile_inference(micro_batch=micro_batch)
        runtime, spans = "bnn.plan", ["bnn." + label for label in folded_packed.stage_labels]
    else:
        net = build_model_a(scale=0.25, rng=np.random.default_rng(0))
        net.eval_mode()
        plan = net.compile_inference(micro_batch=micro_batch)
        runtime, spans = "host.engine", ["host." + label for label in MODEL_A_STAGES]
        test_images = np.random.default_rng(1).normal(size=(2 * micro_batch + 3, 3, 32, 32))
    with obs.tracing() as tracer:
        plan.forward(test_images[: 2 * micro_batch + 3])
    assert [stage.name for stage in plan.stages] == spans
    (forward,) = [s for s in tracer.spans if s.name == runtime + ".forward"]
    staged = sorted((s for s in tracer.spans if s.name in spans), key=lambda s: s.start)
    # Three chunks (8, 8, 3), each running every stage once, in order.
    assert [s.name for s in staged] == spans * 3
    assert all(s.parent == runtime + ".forward" for s in staged)
    assert all(forward.start <= s.start <= s.end <= forward.end for s in staged)
    chunks = [s.args["chunk"] for s in tracer.spans if "chunk" in s.args]
    assert sorted(chunks) == [3, micro_batch]

    def programs_built():
        with obs.tracing() as tracer:
            for n in range(1, micro_batch + 1):
                plan.forward(test_images[:n])
        return sorted(s.args["chunk"] for s in tracer.spans if s.name == runtime + ".compile")

    assert programs_built() == [n for n in range(1, micro_batch + 1) if n not in (3, micro_batch)]
    assert programs_built() == []


@pytest.fixture(scope="module")
def cnv_folded():
    net = build_finn_cnv(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    return fold_network(net)


def test_failed_recompile_leaves_the_plan_as_it_was(cnv_folded):
    images = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 3, 32, 32))
    plan = cnv_folded.compile_inference(micro_batch=4)
    before = plan.class_scores(images)

    def buffer_set():
        return [(id(buf), buf.tobytes()) for buf in plan.buffers]

    kept = buffer_set()
    for bad in (np.zeros((2, 3, 8, 8)), np.zeros((2, 4, 32, 32))):
        with pytest.raises(ValueError):
            plan.class_scores(bad)
        assert buffer_set() == kept, bad.shape
    np.testing.assert_array_equal(plan.class_scores(images), before)


def _conv_block(cin, cout, rng, pad=0):
    return [BinaryConv2D(cin, cout, 3, pad=pad, rng=rng), BatchNorm(cout), BinaryActivation()]


def _randomize_batchnorms(net, rng):
    """Thresholds of every kind: negative and zero gamma, spread-out tau."""
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            n = layer.gamma.value.shape[0]
            layer.gamma.value[...] = rng.choice([-1.5, -0.5, 0.0, 0.7, 1.3], size=n)
            layer.beta.value[...] = rng.normal(size=n)
            layer.running_mean.value[...] = rng.normal(scale=3.0, size=n)
            layer.running_var.value[...] = rng.uniform(0.5, 2.0, size=n)
    net.eval_mode()
    return net


def _float_head_net(rng):
    return _randomize_batchnorms(
        Sequential(
            [
                *_conv_block(3, 8, rng),
                *_conv_block(8, 12, rng),
                MaxPool2D(2),
                Flatten(),
                Dense(12 * 3 * 3, 5, rng=rng),
            ]
        ),
        rng,
    )


def _padded_inner_conv_net(rng):
    return _randomize_batchnorms(
        Sequential(
            [
                *_conv_block(3, 8, rng),
                *_conv_block(8, 8, rng),
                MaxPool2D(2),
                *_conv_block(8, 8, rng),
                *_conv_block(8, 8, rng, pad=1),
                Flatten(),
                BinaryDense(8, 6, rng=rng),
                BatchNorm(6),
            ]
        ),
        rng,
    )


@pytest.mark.parametrize("build", [_float_head_net, _padded_inner_conv_net])
def test_padded_conv_and_float_head_compile(build):
    rng = np.random.default_rng(3)
    net = build(rng)
    folded = fold_network(net, num_classes=5)
    images = rng.uniform(-1.0, 1.0, size=(64, 3, 10, 10))
    plan = folded.compile_inference(micro_batch=4)
    with obs.tracing() as tracer:
        scores = plan.forward(images)
    np.testing.assert_array_equal(scores, forward_oracle(folded, images, batch_size=4))
    # The training net pads with 0, and so do the plan and the oracle.
    np.testing.assert_allclose(scores, net.forward(images), rtol=1e-9, atol=1e-9)
    assert {"bnn." + label for label in folded.stage_labels} <= {s.name for s in tracer.spans}


def test_terminal_thresholding_stage_outputs_pm1_in_training_layout():
    rng = np.random.default_rng(4)
    net = _randomize_batchnorms(
        Sequential([*_conv_block(3, 8, rng), MaxPool2D(2), *_conv_block(8, 5, rng, pad=1)]),
        rng,
    )
    folded = fold_network(net)
    images = rng.uniform(-1.0, 1.0, size=(9, 3, 10, 10))
    scores = folded.compile_inference(micro_batch=4).forward(images)
    assert scores.shape == (9, 5, 4, 4) and scores.dtype == np.float64
    np.testing.assert_array_equal(scores, forward_oracle(folded, images, batch_size=4))
    np.testing.assert_array_equal(scores, net.forward(images))


def _plain_conv(cin, cout, binary_input=True):
    thresholds = ChannelThresholds(np.zeros(cout), np.ones(cout), np.ones(cout))
    return FoldedConv(np.ones((cout, cin * 9)), 3, 1, 0, cin, thresholds, binary_input)


@pytest.mark.parametrize(
    "stages,match",
    [
        ([_plain_conv(4, 8, binary_input=False)], "4 input channels, got 3"),
        ([_plain_conv(3, 8, binary_input=False), _plain_conv(4, 8)], "4 input channels, got 8"),
        ([_plain_conv(3, 8)], "conv1 .* cannot take float input"),
        ([_plain_conv(3, 8, binary_input=False), FoldedPool(9, 9)], "does not fit"),
        ([_plain_conv(3, 8, binary_input=False), FoldedDense(np.ones((2, 7)), None)], "fan-in 7"),
        (
            [
                _plain_conv(3, 8, binary_input=False),
                FoldedDense(np.ones((2, 8 * 6 * 6)), None),
                FoldedDense(np.ones((2, 2)), None),
            ],
            "fc2 .* cannot take scores input",
        ),
    ],
)
def test_impossible_geometry_raises_at_compile(stages, match):
    plan = FoldedBNN(stages).compile_inference(micro_batch=2)
    with pytest.raises(ValueError, match=match):
        plan.forward(np.zeros((1, 3, 8, 8)))


def test_fully_fused_network_calls_no_kernel_backend(folded_packed, test_images):
    plan = folded_packed.compile_inference(micro_batch=8)
    with obs.tracing() as tracer:
        plan.forward(test_images[:8])
    names = {s.name for s in tracer.spans}
    assert not any(name.startswith("kernel.") for name in names)
    assert {"bnn." + label for label in folded_packed.stage_labels} <= names


def test_float64_planes_above_the_f32_exact_limit(folded_packed, test_images, monkeypatch):
    expected = folded_packed.compile_inference(micro_batch=8).forward(test_images[:19])
    monkeypatch.setattr(plan_module, "_F32_EXACT_LIMIT", 1)
    plan = folded_packed.compile_inference(micro_batch=8)
    scores = plan.forward(test_images[:19])
    assert {buf.dtype for buf in plan.buffers} == {np.dtype(np.float64)}
    np.testing.assert_array_equal(scores, expected)


def test_tile_threads_policy(folded_packed, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    def threads(**kwargs):
        return folded_packed.compile_inference(**kwargs)._tile_threads()

    assert threads() == 1                            # serial unless asked
    assert threads(threads=3) == 3
    assert threads(threads=8) == 4                   # capped at the affinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert threads(threads=4) == 1
