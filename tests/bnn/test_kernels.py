"""Binary matmul contract: both datapaths are bit-exact ±1 arithmetic.

Property-tests the oracle's XNOR-popcount product and the compiled
plan's 0/1-plane GEMM against an independent float matmul across random
shapes and fan-ins, including widths that are not multiples of 8 so
pad-bit handling is exercised; plus the NumPy-1.x LUT popcount fallback,
the legacy backend spellings, and the affinity-capped thread count.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import (
    BinaryActivation,
    BinaryConv2D,
    BinaryDense,
    FoldedBNN,
    FoldedDense,
    fold_network,
)
from repro.bnn.kernels import clear_selection_cache
from repro.bnn.plan import CompiledBNNPlan, _Compiler
from repro.nn.program import available_cpus
from repro.nn import BatchNorm, Flatten, Sequential

import oracle
from oracle import binary_dot, pack_pm1, xnor_popcount_matmul


def random_pm1(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape)


def plane_matmul(a, w):
    """The plan's affine dense stage on ±1 rows: 0/1 plane GEMM, then 2p - sw."""
    stage = FoldedDense(w, thresholds=None)
    plan = CompiledBNNPlan(FoldedBNN([stage]), micro_batch=len(a))
    build, _ = _Compiler(plan, np.float32).dense(stage, ("rows", w.shape[1]))
    calls, out = build(len(a), (a > 0).astype(np.float32))
    for call in calls:
        call()
    return out


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 24),
    n_out=st.integers(1, 12),
    # Deliberately spans widths below/above one uint64 word and widths
    # that are not multiples of 8 (pad bits) or 64 (partial words).
    n_bits=st.sampled_from([1, 3, 7, 8, 9, 17, 63, 64, 65, 100, 144, 200]),
)
@settings(max_examples=40, deadline=None)
def test_all_backends_match_float_oracle(seed, m, n_out, n_bits):
    rng = np.random.default_rng(seed)
    a = random_pm1(rng, (m, n_bits))
    w = random_pm1(rng, (n_out, n_bits))
    expected = (a @ w.T).astype(np.int64)

    a_words, n = pack_pm1(a)
    w_words, _ = pack_pm1(w)
    out = xnor_popcount_matmul(a_words, w_words, n)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(plane_matmul(a, w), expected)


@given(seed=st.integers(0, 10_000), n_bits=st.integers(1, 130))
@settings(max_examples=25, deadline=None)
def test_backends_match_binary_dot(seed, n_bits):
    rng = np.random.default_rng(seed)
    a = random_pm1(rng, (1, n_bits))
    w = random_pm1(rng, (1, n_bits))
    expected = binary_dot(a, w)
    assert expected == int((a @ w.T)[0, 0])
    assert plane_matmul(a, w)[0, 0] == expected


def test_popcount_lut_fallback_matches_native(monkeypatch):
    """The NumPy<2.0 path (no ``np.bitwise_count``) must agree everywhere."""
    rng = np.random.default_rng(0)
    words = rng.integers(0, 256, size=(64, 18), dtype=np.uint8)
    native = np.array([[bin(int(v)).count("1") for v in row] for row in words])
    np.testing.assert_array_equal(oracle.popcount(words), native)
    monkeypatch.setattr(oracle, "HAVE_BITWISE_COUNT", False)
    np.testing.assert_array_equal(oracle.popcount(words), native)

    # The whole XNOR-popcount product keeps working on the fallback.
    a = random_pm1(rng, (9, 77))
    w = random_pm1(rng, (5, 77))
    a_words, n = pack_pm1(a)
    w_words, _ = pack_pm1(w)
    np.testing.assert_array_equal(
        xnor_popcount_matmul(a_words, w_words, n), (a @ w.T).astype(np.int64)
    )


def _tiny_folded(backend=None):
    rng = np.random.default_rng(0)
    net = Sequential(
        [
            BinaryConv2D(3, 4, 3, rng=rng), BatchNorm(4), BinaryActivation(),
            BinaryConv2D(4, 4, 3, rng=rng), BatchNorm(4), BinaryActivation(),
            Flatten(), BinaryDense(4 * 4 * 4, 3, rng=rng), BatchNorm(3),
        ]
    )
    net.eval_mode()
    return fold_network(net, num_classes=3, backend=backend)


def test_legacy_spellings_run_the_serial_bitplane_plan(tmp_path, monkeypatch):
    """The frozen benchmark's names: accepted, and they change nothing."""
    images = np.random.default_rng(1).uniform(-1.0, 1.0, size=(9, 3, 8, 8))
    expected = _tiny_folded().compile_inference(micro_batch=4).forward(images)
    for name in ("bitplane", "auto", "threaded@1"):
        plan = _tiny_folded(name).compile_inference(micro_batch=4)
        np.testing.assert_array_equal(plan.forward(images), expected, err_msg=name)
        assert plan._tile_threads() == 1
    for name in ("reference", "threaded", "threaded@2", "no-such-backend"):
        with pytest.raises(KeyError, match="valid: bitplane, auto, threaded@1"):
            _tiny_folded(name)
    # Nothing left to clear, and nothing on disk is touched.
    monkeypatch.setenv("HOME", str(tmp_path))
    assert clear_selection_cache() is None
    assert list(tmp_path.iterdir()) == []


def test_thread_defaults_follow_the_affinity_mask(monkeypatch):
    """A pinned process sizes by the CPUs it may use, not the machine's."""
    plan = _tiny_folded().compile_inference(threads=8)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert available_cpus() == 1
    assert plan._tile_threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert available_cpus() == 4
    assert plan._tile_threads() == 4
    # Platforms without an affinity mask fall back to the machine count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert available_cpus() == 16
    assert plan._tile_threads() == 8
