"""Kernel backend contract: every backend is bit-exact ±1 arithmetic.

Property-tests all registered backends against an independent float
matmul oracle (not the packed path) across random shapes and fan-ins,
including widths that are not multiples of 8 or 64 so pad-bit handling
is exercised; plus the NumPy-1.x LUT popcount fallback, the registry,
the environment override, and the autotuner cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import bitops
from repro.bnn.kernels import (
    ENV_BACKEND,
    available_backends,
    clear_selection_cache,
    default_backend,
    get_kernel,
    select_backend,
    selection_cache,
)
from repro.bnn.xnor import binary_dot, pack_pm1, xnor_popcount_matmul


def random_pm1(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape)


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
    oracle = (a @ w.T).astype(np.int64)

    a_words, n = pack_pm1(a)
    w_words, _ = pack_pm1(w)
    for name in available_backends():
        kernel = get_kernel(name)
        out = kernel.matmul(a_words, kernel.prepare(w_words, n), n)
        assert out.dtype == np.int64, name
        np.testing.assert_array_equal(out, oracle, err_msg=name)


@given(seed=st.integers(0, 10_000), n_bits=st.integers(1, 130))
@settings(max_examples=25, deadline=None)
def test_backends_match_binary_dot(seed, n_bits):
    rng = np.random.default_rng(seed)
    a = random_pm1(rng, (n_bits,))
    w = random_pm1(rng, (n_bits,))
    expected = binary_dot(a, w)
    a_words, n = pack_pm1(a.reshape(1, -1))
    w_words, _ = pack_pm1(w.reshape(1, -1))
    for name in available_backends():
        kernel = get_kernel(name)
        assert int(kernel.matmul(a_words, kernel.prepare(w_words, n), n)[0, 0]) == expected


def test_popcount_lut_fallback_matches_native(monkeypatch):
    """The NumPy<2.0 path (no ``np.bitwise_count``) must agree everywhere."""
    rng = np.random.default_rng(0)
    words = rng.integers(0, 256, size=(64, 18), dtype=np.uint8)
    native = bitops.popcount(words)
    monkeypatch.setattr(bitops, "HAVE_BITWISE_COUNT", False)
    np.testing.assert_array_equal(bitops.popcount(words), native)

    # The whole reference kernel keeps working on the fallback.
    a = random_pm1(rng, (9, 77))
    w = random_pm1(rng, (5, 77))
    a_words, n = pack_pm1(a)
    w_words, _ = pack_pm1(w)
    np.testing.assert_array_equal(
        xnor_popcount_matmul(a_words, w_words, n), (a @ w.T).astype(np.int64)
    )


def test_popcount_u64_matches_bit_count():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2**63, size=37, dtype=np.uint64)
    expected = np.array([bin(int(v)).count("1") for v in words])
    np.testing.assert_array_equal(bitops.popcount_u64(words), expected)


def test_registry_and_reference_first():
    names = available_backends()
    assert names[0] == "reference"
    assert {"reference", "bitplane", "threaded"} <= set(names)
    with pytest.raises(KeyError):
        get_kernel("no-such-backend")


def test_default_backend_env_override(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert default_backend() == "auto"
    monkeypatch.setenv(ENV_BACKEND, "bitplane")
    assert default_backend() == "bitplane"
    monkeypatch.setenv(ENV_BACKEND, "auto")
    assert default_backend() == "auto"
    monkeypatch.setenv(ENV_BACKEND, "bogus")
    with pytest.raises(KeyError):
        default_backend()


def test_select_backend_returns_valid_name_and_caches():
    clear_selection_cache()
    pick = select_backend(256, 16, 144)
    get_kernel(pick)  # valid name or variant (e.g. "threaded@2")
    assert len(selection_cache()) == 1
    # Same shape bucket: answered from cache, no new entry.
    assert select_backend(200, 16, 144) == pick
    assert len(selection_cache()) == 1
    # Different shape: new measurement.
    select_backend(8, 4, 32)
    assert len(selection_cache()) == 2
    clear_selection_cache()
    assert len(selection_cache()) == 0


def test_select_backend_candidate_subset():
    clear_selection_cache()
    assert select_backend(16, 4, 64, candidates=("reference",)) == "reference"
    clear_selection_cache()
