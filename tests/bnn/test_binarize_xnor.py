"""Binarization primitives and the oracle's XNOR-popcount arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import binarize_sign, clip_weights, ste_mask
from repro.nn import Parameter

from oracle import binary_dot, pack_pm1, unpack_pm1, xnor_popcount_matmul


class TestBinarizeSign:
    def test_values(self):
        x = np.array([-2.0, -0.0, 0.0, 0.5])
        np.testing.assert_allclose(binarize_sign(x), [-1.0, 1.0, 1.0, 1.0])

    def test_zero_maps_to_plus_one(self):
        assert binarize_sign(np.array([0.0]))[0] == 1.0

    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        b = binarize_sign(x)
        np.testing.assert_allclose(binarize_sign(b), b)


class TestSTEMask:
    def test_window(self):
        x = np.array([-1.5, -1.0, 0.0, 1.0, 1.5])
        np.testing.assert_allclose(ste_mask(x), [0.0, 1.0, 1.0, 1.0, 0.0])


class TestClipWeights:
    def test_clips_2d_weight(self):
        p = Parameter(np.array([[2.0, -3.0], [0.5, 1.0]]), name="conv.weight")
        clip_weights(p)
        assert p.value.max() <= 1.0 and p.value.min() >= -1.0

    def test_leaves_bias_alone(self):
        p = Parameter(np.array([5.0]), name="conv.bias")
        clip_weights(p)
        assert p.value[0] == 5.0

    def test_leaves_non_weight_alone(self):
        p = Parameter(np.full((2, 2), 3.0), name="bn.gamma_matrix")
        clip_weights(p)
        assert p.value.max() == 3.0


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = binarize_sign(rng.normal(size=(5, 37)))
        packed, n = pack_pm1(x)
        assert n == 37
        assert packed.shape == (5, 5)  # ceil(37/8)
        np.testing.assert_allclose(unpack_pm1(packed, n), x)

    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            pack_pm1(np.array([[0.5, 1.0]]))

    def test_1d_promoted(self):
        packed, n = pack_pm1(np.array([1.0, -1.0, 1.0]))
        assert packed.shape == (1, 1)
        assert n == 3


class TestXnorMatmul:
    @pytest.mark.parametrize("m,k,n", [(3, 8, 4), (5, 37, 7), (1, 1, 1), (4, 129, 3)])
    def test_matches_float_matmul(self, m, k, n):
        rng = np.random.default_rng(1)
        a = binarize_sign(rng.normal(size=(m, k)))
        w = binarize_sign(rng.normal(size=(n, k)))
        ap, bits = pack_pm1(a)
        wp, _ = pack_pm1(w)
        got = xnor_popcount_matmul(ap, wp, bits)
        want = (a @ w.T).astype(np.int64)
        np.testing.assert_array_equal(got, want)

    def test_chunking_equivalent(self):
        rng = np.random.default_rng(2)
        a = binarize_sign(rng.normal(size=(100, 64)))
        w = binarize_sign(rng.normal(size=(16, 64)))
        ap, bits = pack_pm1(a)
        wp, _ = pack_pm1(w)
        np.testing.assert_array_equal(
            xnor_popcount_matmul(ap, wp, bits, chunk=7),
            xnor_popcount_matmul(ap, wp, bits, chunk=1000),
        )

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            xnor_popcount_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 4), np.uint8), 24)

    def test_dot_range_parity(self):
        # +-1 dot over n elements lies in [-n, n] with the parity of n.
        rng = np.random.default_rng(3)
        n = 27
        for _ in range(20):
            a = binarize_sign(rng.normal(size=n))
            b = binarize_sign(rng.normal(size=n))
            d = binary_dot(a, b)
            assert -n <= d <= n
            assert (d - n) % 2 == 0

    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_float(self, k, seed):
        rng = np.random.default_rng(seed)
        a = binarize_sign(rng.normal(size=(2, k)))
        w = binarize_sign(rng.normal(size=(3, k)))
        ap, bits = pack_pm1(a)
        wp, _ = pack_pm1(w)
        np.testing.assert_array_equal(
            xnor_popcount_matmul(ap, wp, bits), (a @ w.T).astype(np.int64)
        )
