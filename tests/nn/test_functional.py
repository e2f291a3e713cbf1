"""Tests for repro.nn.functional: im2col/col2im, softmax family, one-hot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def naive_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    rows = []
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                patch = xp[b, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                rows.append(patch.reshape(-1))
    return np.array(rows)


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(32, 3) == 30

    def test_with_pad(self):
        assert F.conv_output_size(32, 3, pad=1) == 32

    def test_with_stride(self):
        assert F.conv_output_size(32, 3, stride=2, pad=1) == 16

    def test_exact_fit(self):
        assert F.conv_output_size(3, 3) == 1

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 3)

    def test_pool_output_default_stride_is_window(self):
        assert F.pool_output_size(32, 2) == 16
        assert F.pool_output_size(30, 3, 2) == 14


class TestIm2Col:
    @pytest.mark.parametrize(
        "shape,kh,kw,stride,pad",
        [
            ((2, 3, 8, 8), 3, 3, 1, 0),
            ((1, 1, 5, 5), 3, 3, 2, 0),
            ((2, 4, 6, 6), 3, 3, 1, 1),
            ((1, 2, 7, 7), 5, 5, 1, 2),
            ((3, 2, 4, 4), 1, 1, 1, 0),
            ((1, 3, 9, 9), 3, 3, 3, 0),
        ],
    )
    def test_matches_naive(self, shape, kh, kw, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape)
        got = F.im2col(x, kh, kw, stride, pad)
        want = naive_im2col(x, kh, kw, stride, pad)
        np.testing.assert_allclose(got, want)

    def test_shape(self):
        x = np.zeros((2, 3, 32, 32))
        cols = F.im2col(x, 3, 3)
        assert cols.shape == (2 * 30 * 30, 3 * 9)

    def test_row_ordering_is_channel_major(self):
        # One-pixel kernel: rows should be the (C,) vectors per output pixel.
        x = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2)
        cols = F.im2col(x, 1, 1)
        np.testing.assert_allclose(cols[0], x[0, :, 0, 0])
        np.testing.assert_allclose(cols[1], x[0, :, 0, 1])

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        kh = kw = 3
        stride, pad = 2, 1
        cols = F.im2col(x, kh, kw, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, kh, kw, stride, pad)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        size=st.integers(3, 8),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_naive(self, n, c, size, k, stride, pad):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, c, size, size))
        got = F.im2col(x, k, k, stride, pad)
        want = naive_im2col(x, k, k, stride, pad)
        np.testing.assert_allclose(got, want)


def softmax(x, axis=-1):
    """Softmax through :func:`F.log_softmax`, the one the losses use."""
    return np.exp(F.log_softmax(x, axis=axis))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 10))
        s = softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(5))

    def test_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(4, 7))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_large_values_stable(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        s = softmax(x)
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s[0, :2], [0.5, 0.5])

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(3).normal(size=(6, 4))
        naive = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(F.log_softmax(x), naive, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_property_probabilities(self, values):
        s = softmax(np.array([values]))
        assert (s >= 0).all()
        assert s.sum() == pytest.approx(1.0)


class TestSigmoid:
    def test_symmetry(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(F.sigmoid(x) + F.sigmoid(-x), np.ones_like(x), atol=1e-12)

    def test_extremes_finite(self):
        assert F.sigmoid(np.array([-1e6]))[0] == pytest.approx(0.0)
        assert F.sigmoid(np.array([1e6]))[0] == pytest.approx(1.0)


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert F.one_hot(np.array([], dtype=int), 4).shape == (0, 4)
