"""Pooling layers: forward vs naive, gradient checks."""

import numpy as np
import pytest

from repro.nn import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from gradcheck import check_layer_gradients


def naive_pool(x, window, stride, pad, op):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - window) // stride + 1
    ow = (w + 2 * pad - window) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    patch = xp[b, ch, oy * stride : oy * stride + window, ox * stride : ox * stride + window]
                    out[b, ch, oy, ox] = op(patch)
    return out


class TestMaxPool:
    @pytest.mark.parametrize("window,stride,pad", [(2, 2, 0), (3, 2, 0), (2, 1, 0), (3, 2, 1)])
    def test_matches_naive(self, window, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        layer = MaxPool2D(window, stride, pad)
        np.testing.assert_allclose(layer.forward(x), naive_pool(x, window, stride, pad, np.max))

    def test_finn_2x2_halves(self):
        layer = MaxPool2D(2)
        assert layer.output_shape((64, 30, 30)) == (64, 15, 15)

    def test_gradcheck(self):
        # Distinct values so argmax is stable under the FD epsilon.
        rng = np.random.default_rng(1)
        x = rng.permutation(np.arange(2 * 2 * 6 * 6, dtype=float)).reshape(2, 2, 6, 6)
        check_layer_gradients(MaxPool2D(2), x, check_params=False)

    def test_gradcheck_overlapping(self):
        rng = np.random.default_rng(2)
        x = rng.permutation(np.arange(1 * 2 * 7 * 7, dtype=float)).reshape(1, 2, 7, 7)
        check_layer_gradients(MaxPool2D(3, 2), x, check_params=False)

    def test_gradient_routes_to_max(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 1] = 5.0
        layer = MaxPool2D(2)
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(dx, expected)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)


class TestAvgPool:
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 3)])
    def test_matches_naive(self, window, stride):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 9, 9))
        layer = AvgPool2D(window, stride)
        np.testing.assert_allclose(layer.forward(x), naive_pool(x, window, stride, 0, np.mean))

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 6, 6))
        check_layer_gradients(AvgPool2D(2), x, check_params=False)

    def test_gradcheck_overlapping(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 7, 7))
        check_layer_gradients(AvgPool2D(3, 2), x, check_params=False)

    def test_constant_input_preserved(self):
        x = np.full((1, 2, 4, 4), 3.5)
        np.testing.assert_allclose(AvgPool2D(2).forward(x), np.full((1, 2, 2, 2), 3.5))


class TestGlobalAvgPool:
    def test_forward(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 10, 6, 6))
        np.testing.assert_allclose(GlobalAvgPool2D().forward(x), x.mean(axis=(2, 3)))

    def test_output_shape(self):
        assert GlobalAvgPool2D().output_shape((10, 8, 8)) == (10,)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4, 4))
        check_layer_gradients(GlobalAvgPool2D(), x, check_params=False)
