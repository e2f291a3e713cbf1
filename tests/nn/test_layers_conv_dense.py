"""Conv2D and Dense: forward correctness and gradient checks."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense
from gradcheck import check_layer_gradients


def naive_conv2d(x, w, b, stride, pad):
    n, c, h, w_in = x.shape
    od, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    out = np.zeros((n, od, oh, ow))
    for bi in range(n):
        for o in range(od):
            for oy in range(oh):
                for ox in range(ow):
                    patch = xp[bi, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                    out[bi, o, oy, ox] = (patch * w[o]).sum() + (b[o] if b is not None else 0.0)
    return out


class TestConv2DForward:
    @pytest.mark.parametrize(
        "cin,cout,k,stride,pad,size",
        [(3, 4, 3, 1, 0, 8), (2, 3, 3, 2, 1, 7), (1, 2, 5, 1, 2, 6), (4, 4, 1, 1, 0, 5)],
    )
    def test_matches_naive(self, cin, cout, k, stride, pad, size):
        rng = np.random.default_rng(7)
        layer = Conv2D(cin, cout, k, stride=stride, pad=pad, rng=rng)
        x = rng.normal(size=(2, cin, size, size))
        got = layer.forward(x)
        want = naive_conv2d(x, layer.weight.value, layer.bias.value, stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_no_bias(self):
        rng = np.random.default_rng(7)
        layer = Conv2D(2, 3, 3, use_bias=False, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        want = naive_conv2d(x, layer.weight.value, None, 1, 0)
        np.testing.assert_allclose(layer.forward(x), want, rtol=1e-10, atol=1e-10)
        assert len(layer.params()) == 1

    def test_output_shape(self):
        layer = Conv2D(3, 64, 3)
        assert layer.output_shape((3, 32, 32)) == (64, 30, 30)

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            Conv2D(3, 8, 3).output_shape((4, 32, 32))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Conv2D(0, 4, 3)
        with pytest.raises(ValueError):
            Conv2D(3, 4, 3, stride=0)
        with pytest.raises(ValueError):
            Conv2D(3, 4, 3, pad=-1)

    def test_identity_kernel(self):
        # 1x1 conv with identity weights passes channels through.
        layer = Conv2D(3, 3, 1, use_bias=False)
        layer.weight.value = np.eye(3).reshape(3, 3, 1, 1)
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(layer.forward(x), x)


class TestConv2DBackward:
    @pytest.mark.parametrize(
        "cin,cout,k,stride,pad",
        [(2, 3, 3, 1, 0), (3, 2, 3, 2, 1), (1, 2, 1, 1, 0)],
    )
    def test_gradcheck(self, cin, cout, k, stride, pad):
        rng = np.random.default_rng(11)
        layer = Conv2D(cin, cout, k, stride=stride, pad=pad, rng=rng)
        x = rng.normal(size=(2, cin, 5, 5))
        check_layer_gradients(layer, x)

    def test_backward_before_forward_raises(self):
        layer = Conv2D(2, 2, 3)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2, 3, 3)))

    def test_grad_accumulates(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 2, 3, rng=rng)
        layer.train_mode()
        x = rng.normal(size=(1, 2, 5, 5))
        layer.forward(x)
        layer.backward(np.ones((1, 2, 3, 3)))
        g1 = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2, 3, 3)))
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)


class TestDense:
    def test_forward(self):
        rng = np.random.default_rng(3)
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.weight.value + layer.bias.value
        )

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        layer = Dense(6, 4, rng=rng)
        x = rng.normal(size=(3, 6))
        check_layer_gradients(layer, x)

    def test_gradcheck_no_bias(self):
        rng = np.random.default_rng(5)
        layer = Dense(5, 2, use_bias=False, rng=rng)
        x = rng.normal(size=(2, 5))
        check_layer_gradients(layer, x)

    def test_shape_validation(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 4, 1)))
        with pytest.raises(ValueError):
            layer.output_shape((5,))
        assert layer.output_shape((4,)) == (3,)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(3, 2).backward(np.zeros((1, 2)))

    def test_num_params(self):
        assert Dense(4, 3).num_params() == 4 * 3 + 3
        assert Dense(4, 3, use_bias=False).num_params() == 12
