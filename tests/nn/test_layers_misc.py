"""Activations, dropout, flatten."""

import numpy as np
import pytest

from repro.nn import Dropout, Flatten, HardTanh, ReLU, Sigmoid, Tanh
from gradcheck import check_layer_gradients


class TestActivations:
    def test_relu_forward(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        np.testing.assert_allclose(ReLU().forward(x), [[0.0, 0.0, 3.0]])

    def test_relu_gradcheck(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7)) + 0.05  # keep away from the kink
        x[np.abs(x) < 1e-2] = 0.5
        check_layer_gradients(ReLU(), x)

    def test_sigmoid_gradcheck(self):
        rng = np.random.default_rng(1)
        check_layer_gradients(Sigmoid(), rng.normal(size=(4, 5)))

    def test_tanh_gradcheck(self):
        rng = np.random.default_rng(2)
        check_layer_gradients(Tanh(), rng.normal(size=(4, 5)))

    def test_hardtanh_clips(self):
        x = np.array([[-3.0, -0.5, 0.5, 3.0]])
        np.testing.assert_allclose(HardTanh().forward(x), [[-1.0, -0.5, 0.5, 1.0]])

    def test_hardtanh_gradient_zero_outside(self):
        layer = HardTanh()
        layer.forward(np.array([[-3.0, 0.5, 3.0]]))
        dx = layer.backward(np.ones((1, 3)))
        np.testing.assert_allclose(dx, [[0.0, 1.0, 0.0]])

    def test_hardtanh_gradcheck_interior(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, size=(3, 6))
        check_layer_gradients(HardTanh(), x)


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.5)
        d.eval_mode()
        x = np.random.default_rng(0).normal(size=(10, 10))
        np.testing.assert_allclose(d.forward(x), x)

    def test_training_zeroes_expected_fraction(self):
        d = Dropout(0.3, rng=np.random.default_rng(0))
        d.train_mode()
        x = np.ones((200, 200))
        y = d.forward(x)
        zero_frac = float((y == 0).mean())
        assert zero_frac == pytest.approx(0.3, abs=0.02)

    def test_inverted_scaling_preserves_mean(self):
        d = Dropout(0.4, rng=np.random.default_rng(1))
        d.train_mode()
        x = np.ones((300, 300))
        assert d.forward(x).mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        d = Dropout(0.5, rng=np.random.default_rng(2))
        d.train_mode()
        x = np.ones((20, 20))
        y = d.forward(x)
        dx = d.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, y)

    def test_rate_zero_is_identity_even_training(self):
        d = Dropout(0.0)
        d.train_mode()
        x = np.random.default_rng(3).normal(size=(5, 5))
        np.testing.assert_allclose(d.forward(x), x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestFlatten:
    def test_forward_shape(self):
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        assert Flatten().forward(x).shape == (2, 12)

    def test_roundtrip(self):
        f = Flatten()
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        y = f.forward(x)
        np.testing.assert_allclose(f.backward(y), x)

    def test_output_shape(self):
        assert Flatten().output_shape((256, 1, 1)) == (256,)
