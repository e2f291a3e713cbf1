"""Losses and optimizers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BinaryCrossEntropy,
    Parameter,
    SGD,
    SoftmaxCrossEntropy,
    SquaredHinge,
)
from gradcheck import numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss = SoftmaxCrossEntropy().forward(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_log_k(self):
        k = 10
        logits = np.zeros((4, k))
        loss = SoftmaxCrossEntropy().forward(logits, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(k))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        ce = SoftmaxCrossEntropy()
        ce.forward(logits, targets)
        analytic = ce.backward()
        num = numerical_gradient(lambda z: SoftmaxCrossEntropy().forward(z, targets), logits.copy())
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3, 4)), np.array([0, 1]))


class TestBinaryCrossEntropy:
    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(8, 1))
        targets = rng.integers(0, 2, size=8)
        bce = BinaryCrossEntropy()
        bce.forward(logits, targets)
        analytic = bce.backward()
        num = numerical_gradient(lambda z: BinaryCrossEntropy().forward(z, targets), logits.copy())
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)

    def test_confident_correct_is_cheap(self):
        loss_good = BinaryCrossEntropy().forward(np.array([10.0]), np.array([1]))
        loss_bad = BinaryCrossEntropy().forward(np.array([10.0]), np.array([0]))
        assert loss_good < 1e-3 < loss_bad

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BinaryCrossEntropy().forward(np.zeros(3), np.zeros(4))


class TestSquaredHinge:
    def test_zero_when_margins_met(self):
        logits = np.array([[2.0, -2.0, -2.0]])
        assert SquaredHinge().forward(logits, np.array([0])) == pytest.approx(0.0)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 1])
        sh = SquaredHinge()
        sh.forward(logits, targets)
        analytic = sh.backward()
        num = numerical_gradient(lambda z: SquaredHinge().forward(z, targets), logits.copy())
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.value, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v = -1
        np.testing.assert_allclose(p.value, [-1.0])
        p.grad = np.array([1.0])
        opt.step()  # v = -1.9
        np.testing.assert_allclose(p.value, [-2.9])

    def test_weight_decay(self):
        p = Parameter(np.array([10.0]))
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.value, [10.0 - 0.1 * 0.5 * 10.0])

    def test_skips_frozen(self):
        frozen = Parameter(np.array([1.0]), trainable=False)
        frozen.grad = np.array([1.0])
        opt = SGD([frozen], lr=0.1)
        opt.step()
        np.testing.assert_allclose(frozen.value, [1.0])

    def test_post_update_hook(self):
        p = Parameter(np.array([0.99]))
        p.grad = np.array([-10.0])
        opt = SGD([p], lr=1.0, post_update=lambda q: np.clip(q.value, -1, 1, out=q.value))
        opt.step()
        np.testing.assert_allclose(p.value, [1.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([5.0])
        SGD([p], lr=0.1).zero_grad()
        np.testing.assert_allclose(p.grad, [0.0])


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step ~= lr * sign(grad).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(p.value, [-0.1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            p.grad = 2.0 * (p.value - 1.0)
            opt.step()
        np.testing.assert_allclose(p.value, [1.0], atol=1e-2)

    def test_sgd_and_adam_minimize_rosenbrock_ish(self):
        # A stiffer 2-D bowl: f = (x-2)^2 + 10*(y+1)^2.
        for opt_cls, kwargs in [(SGD, {"lr": 0.02, "momentum": 0.9}), (Adam, {"lr": 0.1})]:
            p = Parameter(np.array([0.0, 0.0]))
            opt = opt_cls([p], **kwargs)
            for _ in range(300):
                opt.zero_grad()
                p.grad = np.array([2 * (p.value[0] - 2.0), 20 * (p.value[1] + 1.0)])
                opt.step()
            np.testing.assert_allclose(p.value, [2.0, -1.0], atol=0.05)
