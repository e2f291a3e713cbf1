"""BatchNorm and LocalResponseNorm tests."""

import numpy as np
import pytest

from repro.nn import BatchNorm, LocalResponseNorm
from gradcheck import check_layer_gradients


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(4)
        bn.train_mode()
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), np.ones(4), atol=1e-3)

    def test_4d_normalizes_per_channel(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(3)
        bn.train_mode()
        x = rng.normal(loc=-1.0, scale=4.0, size=(8, 3, 5, 5))
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-10)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2, momentum=0.0)  # momentum 0: running stats = last batch
        bn.train_mode()
        rng = np.random.default_rng(1)
        x = rng.normal(loc=5.0, size=(128, 2))
        bn.forward(x)
        bn.eval_mode()
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), np.zeros(2), atol=1e-2)

    def test_gamma_beta_applied(self):
        bn = BatchNorm(2)
        bn.gamma.value = np.array([2.0, 3.0])
        bn.beta.value = np.array([-1.0, 1.0])
        bn.train_mode()
        x = np.random.default_rng(2).normal(size=(256, 2))
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), [-1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), [2.0, 3.0], atol=1e-2)

    def test_gradcheck_2d(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        check_layer_gradients(bn, x, rtol=1e-3, atol=1e-6)

    def test_gradcheck_4d(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(2)
        x = rng.normal(size=(3, 2, 4, 4))
        check_layer_gradients(bn, x, rtol=1e-3, atol=1e-6)

    def test_running_stats_not_trainable(self):
        bn = BatchNorm(4)
        trainable = [p for p in bn.params() if p.trainable]
        assert len(trainable) == 2
        assert len(bn.params()) == 4

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((2, 4)))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BatchNorm(0)
        with pytest.raises(ValueError):
            BatchNorm(3, momentum=1.0)

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((2, 3, 4)))


class TestLRN:
    def test_identity_when_alpha_zero(self):
        lrn = LocalResponseNorm(size=5, alpha=0.0, beta=0.75, k=1.0)
        x = np.random.default_rng(0).normal(size=(2, 8, 4, 4))
        np.testing.assert_allclose(lrn.forward(x), x)

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 3, 3))
        size, alpha, beta, k = 3, 0.5, 0.75, 2.0
        lrn = LocalResponseNorm(size, alpha, beta, k)
        got = lrn.forward(x)
        half = size // 2
        want = np.zeros_like(x)
        for c in range(6):
            lo, hi = max(0, c - half), min(6, c + half + 1)
            denom = (k + alpha / size * (x[:, lo:hi] ** 2).sum(axis=1)) ** beta
            want[:, c] = x[:, c] / denom
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        lrn = LocalResponseNorm(size=3, alpha=0.3, beta=0.75, k=1.5)
        x = rng.normal(size=(2, 5, 3, 3))
        check_layer_gradients(lrn, x, rtol=1e-4, atol=1e-7)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            LocalResponseNorm(size=4)

    def test_non_nchw_rejected(self):
        with pytest.raises(ValueError):
            LocalResponseNorm().forward(np.zeros((2, 3)))
