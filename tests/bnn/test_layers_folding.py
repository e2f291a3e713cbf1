"""Binarized layers, threshold folding, and folded-network equivalence."""

import numpy as np
import pytest

from repro.bnn import (
    BinaryActivation,
    BinaryConv2D,
    BinaryDense,
    FoldedBNN,
    binarize_sign,
    fold_batchnorm,
    fold_network,
)
from repro.nn import (
    Adam,
    BatchNorm,
    Dense,
    Flatten,
    MaxPool2D,
    Sequential,
    SquaredHinge,
    Trainer,
)


class TestBinaryLayers:
    def test_conv_uses_binarized_weights(self):
        rng = np.random.default_rng(0)
        layer = BinaryConv2D(2, 3, 3, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        # Reference: same conv with explicitly binarized weights.
        from repro.nn import Conv2D

        ref = Conv2D(2, 3, 3, use_bias=False, rng=np.random.default_rng(99))
        ref.weight.value = binarize_sign(layer.weight.value)
        np.testing.assert_allclose(out, ref.forward(x))

    def test_latent_weights_untouched_by_forward(self):
        rng = np.random.default_rng(1)
        layer = BinaryConv2D(2, 2, 3, rng=rng)
        before = layer.weight.value.copy()
        layer.forward(rng.normal(size=(1, 2, 5, 5)))
        np.testing.assert_allclose(layer.weight.value, before)

    def test_dense_uses_binarized_weights(self):
        rng = np.random.default_rng(2)
        layer = BinaryDense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(layer.forward(x), x @ binarize_sign(layer.weight.value))

    def test_straight_through_gradient_nonzero(self):
        rng = np.random.default_rng(3)
        layer = BinaryDense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        layer.forward(x)
        layer.backward(np.ones((2, 3)))
        assert np.abs(layer.weight.grad).sum() > 0

    def test_binary_activation_values(self):
        act = BinaryActivation()
        out = act.forward(np.array([[-0.5, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[-1.0, 1.0, 1.0]])
        dx = act.backward(np.ones((1, 3)))
        np.testing.assert_allclose(dx, [[1.0, 1.0, 0.0]])  # |2.0| > 1 cancelled

    def test_no_bias_anywhere(self):
        assert BinaryConv2D(2, 2, 3).bias is None
        assert BinaryDense(2, 2).bias is None


class TestFoldBatchnorm:
    def _check_equivalence(self, bn, y):
        bn.eval_mode()
        want = binarize_sign(bn.forward(y))
        got = fold_batchnorm(bn).apply(y, channel_axis=1)
        np.testing.assert_allclose(got, want)

    def test_positive_gamma(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(4)
        bn.running_mean.value = rng.normal(size=4)
        bn.running_var.value = rng.uniform(0.5, 2.0, size=4)
        bn.gamma.value = rng.uniform(0.5, 2.0, size=4)
        bn.beta.value = rng.normal(size=4)
        self._check_equivalence(bn, rng.normal(size=(8, 4)) * 3)

    def test_negative_gamma_flips_comparison(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm(3)
        bn.gamma.value = np.array([-1.0, -0.5, -2.0])
        bn.beta.value = rng.normal(size=3)
        bn.running_mean.value = rng.normal(size=3)
        bn.running_var.value = rng.uniform(0.5, 2.0, size=3)
        self._check_equivalence(bn, rng.normal(size=(16, 3)) * 2)

    def test_zero_gamma_constant_output(self):
        bn = BatchNorm(2)
        bn.gamma.value = np.array([0.0, 0.0])
        bn.beta.value = np.array([0.5, -0.5])
        y = np.random.default_rng(2).normal(size=(4, 2))
        out = fold_batchnorm(bn).apply(y)
        np.testing.assert_allclose(out[:, 0], 1.0)
        np.testing.assert_allclose(out[:, 1], -1.0)

    def test_4d_application(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(3)
        bn.running_mean.value = rng.normal(size=3)
        bn.running_var.value = rng.uniform(0.5, 2.0, size=3)
        bn.gamma.value = rng.uniform(0.2, 2.0, size=3)
        bn.beta.value = rng.normal(size=3)
        y = rng.normal(size=(2, 3, 4, 4)) * 2
        bn.eval_mode()
        want = binarize_sign(bn.forward(y))
        got = fold_batchnorm(bn).apply(y, channel_axis=1)
        np.testing.assert_allclose(got, want)

    def test_channel_mismatch_raises(self):
        bn = BatchNorm(3)
        with pytest.raises(ValueError):
            fold_batchnorm(bn).apply(np.zeros((2, 4)))


def tiny_bnn(rng):
    """A miniature CNV-style binarized net for 8x8x2 inputs, 3 classes."""
    return Sequential(
        [
            BinaryConv2D(2, 8, 3, rng=rng),          # 8x8 -> 6x6
            BatchNorm(8),
            BinaryActivation(),
            MaxPool2D(2),                              # 6x6 -> 3x3
            BinaryConv2D(8, 8, 3, rng=rng),          # 3x3 -> 1x1
            BatchNorm(8),
            BinaryActivation(),
            Flatten(),
            BinaryDense(8, 8, rng=rng),
            BatchNorm(8),
            BinaryActivation(),
            BinaryDense(8, 3, rng=rng),
            BatchNorm(3),
        ],
        name="tiny_bnn",
    )


def _materialize_running_stats(net, x, rng):
    """Run a few training-mode forwards so BN running stats are non-trivial."""
    net.train_mode()
    for _ in range(5):
        net.forward(x + 0.01 * rng.normal(size=x.shape))
    net.eval_mode()


class TestFoldNetwork:
    def test_decisions_match_training_net_eval(self):
        rng = np.random.default_rng(0)
        net = tiny_bnn(rng)
        x = binarize_sign(rng.normal(size=(32, 2, 8, 8)))  # binary-ish inputs
        _materialize_running_stats(net, x, rng)

        folded = fold_network(net, num_classes=3)
        want = net.forward(x)  # eval mode scores (after final BN)
        got = folded.forward(x)
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
        # Scores equal too, since final affine is folded exactly.
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_real_valued_first_layer_input(self):
        rng = np.random.default_rng(1)
        net = tiny_bnn(rng)
        x = rng.uniform(-1, 1, size=(16, 2, 8, 8))  # non-binary inputs
        _materialize_running_stats(net, x, rng)
        folded = fold_network(net, num_classes=3)
        np.testing.assert_allclose(folded.forward(x), net.forward(x), rtol=1e-9, atol=1e-9)

    def test_inner_stages_use_packed_path(self):
        rng = np.random.default_rng(2)
        net = tiny_bnn(rng)
        folded = fold_network(net, num_classes=3)
        from repro.bnn import FoldedConv

        convs = [s for s in folded.stages if isinstance(s, FoldedConv)]
        assert convs[0].binary_input is False
        assert all(c.binary_input for c in convs[1:])

    def test_class_scores_truncate_padding(self):
        rng = np.random.default_rng(3)
        net = tiny_bnn(rng)
        x = rng.uniform(-1, 1, size=(4, 2, 8, 8))
        _materialize_running_stats(net, x, rng)
        folded = fold_network(net, num_classes=2)  # pretend 1 pad output
        assert folded.class_scores(x).shape == (4, 2)
        assert folded.forward(x).shape == (4, 3)

    def test_unfoldable_layer_raises(self):
        from repro.nn import ReLU

        net = Sequential([ReLU()])
        with pytest.raises(TypeError):
            fold_network(net)

    def test_missing_bn_act_raises(self):
        net = Sequential([BinaryConv2D(2, 2, 3), MaxPool2D(2)])
        with pytest.raises(TypeError):
            fold_network(net)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FoldedBNN([])

    def test_padded_inner_conv_pads_with_zero_like_the_training_net(self):
        # The training net zero-pads its ±1 maps, so a pad tap adds 0 to
        # the dot product; padding with -1 instead moves scores by several
        # units and flips decisions.
        rng = np.random.default_rng(7)
        net = Sequential(
            [
                BinaryConv2D(2, 8, 3, rng=rng), BatchNorm(8), BinaryActivation(),
                BinaryConv2D(8, 8, 3, pad=1, rng=rng), BatchNorm(8), BinaryActivation(),
                MaxPool2D(2),
                Flatten(),
                BinaryDense(8 * 3 * 3, 3, rng=rng),
                BatchNorm(3),
            ]
        )
        x = rng.uniform(-1, 1, size=(64, 2, 8, 8))
        _materialize_running_stats(net, x, rng)
        folded = fold_network(net, num_classes=3)
        want = net.forward(x)
        got = folded.forward(x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_batched_forward_consistent(self):
        rng = np.random.default_rng(5)
        net = tiny_bnn(rng)
        x = rng.uniform(-1, 1, size=(10, 2, 8, 8))
        _materialize_running_stats(net, x, rng)
        folded = fold_network(net, num_classes=3)
        np.testing.assert_allclose(
            folded.forward(x, batch_size=3), folded.forward(x, batch_size=100)
        )


class TestBNNTraining:
    def test_bnn_learns_simple_task(self):
        # Binarized net should learn a 2-class pattern well above chance.
        rng = np.random.default_rng(6)
        n = 120
        y = rng.integers(0, 2, size=n)
        x = np.zeros((n, 2, 8, 8))
        x[y == 0, 0, :4, :] = 1.0   # class 0: top half lit in channel 0
        x[y == 1, 1, 4:, :] = 1.0   # class 1: bottom half lit in channel 1
        x += 0.2 * rng.normal(size=x.shape)
        x = np.clip(x, -1, 1)

        net = Sequential(
            [
                BinaryConv2D(2, 8, 3, rng=rng),
                BatchNorm(8),
                BinaryActivation(),
                MaxPool2D(2),
                Flatten(),
                BinaryDense(8 * 3 * 3, 2, rng=rng),
                BatchNorm(2),
            ]
        )
        from repro.bnn import clip_weights

        opt = Adam(net.params(), lr=0.01, post_update=clip_weights)
        trainer = Trainer(net, SquaredHinge(), opt, rng=rng)
        trainer.fit(x, y, epochs=15, batch_size=32)
        acc = trainer.evaluate(x, y)
        assert acc > 0.9

        # And the folded deployment net agrees with the trained net.
        folded = fold_network(net, num_classes=2)
        np.testing.assert_array_equal(folded.predict(x), net.predict_classes(x))
