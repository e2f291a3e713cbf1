"""Partially-binarised networks: float classifier head over binary features."""

import numpy as np
import pytest

from repro.bnn import (
    BinaryActivation,
    BinaryConv2D,
    FloatDenseHead,
    fold_network,
    load_folded_bnn,
    save_folded_bnn,
)
from repro.nn import BatchNorm, Dense, Flatten, MaxPool2D, Sequential


def partially_binarized_net(rng):
    """Binary conv features + full-precision Dense classifier."""
    return Sequential(
        [
            BinaryConv2D(2, 8, 3, rng=rng),
            BatchNorm(8),
            BinaryActivation(),
            MaxPool2D(2),
            Flatten(),
            Dense(8 * 3 * 3, 5, rng=rng),
        ]
    )


@pytest.fixture()
def trained(tmp_path):
    rng = np.random.default_rng(0)
    net = partially_binarized_net(rng)
    x = rng.uniform(-1, 1, size=(12, 2, 8, 8))
    net.train_mode()
    for _ in range(3):
        net.forward(x)
    net.eval_mode()
    return net, x


class TestFloatHead:
    def test_fold_matches_training_net(self, trained):
        net, x = trained
        folded = fold_network(net, num_classes=5)
        np.testing.assert_allclose(folded.forward(x), net.forward(x), rtol=1e-9, atol=1e-9)

    def test_head_stage_present(self, trained):
        net, _ = trained
        folded = fold_network(net, num_classes=5)
        assert isinstance(folded.stages[-1], FloatDenseHead)
        assert folded.stages[-1].out_features == 5

    def test_non_terminal_dense_rejected(self):
        rng = np.random.default_rng(1)
        net = Sequential(
            [
                Flatten(),
                Dense(8, 4, rng=rng),   # float dense NOT at the end
                Dense(4, 2, rng=rng),
            ]
        )
        with pytest.raises(TypeError):
            fold_network(net)

    def test_serialization_roundtrip(self, trained, tmp_path):
        net, x = trained
        folded = fold_network(net, num_classes=5)
        path = tmp_path / "partial.npz"
        save_folded_bnn(folded, path)
        loaded = load_folded_bnn(path)
        np.testing.assert_allclose(loaded.forward(x), folded.forward(x))

    def test_head_validation(self):
        with pytest.raises(ValueError):
            FloatDenseHead(np.zeros((3,)), None)
        with pytest.raises(ValueError):
            FloatDenseHead(np.zeros((3, 4)), np.zeros(3))

    def test_head_without_bias(self):
        rng = np.random.default_rng(2)
        net = Sequential(
            [
                BinaryConv2D(2, 8, 3, rng=rng), BatchNorm(8), BinaryActivation(),
                MaxPool2D(2), Flatten(), Dense(8 * 3 * 3, 5, use_bias=False, rng=rng),
            ]
        )
        net.eval_mode()
        folded = fold_network(net, num_classes=5)
        assert folded.stages[-1].bias is None
        x = rng.uniform(-1, 1, size=(7, 2, 8, 8))
        np.testing.assert_allclose(folded.forward(x), net.forward(x), rtol=1e-9, atol=1e-9)
