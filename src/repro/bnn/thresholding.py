"""BatchNorm-to-threshold folding.

FINN deploys BNNs by absorbing each BatchNorm + sign() pair into a
per-channel threshold on the integer XNOR-popcount accumulator:

    sign(gamma * (y - mu) / sqrt(var + eps) + beta)
        == +1  iff  s * (y - tau) >= 0

with ``tau = mu - beta * sqrt(var + eps) / gamma`` and ``s = sign(gamma)``
(for ``gamma == 0`` the output is the constant ``sign(beta)``).  This is
the "compare against a threshold for binarized activation" datapath the
paper describes in Section II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers.batchnorm import BatchNorm

__all__ = ["ChannelThresholds", "fold_batchnorm"]


@dataclass(frozen=True)
class ChannelThresholds:
    """Per-channel threshold comparison parameters.

    ``apply(y)`` reproduces ``sign(batchnorm(y))`` exactly (eval-mode
    statistics), including the ``sign(0) = +1`` convention.
    """

    tau: np.ndarray          # (channels,) threshold on the accumulator
    sign: np.ndarray         # (channels,) in {-1, 0, +1}; 0 = constant output
    constant: np.ndarray     # (channels,) output used where sign == 0

    def __post_init__(self):
        if not (self.tau.shape == self.sign.shape == self.constant.shape):
            raise ValueError("threshold component shapes must match")

    @property
    def num_channels(self) -> int:
        return int(self.tau.shape[0])

    def apply(self, y: np.ndarray, channel_axis: int = 1) -> np.ndarray:
        """Threshold accumulator ``y`` to {-1, +1} along ``channel_axis``."""
        if y.shape[channel_axis] != self.num_channels:
            raise ValueError(
                f"expected {self.num_channels} channels on axis {channel_axis}, "
                f"got {y.shape[channel_axis]}"
            )
        shape = [1] * y.ndim
        shape[channel_axis] = self.num_channels
        tau = self.tau.reshape(shape)
        sgn = self.sign.reshape(shape)
        const = self.constant.reshape(shape)
        decided = np.where(sgn * (y - tau) >= 0.0, 1.0, -1.0)
        return np.where(sgn == 0, const, decided)


def fold_batchnorm(bn: BatchNorm) -> ChannelThresholds:
    """Fold an eval-mode BatchNorm + sign() into channel thresholds."""
    gamma = bn.gamma.value
    beta = bn.beta.value
    mu = bn.running_mean.value
    std = np.sqrt(bn.running_var.value + bn.eps)

    sign = np.sign(gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(gamma != 0.0, mu - beta * std / np.where(gamma == 0, 1.0, gamma), 0.0)
    constant = np.where(beta >= 0.0, 1.0, -1.0)
    return ChannelThresholds(tau=tau, sign=sign, constant=constant)
