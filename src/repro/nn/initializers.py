"""Weight initialization schemes.

Every initializer takes an explicit :class:`numpy.random.Generator` so that
all experiments in the repository are reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "glorot_uniform",
    "he_normal",
    "fan_in_and_fan_out",
]


def fan_in_and_fan_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor shape.

    Dense weights are ``(in, out)``; convolution weights are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    if len(shape) == 1:
        return shape[0], shape[0]
    raise ValueError(f"cannot infer fans for shape {shape}")


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization (good for tanh/linear)."""
    fan_in, fan_out = fan_in_and_fan_out(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = fan_in_and_fan_out(shape)
    stddev = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, stddev, size=shape)
