"""Training-time data augmentation.

The CIFAR-10 recipes the paper's host models descend from (cuda-convnet,
NiN, All-CNN) train with mirroring and random crops; this module provides
those plus mild photometric jitter for the numpy trainer.  All transforms
take and return NCHW float tensors in [0, 1] and draw randomness from an
explicit generator.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "random_horizontal_flip",
    "random_shift",
    "random_brightness",
    "Augmenter",
]


def random_horizontal_flip(
    images: np.ndarray, rng: np.random.Generator, probability: float = 0.5
) -> np.ndarray:
    """Mirror each image left-right with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    out = images.copy()
    flip = rng.random(images.shape[0]) < probability
    out[flip] = out[flip, :, :, ::-1]
    return out


def random_shift(
    images: np.ndarray, rng: np.random.Generator, max_shift: int = 3
) -> np.ndarray:
    """Pad-and-crop translation by up to ``max_shift`` pixels per axis."""
    if max_shift < 0:
        raise ValueError("max_shift must be non-negative")
    if max_shift == 0:
        return images.copy()
    n, c, h, w = images.shape
    padded = np.pad(
        images,
        ((0, 0), (0, 0), (max_shift, max_shift), (max_shift, max_shift)),
        mode="edge",
    )
    out = np.empty_like(images)
    offsets = rng.integers(0, 2 * max_shift + 1, size=(n, 2))
    for i, (dy, dx) in enumerate(offsets):
        out[i] = padded[i, :, dy : dy + h, dx : dx + w]
    return out


def random_brightness(
    images: np.ndarray, rng: np.random.Generator, max_delta: float = 0.15
) -> np.ndarray:
    """Add a per-image constant offset in [-max_delta, max_delta]."""
    if max_delta < 0:
        raise ValueError("max_delta must be non-negative")
    delta = rng.uniform(-max_delta, max_delta, size=(images.shape[0], 1, 1, 1))
    return np.clip(images + delta, 0.0, 1.0)


class Augmenter:
    """Composable augmentation pipeline with its own RNG.

    >>> aug = Augmenter(seed=0)
    >>> batch = aug(batch)          # doctest: +SKIP
    """

    def __init__(
        self,
        transforms: Sequence[Callable[[np.ndarray, np.random.Generator], np.ndarray]] | None = None,
        seed: int = 0,
    ):
        self.transforms = list(
            transforms
            if transforms is not None
            else (random_horizontal_flip, random_shift, random_brightness)
        )
        self.rng = np.random.default_rng(seed)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        if images.ndim != 4:
            raise ValueError("images must be (N, C, H, W)")
        out = images
        for transform in self.transforms:
            out = transform(out, self.rng)
        return out
