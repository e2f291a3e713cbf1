"""Dataset substrate: synthetic CIFAR-10 substitute, augmentation, score datasets."""

from .augment import (
    Augmenter,
    random_brightness,
    random_horizontal_flip,
    random_shift,
)
from .dataset import Dataset, LabeledSplits, normalize_to_pm1, synthetic_cifar10
from .score_dataset import ScoreDataset, build_score_dataset
from .synthetic import CLASS_NAMES, SyntheticConfig, generate_images, render_class_image

__all__ = [
    "Augmenter",
    "random_horizontal_flip",
    "random_shift",
    "random_brightness",
    "Dataset",
    "LabeledSplits",
    "synthetic_cifar10",
    "normalize_to_pm1",
    "ScoreDataset",
    "build_score_dataset",
    "CLASS_NAMES",
    "SyntheticConfig",
    "generate_images",
    "render_class_image",
]
