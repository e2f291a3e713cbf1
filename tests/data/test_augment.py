"""Data augmentation transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.augment import (
    Augmenter,
    random_brightness,
    random_horizontal_flip,
    random_shift,
)


def batch(seed=0, n=8):
    return np.random.default_rng(seed).random((n, 3, 8, 8))


class TestFlip:
    def test_probability_one_flips_all(self):
        x = batch()
        out = random_horizontal_flip(x, np.random.default_rng(0), probability=1.0)
        np.testing.assert_allclose(out, x[:, :, :, ::-1])

    def test_probability_zero_identity(self):
        x = batch()
        out = random_horizontal_flip(x, np.random.default_rng(0), probability=0.0)
        np.testing.assert_allclose(out, x)

    def test_input_untouched(self):
        x = batch()
        copy = x.copy()
        random_horizontal_flip(x, np.random.default_rng(0))
        np.testing.assert_allclose(x, copy)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_horizontal_flip(batch(), np.random.default_rng(0), probability=1.5)


class TestShift:
    def test_zero_shift_identity(self):
        x = batch()
        np.testing.assert_allclose(random_shift(x, np.random.default_rng(0), 0), x)

    def test_shape_preserved(self):
        x = batch()
        assert random_shift(x, np.random.default_rng(0), 3).shape == x.shape

    def test_content_moves(self):
        x = np.zeros((1, 1, 8, 8))
        x[0, 0, 4, 4] = 1.0
        shifted = random_shift(x, np.random.default_rng(3), 2)
        assert shifted.sum() >= 1.0  # peak survives (edge padding)

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_shift(batch(), np.random.default_rng(0), -1)


class TestPhotometric:
    def test_brightness_range(self):
        out = random_brightness(batch(), np.random.default_rng(0), 0.5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_brightness_zero_delta(self):
        x = batch()
        np.testing.assert_allclose(random_brightness(x, np.random.default_rng(0), 0.0), x)

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_brightness(batch(), np.random.default_rng(0), -0.1)


class TestAugmenter:
    def test_pipeline_runs(self):
        aug = Augmenter(seed=0)
        x = batch()
        out = aug(x)
        assert out.shape == x.shape
        assert not np.allclose(out, x)

    def test_deterministic_given_seed(self):
        x = batch()
        np.testing.assert_allclose(Augmenter(seed=5)(x), Augmenter(seed=5)(x))

    def test_custom_transforms(self):
        aug = Augmenter(transforms=[lambda imgs, rng: imgs * 0.5], seed=0)
        np.testing.assert_allclose(aug(batch()), batch() * 0.5)

    def test_rejects_non_nchw(self):
        with pytest.raises(ValueError):
            Augmenter()(np.zeros((3, 8, 8)))

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_property_output_in_unit_range(self, seed):
        x = batch(seed)
        out = Augmenter(seed=seed)(x)
        assert out.min() >= 0.0 and out.max() <= 1.0
