"""End-to-end integration: tiny real cascade from raw data to Table-V-style
metrics, exercising every subsystem together in one flow."""

import numpy as np
import pytest

from repro.bnn import clip_weights, fold_network, load_folded_bnn, save_folded_bnn
from repro.core import MultiPrecisionPipeline, train_dmu
from repro.data import build_score_dataset, normalize_to_pm1, synthetic_cifar10
from repro.hetero import FPGAExecutor, HostExecutor, simulate_cascade
from repro.models import build_finn_cnv, build_model_a
from repro.nn import Adam, SoftmaxCrossEntropy, SquaredHinge, Trainer


@pytest.fixture(scope="module")
def tiny_system():
    """Train a miniature full system once for this module."""
    rng = np.random.default_rng(0)
    splits = synthetic_cifar10(num_train=400, num_test=150, seed=0)

    bnn = build_finn_cnv(scale=0.1, rng=rng)
    Trainer(
        bnn, SquaredHinge(), Adam(bnn.params(), lr=3e-3, post_update=clip_weights), rng=rng
    ).fit(normalize_to_pm1(splits.train.images), splits.train.labels, epochs=3, batch_size=64)
    folded = fold_network(bnn, num_classes=10)

    host = build_model_a(scale=0.2, rng=rng)
    Trainer(host, SoftmaxCrossEntropy(), Adam(host.params(), lr=1e-3), rng=rng).fit(
        splits.train.images, splits.train.labels, epochs=3, batch_size=64
    )

    scores = build_score_dataset(
        folded.class_scores(normalize_to_pm1(splits.train.images)), splits.train.labels
    )
    dmu = train_dmu(scores, epochs=20, rng=rng)
    return splits, folded, host, dmu


class TestEndToEnd:
    def test_cascade_runs_and_improves_or_matches_bnn(self, tiny_system):
        splits, folded, host, dmu = tiny_system
        pipeline = MultiPrecisionPipeline(folded, dmu, host, threshold=0.7)
        result = pipeline.classify(
            splits.test.images, bnn_images=normalize_to_pm1(splits.test.images)
        )
        labels = splits.test.labels
        assert result.accuracy(labels) > 0.15  # well above 10-class chance
        assert 0.0 <= result.rerun_ratio <= 1.0

    def test_cascade_to_simulator_to_rate(self, tiny_system):
        splits, folded, host, dmu = tiny_system
        pipeline = MultiPrecisionPipeline(folded, dmu, host, threshold=0.7)
        result = pipeline.classify(
            splits.test.images, bnn_images=normalize_to_pm1(splits.test.images)
        )
        sim = simulate_cascade(
            FPGAExecutor(interval_seconds=1 / 430.15, fill_seconds=0.01),
            HostExecutor(seconds_per_image=1 / 29.68),
            num_images=len(splits.test),
            batch_size=50,
            rerun_mask=result.rerun_mask,
        )
        assert sim.rerun_ratio == pytest.approx(result.rerun_ratio, abs=1e-9)
        assert 29.68 * 0.9 <= sim.images_per_second <= 430.15 * 1.1

    def test_deploy_roundtrip_in_cascade(self, tiny_system, tmp_path):
        splits, folded, host, dmu = tiny_system
        path = tmp_path / "deploy.npz"
        save_folded_bnn(folded, path)
        loaded = load_folded_bnn(path)
        a = MultiPrecisionPipeline(folded, dmu, host, threshold=0.7).classify(
            splits.test.images, bnn_images=normalize_to_pm1(splits.test.images)
        )
        b = MultiPrecisionPipeline(loaded, dmu, host, threshold=0.7).classify(
            splits.test.images, bnn_images=normalize_to_pm1(splits.test.images)
        )
        np.testing.assert_array_equal(a.predictions, b.predictions)
