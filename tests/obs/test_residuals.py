"""Eq. (1) and Eqs. (3)-(5) predicted-vs-measured residuals."""

import pytest

from repro.core import multi_precision_interval
from repro.obs import eq345_layer_residuals, ladder_eq1_residual


def eq1_residual(measured, t_fp, t_bnn, rerun_ratio, num_host_workers=1) -> dict:
    """Eq. (1) is the two-stage call of the one comparator."""
    return ladder_eq1_residual(
        measured, [t_bnn, t_fp], [rerun_ratio],
        stage_names=["bnn", "host"], num_host_workers=num_host_workers,
    )


def test_eq1_residual_host_bound():
    # t_fp*R/workers = 8ms*0.5 = 4ms > t_bnn=1ms -> predicted 4ms/img.
    out = eq1_residual(0.005, t_fp=0.008, t_bnn=0.001, rerun_ratio=0.5)
    assert out["predicted_seconds_per_image"] == pytest.approx(0.004)
    assert out["residual_seconds_per_image"] == pytest.approx(0.001)
    assert out["relative_residual"] == pytest.approx(0.25)
    assert out["bottleneck_stage"] == "host"


def test_eq1_residual_bnn_bound_with_worker_pool():
    # Host pool of 4 drops its per-image share below t_bnn.
    out = eq1_residual(0.0012, t_fp=0.008, t_bnn=0.001, rerun_ratio=0.5,
                       num_host_workers=4)
    assert out["predicted_seconds_per_image"] == pytest.approx(0.001)
    assert out["bottleneck_stage"] == "bnn"
    assert out["stages"][1]["t_image"] == pytest.approx(0.002)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("rerun_ratio", [0.0, 0.02, 0.3, 1.0])
def test_eq1_residual_is_the_two_stage_ladder_residual(rerun_ratio, workers):
    """The two-stage call is Eq. (1) as written, host term over the pool."""
    out = eq1_residual(0.0031, t_fp=0.008, t_bnn=0.00025,
                       rerun_ratio=rerun_ratio, num_host_workers=workers)
    predicted = multi_precision_interval(0.008 / workers, 0.00025, rerun_ratio)
    assert out["predicted_seconds_per_image"] == predicted
    assert out["measured_seconds_per_image"] == 0.0031
    assert out["residual_seconds_per_image"] == 0.0031 - predicted
    assert out["relative_residual"] == (0.0031 - predicted) / predicted
    assert out["num_host_workers"] == workers
    assert out["forward_ratios"] == [rerun_ratio]
    assert out["bottleneck_stage"] == (
        "host" if 0.008 / workers * rerun_ratio > 0.00025 else "bnn"
    )


def test_eq345_shares_sum_to_one():
    layers = [
        {"label": "conv2", "rows_per_image": 784, "n_out": 16, "n_bits": 144,
         "measured_seconds": 0.010},
        {"label": "fc1", "rows_per_image": 1, "n_out": 64, "n_bits": 256,
         "measured_seconds": 0.001},
    ]
    rows = eq345_layer_residuals(layers)
    assert [r["label"] for r in rows] == ["conv2", "fc1"]
    assert sum(r["predicted_fraction"] for r in rows) == pytest.approx(1.0)
    assert sum(r["measured_fraction"] for r in rows) == pytest.approx(1.0)
    for r in rows:
        assert r["residual_fraction"] == pytest.approx(
            r["measured_fraction"] - r["predicted_fraction"]
        )
    # conv2 dominates the op count, so its predicted share must too.
    assert rows[0]["predicted_fraction"] > 0.9


def test_eq345_validates_input():
    with pytest.raises(ValueError):
        eq345_layer_residuals([{"label": "x"}])
