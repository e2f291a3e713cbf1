"""Eq. (1) and Eqs. (3)-(5) predicted-vs-measured residuals."""

import pytest

from repro.obs import eq1_residual, eq345_layer_residuals


def test_eq1_residual_host_bound():
    # t_fp*R/workers = 8ms*0.5 = 4ms > t_bnn=1ms -> predicted 4ms/img.
    out = eq1_residual(
        measured_seconds_per_image=0.005,
        t_fp=0.008, t_bnn=0.001, rerun_ratio=0.5, num_host_workers=1,
    )
    assert out["predicted_seconds_per_image"] == pytest.approx(0.004)
    assert out["residual_seconds_per_image"] == pytest.approx(0.001)
    assert out["relative_residual"] == pytest.approx(0.25)


def test_eq1_residual_bnn_bound_with_worker_pool():
    # Host pool of 4 drops its per-image share below t_bnn.
    out = eq1_residual(
        measured_seconds_per_image=0.0012,
        t_fp=0.008, t_bnn=0.001, rerun_ratio=0.5, num_host_workers=4,
    )
    assert out["predicted_seconds_per_image"] == pytest.approx(0.001)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("rerun_ratio", [0.0, 0.02, 0.3, 1.0])
def test_eq1_residual_is_the_two_stage_ladder_residual(rerun_ratio, workers):
    """Every key the two dicts share holds the same value, exactly."""
    from repro.obs import ladder_eq1_residual

    two = eq1_residual(0.0031, t_fp=0.008, t_bnn=0.00025,
                       rerun_ratio=rerun_ratio, num_host_workers=workers)
    general = ladder_eq1_residual(
        0.0031, stage_times=[0.00025, 0.008], forward_ratios=[rerun_ratio],
        stage_names=["bnn", "host"], num_host_workers=workers,
    )
    shared = set(two) & set(general)
    assert {"predicted_seconds_per_image", "measured_seconds_per_image",
            "residual_seconds_per_image", "relative_residual",
            "num_host_workers"} <= shared
    for key in shared:
        assert two[key] == general[key], key
    # ... and the 2-stage-only keys echo the inputs, as they always did.
    assert (two["rerun_ratio"], two["t_fp"], two["t_bnn"]) == (rerun_ratio, 0.008, 0.00025)
    assert general["forward_ratios"] == [rerun_ratio]
    assert general["bottleneck_stage"] == (
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
