"""Serving: adaptive DMU threshold control under host-saturating load.

The scenario of the ISSUE acceptance criteria: offered load sits at 90%
of the Eq. (1) capacity for the target rerun ratio.  A naive static
threshold (picked for accuracy as if the host were free) flags ~70% of
traffic, saturates the bounded host queue and sheds answers; the
adaptive controller, started from the *same* bad threshold, walks it
down until the steady-state rerun ratio holds the target — within
±0.05 — and sustains throughput within 20% of the analytic bound.
"""

from conftest import save_result

from repro.obs import ladder_eq1_residual
from repro.serve import ServeBenchConfig, format_serve_bench, run_serve_bench

CONFIG = ServeBenchConfig()  # defaults: R_target=0.3, t_fp=8 ms, t_bnn=0.25 ms


def test_adaptive_controller_holds_target_and_bound(benchmark):
    report = benchmark.pedantic(run_serve_bench, args=(CONFIG,), rounds=1, iterations=1)
    save_result("serve_adaptive", format_serve_bench(report))

    adaptive, naive = report.adaptive, report.naive

    # The naive threshold saturates the host queue and degrades heavily.
    assert naive.total.queues["host"].max_depth == CONFIG.host_queue_capacity
    assert naive.steady.degraded_ratio > 0.2

    # The controller holds the steady-state rerun ratio at the target ...
    assert abs(adaptive.steady.rerun_ratio - CONFIG.target_rerun_ratio) <= 0.05
    # ... without shedding load ...
    assert adaptive.steady.degraded_ratio < 0.02
    # ... at a sustained throughput within 20% of the Eq. (1) bound.
    assert adaptive.steady.images_per_second >= 0.8 * CONFIG.analytic_bound_fps
    # It moved the threshold itself (same naive starting point).
    assert adaptive.final_threshold < CONFIG.naive_threshold - 0.05

    # The Eq. (1) comparator agrees: the served interval sits above the
    # Eq. (1) ideal at the realized rerun ratio, but not wildly above.
    eq1 = ladder_eq1_residual(
        adaptive.steady.seconds_per_image,
        [CONFIG.t_bnn, CONFIG.t_fp],
        [adaptive.steady.rerun_ratio],
        num_host_workers=CONFIG.num_host_workers,
    )
    assert eq1["relative_residual"] > -0.05
    assert eq1["relative_residual"] < 0.5
