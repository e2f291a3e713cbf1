"""Comparison of simulated/served cascade timing against Eq. (1)/(1N).

Both serving helpers evaluate the generalized Eq. (1N) bound
``max_i t_i * R_i`` (``docs/LADDER.md``); they differ only in the ratio
they feed it.  :func:`compare_serving_with_eq1` is the two-stage call at
the paper's completions-based ``R_rerun``;
:func:`compare_serving_with_ladder` reads the per-hop forward ratios a
serving run actually measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..core.analytic import ladder_interval, multi_precision_interval
from .scheduler import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..serve.metrics import MetricsSnapshot

__all__ = [
    "AnalyticComparison",
    "compare_with_eq1",
    "compare_serving_with_eq1",
    "compare_serving_with_ladder",
]


@dataclass(frozen=True)
class AnalyticComparison:
    """Simulated vs analytic per-image interval."""

    simulated_seconds_per_image: float
    analytic_seconds_per_image: float

    @property
    def relative_error(self) -> float:
        """(sim - analytic) / analytic; positive when Eq. (1) is optimistic."""
        return (
            self.simulated_seconds_per_image - self.analytic_seconds_per_image
        ) / self.analytic_seconds_per_image

    @property
    def simulated_fps(self) -> float:
        return 1.0 / self.simulated_seconds_per_image

    @property
    def analytic_fps(self) -> float:
        return 1.0 / self.analytic_seconds_per_image


def compare_with_eq1(
    result: SimulationResult, t_fp: float, t_bnn: float
) -> AnalyticComparison:
    """Compare a simulation against Eq. (1) at the realized rerun ratio.

    Eq. (1) is a steady-state approximation: it ignores the pipeline
    ramp-up, the trailing host call, and per-batch rounding, so the
    simulated interval is expected to sit slightly above it.
    """
    analytic = multi_precision_interval(t_fp, t_bnn, result.rerun_ratio)
    return AnalyticComparison(
        simulated_seconds_per_image=result.seconds_per_image,
        analytic_seconds_per_image=analytic,
    )


def compare_serving_with_eq1(
    snapshot: "MetricsSnapshot", t_fp: float, t_bnn: float, num_host_workers: int = 1
) -> AnalyticComparison:
    """Compare a live-serving window against Eq. (1), like the simulator.

    The served system differs from Eq. (1)'s ideal in exactly the ways
    the simulator does (ramp-up, batching quantisation) plus queueing and
    thread scheduling, so the measured interval sits above the bound; the
    host term is divided by the worker-pool size since Eq. (1) models a
    single host executor.  The ratio is the completions-based
    ``snapshot.rerun_ratio``, not the per-rung arrivals ratio of
    :func:`compare_serving_with_ladder` (they differ when requests degrade).
    """
    return _serving_comparison(
        snapshot, (t_bnn, t_fp), [snapshot.rerun_ratio], num_host_workers
    )


def compare_serving_with_ladder(
    snapshot: "MetricsSnapshot",
    stage_times: Sequence[float],
    stage_names: Sequence[str],
    num_host_workers: int = 1,
) -> AnalyticComparison:
    """Compare a live ladder-serving window against Eq. (1N).

    ``stage_times``/``stage_names`` describe the rungs cheapest-first
    (the names must match the server's — ``("bnn", ..., "host")``); the
    per-hop forward ratios come from the snapshot's
    ``stage_arrived``/``stage_forwarded`` traffic counters, so the bound
    is evaluated at the routing the run actually realized.  The final
    stage time is divided by the worker-pool size.
    """
    if len(stage_names) != len(stage_times):
        raise ValueError("need one name per stage")
    ratios = snapshot.ladder_forward_ratios
    return _serving_comparison(
        snapshot,
        stage_times,
        [ratios.get(name, 0.0) for name in stage_names[:-1]],
        num_host_workers,
    )


def _serving_comparison(
    snapshot: "MetricsSnapshot",
    stage_times: Sequence[float],
    forward_ratios: Sequence[float],
    num_host_workers: int,
) -> AnalyticComparison:
    """Eq. (1N) at the given ratios, host term scaled by the pool size."""
    if num_host_workers < 1:
        raise ValueError("num_host_workers must be >= 1")
    effective = [float(t) for t in stage_times]
    effective[-1] = effective[-1] / num_host_workers
    return AnalyticComparison(
        simulated_seconds_per_image=snapshot.seconds_per_image,
        analytic_seconds_per_image=ladder_interval(effective, forward_ratios),
    )
