"""Closed-form performance/accuracy models — Eqs. (1)/(2) and their N-stage form.

The paper's two-stage cascade obeys

    t_multi/img  ~= max(t_fp/img * R_rerun, t_bnn/img)              (1)
    Acc_multi    ~= Acc_bnn + Acc_fp * R_rerun - R_rerun_err        (2)

with the host timing gain ``t_fp * (1 - R_rerun)`` per image.

An N-stage precision ladder (``docs/LADDER.md``) generalizes both.  Let
stage ``i`` (0-indexed) cost ``t_i`` seconds/image and forward the
fraction ``r_i`` of *its own* traffic upward, so the fraction of all
submitted traffic reaching stage ``i`` is the product

    R_i = prod_{j < i} r_j          (R_0 = 1).                      (1')

With every stage pipelined against the others (the paper's Fig. 1
overlap argument applied hop by hop), the steady-state interval is the
busiest stage:

    t_ladder/img ~= max_i  t_i * R_i                                (1N)

and telescoping Eq. (2) over the hops gives

    Acc_ladder   ~= Acc_0 + sum_{i >= 1} (Acc_i * R_i - R_err_i)    (2N)

where ``R_err_i`` is the fraction of *all* traffic that stage ``i-1``
classified correctly but forwarded anyway (the generalized wasted-rerun
term; at N=2 these reduce exactly to Eqs. (1)/(2) with ``r_0 = R_rerun``
and ``R_err_1 = R_rerun_err``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "multi_precision_interval",
    "multi_precision_accuracy",
    "MultiPrecisionEstimate",
    "estimate",
    "ladder_reach_fractions",
    "ladder_interval",
    "ladder_accuracy",
]


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def multi_precision_interval(t_fp: float, t_bnn: float, r_rerun: float) -> float:
    """Eq. (1): average per-image interval of the multi-precision system.

    Evaluated as the two-stage case of Eq. (1N): :func:`ladder_interval`
    with ``stage_times=[t_bnn, t_fp]`` and ``forward_ratios=[r_rerun]``
    (``docs/LADDER.md``; exact in IEEE arithmetic, ``t * 1.0 == t``).

    Parameters
    ----------
    t_fp:
        Seconds per image of the floating-point network on the host.
    t_bnn:
        Seconds per image of the binarized network on the FPGA.
    r_rerun:
        Fraction of images re-processed on the host (0..1).
    """
    return ladder_interval([t_bnn, t_fp], [r_rerun])


def multi_precision_accuracy(
    acc_bnn: float, acc_fp: float, r_rerun: float, r_rerun_err: float
) -> float:
    """Eq. (2): accuracy of the multi-precision system (0-1 scale).

    ``r_rerun_err`` is the fraction of images initially classified
    correctly by the BNN but re-processed (and thus exposed to host
    error) due to DMU mistakes.  The paper notes the realized accuracy is
    somewhat lower because the host sees a hard-to-classify subset.
    This is the two-stage case of Eq. (2N) — :func:`ladder_accuracy`
    with ``R_1 = r_rerun`` and ``R_err_1 = r_rerun_err``.
    """
    _check_ratio("acc_bnn", acc_bnn)
    _check_ratio("acc_fp", acc_fp)
    _check_ratio("r_rerun", r_rerun)
    _check_ratio("r_rerun_err", r_rerun_err)
    return acc_bnn + acc_fp * r_rerun - r_rerun_err


def ladder_reach_fractions(forward_ratios: Sequence[float]) -> list[float]:
    """Eq. (1'): ``R_i = prod_{j<i} r_j`` for every stage of the ladder.

    ``forward_ratios`` holds ``r_0 .. r_{N-2}`` (the final stage forwards
    nothing); the returned list has one entry per *stage*, starting with
    ``R_0 = 1``.
    """
    for i, r in enumerate(forward_ratios):
        _check_ratio(f"forward_ratios[{i}]", r)
    reach = [1.0]
    for r in forward_ratios:
        reach.append(reach[-1] * r)
    return reach


def _ladder_busy_terms(
    stage_times: Sequence[float],
    forward_ratios: Sequence[float],
    num_host_workers: int = 1,
) -> tuple[list[float], list[float], list[float]]:
    """Validated Eq. (1N) terms with ``num_host_workers`` host executors.

    Returns the per-stage times ``t_i`` — the last (host) stage divided
    by the pool size, since a pool of k drains flagged images k times
    faster — their reach ``R_i`` and their busy terms ``t_i * R_i``
    (shared with :func:`repro.obs.ladder_eq1_residual`).
    """
    if len(stage_times) < 2:
        raise ValueError("a ladder needs at least 2 stages")
    if len(forward_ratios) != len(stage_times) - 1:
        raise ValueError(
            f"need exactly {len(stage_times) - 1} forward ratios for "
            f"{len(stage_times)} stages, got {len(forward_ratios)}"
        )
    if any(t <= 0 for t in stage_times):
        raise ValueError("per-image stage times must be positive")
    if num_host_workers < 1:
        raise ValueError("num_host_workers must be >= 1")
    times = [float(t) for t in stage_times]
    times[-1] /= num_host_workers
    reach = ladder_reach_fractions(forward_ratios)
    return times, reach, [t * w for t, w in zip(times, reach)]


def ladder_interval(
    stage_times: Sequence[float],
    forward_ratios: Sequence[float],
    num_host_workers: int = 1,
) -> float:
    """Eq. (1N): ``t_ladder = max_i t_i * R_i`` seconds/image.

    Parameters
    ----------
    stage_times:
        Per-image seconds of each stage, fastest first (``t_0`` is the
        BNN, the last entry the float host).
    forward_ratios:
        Per-stage forward ratios ``r_0 .. r_{N-2}`` — each the fraction
        of the traffic *arriving* at that stage that its DMU sends up.
    num_host_workers:
        Host executors draining the last stage; its time is divided by
        this count (Eq. (1) as written models one).
    """
    return max(_ladder_busy_terms(stage_times, forward_ratios, num_host_workers)[2])


def ladder_accuracy(
    stage_accuracies: Sequence[float],
    forward_ratios: Sequence[float],
    err_fractions: Sequence[float] | None = None,
) -> float:
    """Eq. (2N): telescoped accuracy of an N-stage ladder (0-1 scale).

    ``stage_accuracies[i]`` is stage ``i``'s standalone accuracy over the
    full distribution; ``err_fractions[i]`` (one per hop, default all 0)
    is ``R_err_{i+1}`` — the fraction of *all* traffic that stage ``i``
    classified correctly but forwarded anyway.  Like Eq. (2), this is an
    upper-bound flavour: the traffic actually reaching late stages is the
    hard residue, so realized accuracy sits somewhat below it.
    """
    if len(stage_accuracies) < 2:
        raise ValueError("a ladder needs at least 2 stages")
    if len(forward_ratios) != len(stage_accuracies) - 1:
        raise ValueError("forward_ratios must have one entry per hop")
    if err_fractions is None:
        err_fractions = [0.0] * len(forward_ratios)
    if len(err_fractions) != len(forward_ratios):
        raise ValueError("err_fractions must have one entry per hop")
    for i, acc in enumerate(stage_accuracies):
        _check_ratio(f"stage_accuracies[{i}]", acc)
    for i, err in enumerate(err_fractions):
        _check_ratio(f"err_fractions[{i}]", err)
    reach = ladder_reach_fractions(forward_ratios)
    total = stage_accuracies[0]
    for i in range(1, len(stage_accuracies)):
        total += stage_accuracies[i] * reach[i] - err_fractions[i - 1]
    return total


@dataclass(frozen=True)
class MultiPrecisionEstimate:
    """Bundled Eq. (1)/(2) prediction for one configuration."""

    interval_seconds: float
    images_per_second: float
    accuracy: float
    bottleneck: str  # "host" or "fpga"


def estimate(
    t_fp: float,
    t_bnn: float,
    acc_bnn: float,
    acc_fp: float,
    r_rerun: float,
    r_rerun_err: float,
) -> MultiPrecisionEstimate:
    """Joint Eq. (1) + Eq. (2) estimate."""
    interval = multi_precision_interval(t_fp, t_bnn, r_rerun)
    accuracy = multi_precision_accuracy(acc_bnn, acc_fp, r_rerun, r_rerun_err)
    bottleneck = "host" if t_fp * r_rerun >= t_bnn else "fpga"
    return MultiPrecisionEstimate(
        interval_seconds=interval,
        images_per_second=1.0 / interval,
        accuracy=accuracy,
        bottleneck=bottleneck,
    )
