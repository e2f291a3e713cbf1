"""Ablation studies for the design choices DESIGN.md calls out.

* Batch-size sweep (the paper's qualitative claim in Section III).
* Eq. (1) validation against the event simulator across a rerun grid.
* DMU input-feature variants: sorted scores (ours) vs raw scores vs
  top1-top2 margin.
* Rate balancing vs uniform folding at equal total PE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import DecisionMakingUnit, train_dmu
from ..core.report import render_table
from ..data import ScoreDataset
from ..finn import Engine, ZC702_CLOCK_HZ, balance_network, finn_cnv_specs
from ..hetero import FPGAExecutor, HostExecutor, simulate_cascade
from ..obs import ladder_eq1_residual
from .workbench import Workbench

__all__ = [
    "BatchSizeRow",
    "run_batch_size_sweep",
    "Eq1ValidationRow",
    "run_eq1_validation",
    "DMUVariantRow",
    "run_dmu_variants",
    "BalanceAblationResult",
    "run_balance_ablation",
]


# -- batch size --------------------------------------------------------------
@dataclass(frozen=True)
class BatchSizeRow:
    batch_size: int
    images_per_second: float
    average_batch_latency: float


def run_batch_size_sweep(
    t_fp: float = 1 / 29.68,
    t_bnn: float = 1 / 430.15,
    rerun_ratio: float = 0.251,
    num_images: int = 4000,
    batch_sizes: tuple[int, ...] = (25, 50, 100, 200, 400, 800),
) -> list[BatchSizeRow]:
    """Throughput is batch-size-insensitive; latency grows with batch."""
    fpga = FPGAExecutor(interval_seconds=t_bnn, fill_seconds=5 * t_bnn)
    host = HostExecutor(seconds_per_image=t_fp)
    rows = []
    for bs in batch_sizes:
        sim = simulate_cascade(fpga, host, num_images, bs, rerun_ratio=rerun_ratio)
        rows.append(
            BatchSizeRow(
                batch_size=bs,
                images_per_second=sim.images_per_second,
                average_batch_latency=sim.average_batch_latency(),
            )
        )
    return rows


# -- Eq. (1) validation --------------------------------------------------------
@dataclass(frozen=True)
class Eq1ValidationRow:
    rerun_ratio: float
    analytic_fps: float
    simulated_fps: float
    relative_error: float


def run_eq1_validation(
    t_fp: float = 1 / 29.68,
    t_bnn: float = 1 / 430.15,
    rerun_ratios: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.251, 0.4, 0.6, 0.8, 1.0),
    num_images: int = 4000,
    batch_size: int = 100,
) -> list[Eq1ValidationRow]:
    """Eq. (1) is a tight optimistic bound across the rerun-ratio range."""
    fpga = FPGAExecutor(interval_seconds=t_bnn, fill_seconds=5 * t_bnn)
    host = HostExecutor(seconds_per_image=t_fp)
    rows = []
    for r in rerun_ratios:
        sim = simulate_cascade(fpga, host, num_images, batch_size, rerun_ratio=r)
        eq1 = ladder_eq1_residual(sim.seconds_per_image, [t_bnn, t_fp], [sim.rerun_ratio])
        rows.append(
            Eq1ValidationRow(
                rerun_ratio=r,
                analytic_fps=1.0 / eq1["predicted_seconds_per_image"],
                simulated_fps=1.0 / eq1["measured_seconds_per_image"],
                relative_error=eq1["relative_residual"],
            )
        )
    return rows


# -- DMU input features -------------------------------------------------------
@dataclass(frozen=True)
class DMUVariantRow:
    variant: str
    dmu_accuracy: float
    rerun_ratio: float
    max_achievable_accuracy: float


def _margin_dmu(train: ScoreDataset, threshold: float) -> DecisionMakingUnit:
    """Closed-form top1-top2 margin confidence (no training needed).

    Encoded in the linear DMU form over sorted scores: w = (a, -a, 0...),
    with a fitted scale so the sigmoid saturates sensibly.
    """
    sorted_scores = -np.sort(-train.scores, axis=1)
    margins = sorted_scores[:, 0] - sorted_scores[:, 1]
    scale = 2.0 / (margins.std() + 1e-9)
    weights = np.zeros(train.scores.shape[1])
    weights[0] = scale
    weights[1] = -scale
    bias = -scale * float(np.median(margins))
    return DecisionMakingUnit(weights, bias, threshold)


def run_dmu_variants(workbench: Workbench, threshold: float = 0.84) -> list[DMUVariantRow]:
    train = workbench.train_scores
    test = workbench.test_scores

    raw = train_dmu(train, threshold=threshold, rng=np.random.default_rng(0))
    raw_unsorted = _train_raw(train)
    margin = _margin_dmu(train, threshold)

    rows = []
    for name, dmu in (
        ("sorted scores (paper-style trained)", raw),
        ("raw scores (no sort)", raw_unsorted),
        ("top1-top2 margin (untrained)", margin),
    ):
        cats = dmu.categorize(test, threshold)
        rows.append(
            DMUVariantRow(
                variant=name,
                dmu_accuracy=cats.dmu_accuracy,
                rerun_ratio=cats.rerun_ratio,
                max_achievable_accuracy=cats.max_achievable_accuracy,
            )
        )
    return rows


def _train_raw(train: ScoreDataset) -> DecisionMakingUnit:
    """Train a logistic layer directly on unsorted (raw) scores."""
    x = train.scores
    mean, std = x.mean(axis=0), x.std(axis=0) + 1e-8
    xs = (x - mean) / std
    y = train.correct
    w = np.zeros(x.shape[1])
    b = 0.0
    lr = 0.3
    for _ in range(300):
        z = xs @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = xs.T @ (p - y) / len(y)
        grad_b = float((p - y).mean())
        w -= lr * grad_w
        b -= lr * grad_b
    return DecisionMakingUnit(w / std, b - float((w * mean / std).sum()), 0.84, sort_inputs=False)


# -- rate balancing ------------------------------------------------------------
@dataclass(frozen=True)
class BalanceAblationResult:
    balanced_fps: float
    uniform_fps: float
    balanced_total_pe: int
    uniform_total_pe: int

    @property
    def speedup(self) -> float:
        return self.balanced_fps / self.uniform_fps


def run_balance_ablation(target_cycles: int = 232_000) -> BalanceAblationResult:
    """Balanced P/S per layer vs the same folding for every layer.

    The uniform configuration spends comparable PEs but is bottlenecked by
    its heaviest layer — quantifying why the paper rate-balances.
    """
    specs = finn_cnv_specs()
    balanced = balance_network(specs, target_cycles)

    # Uniform folding: give every layer the same (P, S) drawn from the
    # balanced design's *average* compute budget.
    avg_ps = int(round(np.mean([e.pe * e.simd for e in balanced.engines])))
    uniform_engines = []
    for spec in specs:
        best = None
        for p in (1, 2, 4, 8, 16, 32, 64):
            if spec.weight_rows % p:
                continue
            for s in (1, 2, 4, 8, 16):
                if spec.fan_in % s:
                    continue
                if p * s <= avg_ps and (best is None or p * s > best.pe * best.simd):
                    best = Engine(spec, p, s)
        uniform_engines.append(best)
    uniform_cc = max(e.cycles_per_image for e in uniform_engines)

    return BalanceAblationResult(
        balanced_fps=ZC702_CLOCK_HZ / balanced.bottleneck_cycles,
        uniform_fps=ZC702_CLOCK_HZ / uniform_cc,
        balanced_total_pe=balanced.total_pe,
        uniform_total_pe=sum(e.pe for e in uniform_engines),
    )


def format_ablations(
    batch_rows: list[BatchSizeRow],
    eq1_rows: list[Eq1ValidationRow],
) -> str:
    """Combined plain-text report of the parameter-only ablations."""
    a = render_table(
        ["batch", "img/s", "avg batch latency (s)"],
        [[r.batch_size, f"{r.images_per_second:.1f}", f"{r.average_batch_latency:.3f}"] for r in batch_rows],
        title="Ablation: batch size",
    )
    b = render_table(
        ["R_rerun", "Eq.(1) img/s", "simulated img/s", "rel err"],
        [
            [f"{r.rerun_ratio:.3f}", f"{r.analytic_fps:.1f}", f"{r.simulated_fps:.1f}", f"{r.relative_error:+.3f}"]
            for r in eq1_rows
        ],
        title="Ablation: Eq. (1) vs event simulation",
    )
    return a + "\n\n" + b
