"""The ``repro trace`` harness: one traced cascade run, exported.

Builds the *real* datapath — a width-scaled folded CNV as the fast stage
(untrained: kernel timing does not depend on weight values), a Table III
host model as the accurate stage, a margin-reading DMU with its threshold
set so the target rerun ratio is realized — drives it through
:class:`repro.serve.CascadeServer` with a tracer installed, and reduces
the trace to the paper's two timing checks:

* **Eq. (1) overlap** — measured wall-clock seconds during which the
  ``serve.bnn`` and ``serve.host`` spans ran simultaneously.  Overlap
  near the smaller stage's busy time is what makes
  ``max(t_fp * R_rerun, t_bnn)`` (rather than the sum) the right model.
* **Eqs. (3)–(5) layer breakdown** — each binary layer's measured share
  of BNN time against its predicted share from the FINN cycle model at
  P = S = 1 (see :mod:`repro.obs.residuals`).

This module is deliberately *not* imported from ``repro.obs.__init__``:
it imports the serving/model stack, which itself imports ``repro.obs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..serve.oracle import check_ranges
from .export import timeline_to_chrome, to_chrome_trace, trace_summary, write_chrome_trace
from .residuals import eq345_layer_residuals, ladder_eq1_residual
from .stats import format_span_summaries, span_overlap_seconds, summarize_spans
from .tracer import Tracer, tracing

__all__ = [
    "TraceRunConfig",
    "TraceRunReport",
    "run_traced_cascade",
    "format_trace_report",
    "write_simulated_trace",
]


@dataclass(frozen=True)
class TraceRunConfig:
    """One ``repro trace`` scenario (small enough to run in seconds)."""

    num_images: int = 256
    scale: float = 0.15            # CNV width scale (fast stage)
    host_scale: float = 0.25       # Model A width scale (accurate stage)
    target_rerun_ratio: float = 0.30
    max_batch_size: int = 32
    num_host_workers: int = 1
    host_batch_size: int = 8
    inference_batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_ranges(
            self,
            at_least_one=("num_images", "max_batch_size", "num_host_workers"),
            positive=("scale", "host_scale"),
            unit_interval=("target_rerun_ratio",),
        )


@dataclass(frozen=True)
class TraceRunReport:
    """Everything a ``repro trace`` run produced."""

    config: TraceRunConfig
    tracer: Tracer
    summary: dict                       # span summaries + counters (JSON-able)
    overlap_seconds: float              # serve.bnn ∩ serve.host busy time
    bnn_busy_seconds: float
    host_busy_seconds: float
    layer_residuals: list[dict]         # Eqs. (3)-(5) predicted vs measured
    eq1: dict                           # Eq. (1) residual of the served run
    rerun_ratio: float
    completed: int
    wall_seconds: float
    t_fp_seconds: float                 # Eq. (1)'s host seconds/image...
    t_fp_source: str                    # ...and how it was measured

    def chrome_trace(self) -> dict:
        return to_chrome_trace(self.tracer)


def _cnv_binary_shapes(scale: float, image_size: int = 32) -> list[dict]:
    """(label, M-per-image, N, n_bits) of every binary matmul in scaled CNV.

    ``n_out * n_bits * rows_per_image`` is each layer's Eq. (3)/(4) cycle
    count at P = S = 1, which is what :mod:`repro.obs.residuals` compares
    measured per-layer time against.
    """
    from ..models.finn_cnv import CNV_FC_WIDTH, scaled_channels

    c = scaled_channels(scale)
    shapes = []
    size = image_size
    sizes = []
    for i in range(6):
        size -= 2  # 3x3 conv, no padding
        sizes.append(size)
        if i in (1, 3):
            size //= 2  # 2x2 maxpool
    # conv1 is the real-valued-input engine (float GEMM) — not a binary matmul.
    for i in range(1, 6):
        shapes.append(
            {
                "label": f"conv{i + 1}",
                "rows_per_image": sizes[i] * sizes[i],
                "n_out": c[i],
                "n_bits": c[i - 1] * 9,
            }
        )
    flat = c[5] * sizes[5] * sizes[5]
    for j, (n_in, n_out) in enumerate(
        [(flat, CNV_FC_WIDTH), (CNV_FC_WIDTH, CNV_FC_WIDTH), (CNV_FC_WIDTH, CNV_FC_WIDTH)]
    ):
        shapes.append(
            {"label": f"fc{j + 1}", "rows_per_image": 1, "n_out": n_out, "n_bits": n_in}
        )
    return shapes


def run_traced_cascade(config: TraceRunConfig | None = None) -> TraceRunReport:
    """Run one traced serving session over the real folded datapath."""
    from ..data import normalize_to_pm1, synthetic_cifar10
    from ..models import build_finn_cnv, build_model_a
    from ..core.dmu import DecisionMakingUnit
    from ..serve import CascadeServer, folded_bnn_scores_fn

    from ..bnn import fold_network

    config = config or TraceRunConfig()
    rng = np.random.default_rng(config.seed)
    net = build_finn_cnv(scale=config.scale, rng=rng)
    net.eval_mode()
    folded = fold_network(net)
    host = build_model_a(scale=config.host_scale, rng=np.random.default_rng(config.seed + 1))
    host.eval_mode()
    # Serve the compiled engine, as every served path does: the training
    # forward's backward bookkeeping is not the host a server runs.
    host_engine = host.compile_inference(micro_batch=config.host_batch_size)

    images = normalize_to_pm1(
        synthetic_cifar10(num_train=1, num_test=config.num_images, seed=config.seed).test.images
    )

    # Calibrate the DMU threshold so ~target_rerun_ratio of this stream is
    # flagged (the paper picks its threshold from a sweep the same way).
    calib = images[: min(128, len(images))]
    dmu = DecisionMakingUnit.margin(0.5)
    confidence = dmu.confidence(folded.class_scores(calib, batch_size=config.inference_batch_size))
    threshold = float(np.quantile(confidence, config.target_rerun_ratio))
    dmu = DecisionMakingUnit.margin(threshold)

    with tracing() as tracer:
        server = CascadeServer(
            folded_bnn_scores_fn(folded, batch_size=config.inference_batch_size),
            dmu,
            host_engine.predict_classes,
            controller=threshold,
            max_batch_size=config.max_batch_size,
            num_host_workers=config.num_host_workers,
            host_batch_size=config.host_batch_size,
        )
        with server:
            server.classify_many(iter(images))
            snapshot = server.snapshot()

    spans = tracer.spans
    summaries = summarize_spans(spans)
    bnn_busy = summaries["serve.bnn"].total_seconds if "serve.bnn" in summaries else 0.0
    host_busy = summaries["serve.host"].total_seconds if "serve.host" in summaries else 0.0
    overlap = span_overlap_seconds(spans, "serve.bnn", "serve.host")

    # Eqs. (3)-(5): measured per-layer BNN time vs the cycle-model share.
    layers = []
    for shape in _cnv_binary_shapes(config.scale):
        name = "bnn." + shape["label"]
        if name in summaries:
            layers.append({**shape, "measured_seconds": summaries[name].total_seconds})
    layer_residuals = eq345_layer_residuals(layers) if layers else []

    # Eq. (1): stage times realized by this run, at the realized R_rerun.
    completed = snapshot.completed
    rerun_ratio = snapshot.rerun_ratio
    t_bnn = bnn_busy / completed if completed else float("nan")
    if snapshot.rerun:
        t_fp = host_busy / snapshot.rerun
        t_fp_source = f"measured on the {snapshot.rerun} images the host served"
    else:
        # No image reached the host: time the engine directly instead.
        start = time.perf_counter()
        host_engine.predict_classes(calib)
        t_fp = (time.perf_counter() - start) / len(calib)
        t_fp_source = (
            f"measured by one direct call on the {len(calib)}-image calibration "
            "batch (no image reached the host)"
        )
    eq1 = ladder_eq1_residual(
        snapshot.wall_seconds / completed if completed else float("nan"),
        [t_bnn, t_fp],
        [rerun_ratio],
        stage_names=["bnn", "host"],
        num_host_workers=config.num_host_workers,
    )

    return TraceRunReport(
        config=config,
        tracer=tracer,
        summary=trace_summary(tracer),
        overlap_seconds=overlap,
        bnn_busy_seconds=bnn_busy,
        host_busy_seconds=host_busy,
        layer_residuals=layer_residuals,
        eq1=eq1,
        rerun_ratio=rerun_ratio,
        completed=completed,
        wall_seconds=snapshot.wall_seconds,
        t_fp_seconds=t_fp,
        t_fp_source=t_fp_source,
    )


def format_trace_report(report: TraceRunReport) -> str:
    """Human-readable digest printed by ``repro trace``."""
    lines = [
        f"traced {report.completed} requests in {report.wall_seconds:.2f}s "
        f"({report.completed / report.wall_seconds:.0f} img/s), "
        f"R_rerun={report.rerun_ratio:.2f}",
        "",
        format_span_summaries(
            summarize_spans(report.tracer.spans),
            title="span summary (all threads)",
        ),
        "",
    ]
    floor = min(report.bnn_busy_seconds, report.host_busy_seconds)
    pct = report.overlap_seconds / floor * 100.0 if floor > 0 else 0.0
    lines.append(
        "Eq. (1) overlap check: BNN busy "
        f"{report.bnn_busy_seconds * 1e3:.1f} ms, host busy "
        f"{report.host_busy_seconds * 1e3:.1f} ms, simultaneous "
        f"{report.overlap_seconds * 1e3:.1f} ms "
        f"({pct:.0f}% of the smaller stage — 100% would be perfect pipelining)."
    )
    eq1 = report.eq1
    lines.append(
        f"Eq. (1) residual: predicted {eq1['predicted_seconds_per_image'] * 1e3:.2f} ms/img, "
        f"measured {eq1['measured_seconds_per_image'] * 1e3:.2f} ms/img "
        f"({eq1['relative_residual']:+.0%}); host t_fp "
        f"{report.t_fp_seconds * 1e3:.2f} ms/img, {report.t_fp_source}."
    )
    if report.layer_residuals:
        lines.append("")
        lines.append("Eqs. (3)-(5) per-layer shares (predicted = cycle model at P=S=1):")
        header = f"  {'layer':<8}{'predicted':>10}{'measured':>10}{'residual':>10}"
        lines.append(header)
        for row in report.layer_residuals:
            lines.append(
                f"  {row['label']:<8}"
                f"{row['predicted_fraction']:>9.1%}"
                f"{row['measured_fraction']:>10.1%}"
                f"{row['residual_fraction']:>+10.1%}"
            )
    counters = report.summary["counters"]
    decisions = {k.split(".")[1]: int(v) for k, v in counters.items() if k.startswith("serve.")}
    if decisions:
        lines.append("")
        lines.append(
            "decisions: "
            + ", ".join(f"{name}={value}" for name, value in sorted(decisions.items()))
        )
    return "\n".join(lines)


def write_simulated_trace(report: TraceRunReport, path: str | Path) -> Path:
    """Write the *simulated* (Fig. 2) counterpart of the measured run.

    Feeds the measured per-image stage times and realized rerun ratio
    into :func:`repro.hetero.simulate_cascade` and exports its virtual
    timeline as a second Chrome trace — measured vs idealized overlap,
    side by side in the same viewer.
    """
    import json

    from ..hetero import FPGAExecutor, HostExecutor, simulate_cascade

    completed = max(1, report.completed)
    t_bnn = max(report.bnn_busy_seconds / completed, 1e-9)
    result = simulate_cascade(
        FPGAExecutor(interval_seconds=t_bnn),
        HostExecutor(seconds_per_image=report.t_fp_seconds),
        num_images=completed,
        batch_size=report.config.max_batch_size,
        rerun_ratio=report.rerun_ratio,
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(timeline_to_chrome(result.timeline), indent=1) + "\n")
    return path


# Re-exported for the CLI, which writes the measured trace after printing.
write_trace = write_chrome_trace
