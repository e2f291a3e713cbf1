"""Kernel benchmark harness (``repro bench-kernels``).

Times every registered binary-kernel backend on (a) the individual matmul
shapes of the folded CNV network's binary layers and (b) end-to-end
folded inference, verifying bit-exactness along the way, and emits a JSON
report (``BENCH_kernels.json``) so the perf trajectory of the BNN
datapath is tracked in-repo from PR to PR.

The end-to-end leg runs an *untrained* width-scaled CNV: kernel
throughput does not depend on the weight values, so no training budget is
needed, and the same topology/scale is reproducible everywhere.

Paper anchors: the timed shapes are exactly the binary-layer workloads
of Table I's CNV (width-scaled); the report's ``finn_prediction``
section compares each layer's measured time share against the FINN
cycle model of Eqs. (3)-(5) at P = S = 1
(:func:`repro.obs.eq345_layer_residuals`).
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from ...serve.oracle import check_ranges, pick, write_report
from .base import available_backends, available_cpus, get_kernel
from .select import select_backend, selection_cache_path

__all__ = [
    "KernelBenchConfig",
    "cnv_binary_shapes",
    "run_kernel_bench",
    "format_kernel_bench",
    "write_kernel_bench",
]


@dataclass(frozen=True)
class KernelBenchConfig:
    """One benchmark scenario.

    ``smoke`` shrinks batch/repetitions to a few seconds of runtime for
    CI, without changing the report schema.
    """

    scale: float = 0.25          # CNV width scale for shapes + end-to-end
    batch_size: int = 64         # images per folded forward
    num_images: int = 128        # end-to-end images timed
    repeats: int = 3             # best-of timing repetitions
    image_size: int = 32
    seed: int = 0
    smoke: bool = False

    def __post_init__(self):
        check_ranges(
            self,
            positive=("scale",),
            at_least_one=("batch_size", "num_images", "repeats"),
        )

    def effective(self) -> "KernelBenchConfig":
        if not self.smoke:
            return self
        from dataclasses import replace

        return replace(self, batch_size=16, num_images=32, repeats=1)


def cnv_binary_shapes(scale: float, image_size: int = 32) -> list[dict]:
    """(label, M-per-image, N, n_bits) of every binary matmul in scaled CNV.

    ``n_out * n_bits * rows_per_image`` is each layer's Eq. (3)/(4) cycle
    count at P = S = 1, which is what :mod:`repro.obs.residuals` compares
    measured per-layer time against.
    """
    from ...models.finn_cnv import CNV_FC_WIDTH, scaled_channels

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


def _time_call(fn, repeats: int) -> float:
    fn()  # warmup
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_shapes(config: KernelBenchConfig, backends: tuple[str, ...]) -> list[dict]:
    rng = np.random.default_rng(config.seed)
    results = []
    for shape in cnv_binary_shapes(config.scale, config.image_size):
        m = shape["rows_per_image"] * config.batch_size
        n_out, n_bits = shape["n_out"], shape["n_bits"]
        words = -(-n_bits // 8)
        a = rng.integers(0, 256, size=(m, words), dtype=np.uint8)
        w = rng.integers(0, 256, size=(n_out, words), dtype=np.uint8)
        tail = n_bits % 8
        if tail:
            mask = np.uint8(0xFF << (8 - tail) & 0xFF)
            a[:, -1] &= mask
            w[:, -1] &= mask

        reference = None
        timings, exact = {}, {}

        def time_backend(name: str) -> None:
            nonlocal reference
            kernel = get_kernel(name)
            prep = kernel.prepare(w, n_bits)
            out = kernel.matmul(a, prep, n_bits)
            if reference is None:
                reference = out
            exact[name] = bool(np.array_equal(out, reference))
            timings[name] = _time_call(lambda: kernel.matmul(a, prep, n_bits), config.repeats)

        for name in backends:
            time_backend(name)
        # The autotuner races its own candidate list (thread-count variants
        # included); make sure the winner has a timing even when it is a
        # variant name like "threaded@2".
        autotuned = select_backend(m, n_out, n_bits)
        if autotuned not in timings:
            time_backend(autotuned)
        base = timings[backends[0]]
        results.append(
            {
                **shape,
                "m": m,
                "timings_s": timings,
                "speedup_vs_reference": {k: base / v for k, v in timings.items()},
                "bit_exact": exact,
                "autotuned": autotuned,
            }
        )
    return results


def _bench_end_to_end(config: KernelBenchConfig, backends: tuple[str, ...]) -> dict:
    from ...data import normalize_to_pm1, synthetic_cifar10
    from ...models import build_finn_cnv
    from ..inference import fold_network

    net = build_finn_cnv(scale=config.scale, rng=np.random.default_rng(config.seed))
    net.eval_mode()
    images = normalize_to_pm1(
        synthetic_cifar10(num_train=1, num_test=config.num_images, seed=config.seed).test.images
    )

    runs: dict[str, dict] = {}
    baseline_pred = None

    def record(label: str, num_classes: int, scores_fn) -> None:
        nonlocal baseline_pred
        pred = scores_fn()[:, :num_classes].argmax(axis=1)
        if baseline_pred is None:
            baseline_pred = pred
        seconds = _time_call(scores_fn, config.repeats)
        runs[label] = {
            "img_per_s": len(images) / seconds,
            "seconds": seconds,
            "predictions_match_reference": bool(np.array_equal(pred, baseline_pred)),
        }

    # Seed datapath first: reference kernel over the unpacked float
    # pipeline; then each backend over the uncompiled packed pipeline.
    # forward_uncompiled keeps these legs honest now that plain forward
    # auto-compiles.
    variants = [("reference (unpacked)", "reference", False)]
    variants += [(name, name, True) for name in backends]
    variants.append(("auto", "auto", True))
    for label, backend, packed in variants:
        folded = fold_network(net, backend=backend, packed=packed)
        record(
            label,
            folded.num_classes,
            lambda folded=folded: folded.forward_uncompiled(
                images, batch_size=config.batch_size
            ),
        )
    # Compiled-plan legs: the preplanned 0/1-plane dataflow (the datapath
    # FoldedBNN.forward and the cascade server's BNN stage actually run).
    # The fused stages call no kernel backend, so "auto" and "bitplane"
    # differ only in name; the threaded legs sweep the tile-loop threads.
    folded = fold_network(net, packed=True)
    compiled = [("compiled (auto)", "auto", None), ("compiled (bitplane)", "bitplane", None)]
    thread_counts = [k for k in (1, 2, 4) if k <= max(2, available_cpus())]
    compiled += [(f"compiled (threaded@{k})", "threaded", k) for k in thread_counts]
    for label, backend, threads in compiled:
        plan = folded.compile_inference(
            micro_batch=config.batch_size, backend=backend, threads=threads
        )
        record(label, folded.num_classes, lambda plan=plan: plan.forward(images))
    base = runs["reference (unpacked)"]["img_per_s"]
    for run in runs.values():
        run["speedup_vs_reference"] = run["img_per_s"] / base
    return {"num_images": len(images), "runs": runs}


def run_kernel_bench(
    config: KernelBenchConfig | None = None, backends: tuple[str, ...] | None = None
) -> dict:
    """Full benchmark report as a JSON-serializable dict."""
    config = (config or KernelBenchConfig()).effective()
    backends = tuple(backends) if backends else available_backends()
    if backends[0] != "reference":
        raise ValueError("backends must lead with 'reference' (the speedup baseline)")

    shapes = _bench_shapes(config, backends)
    # Dominant shape: where the reference kernel burns the most time.
    dominant = max(shapes, key=lambda s: s["timings_s"]["reference"])
    # Eqs. (3)-(5) check: predicted per-layer work share (cycle model at
    # P = S = 1) vs the measured time share of each layer's autotuned
    # backend — where the software datapath diverges from the FINN model.
    from ...obs.residuals import eq345_layer_residuals

    finn_prediction = eq345_layer_residuals(
        [
            {
                "label": s["label"],
                "rows_per_image": s["rows_per_image"],
                "n_out": s["n_out"],
                "n_bits": s["n_bits"],
                "measured_seconds": s["timings_s"][s["autotuned"]],
            }
            for s in shapes
        ]
    )
    report = {
        "config": pick(config, "scale", "batch_size", "num_images", "repeats", "smoke"),
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": available_cpus(),
            "single_core": available_cpus() <= 1,
            "note": (
                "single-core machine: threaded legs cannot exceed 1x over "
                "threaded@1 here; re-run on a multi-core runner for real scaling"
                if available_cpus() <= 1
                else f"{available_cpus()} cores available to the threaded legs"
            ),
            "selection_cache": str(selection_cache_path() or "disabled"),
        },
        "notes": {
            "compiled": (
                "compiled legs run FoldedBNN.compile_inference (preallocated "
                "buffers, 0/1 float planes between stages, thresholds folded "
                "into the weights; no kernel backend on fused stages) — the "
                "datapath FoldedBNN.forward and the cascade server use by default"
            ),
        },
        "backends": list(backends),
        "shapes": shapes,
        "dominant_shape": {
            "label": dominant["label"],
            "speedup_vs_reference": dominant["speedup_vs_reference"],
            "autotuned": dominant["autotuned"],
        },
        "finn_prediction": finn_prediction,
        "end_to_end": _bench_end_to_end(config, backends),
    }
    return report


def format_kernel_bench(report: dict) -> str:
    """Human-readable summary of a :func:`run_kernel_bench` report."""
    from ...core.report import render_table

    backends = report["backends"]
    rows = []
    for s in report["shapes"]:
        rows.append(
            [
                s["label"],
                f"{s['m']}x{s['n_bits']}x{s['n_out']}",
                *(f"{s['timings_s'][b] * 1e3:.2f}" for b in backends),
                f"{max(s['speedup_vs_reference'].values()):.1f}x",
                s["autotuned"],
            ]
        )
    shape_table = render_table(
        ["layer", "MxKxN", *(f"{b} (ms)" for b in backends), "best", "autotuned"],
        rows,
        title=(
            f"binary-kernel matmul timings (CNV scale={report['config']['scale']}, "
            f"batch={report['config']['batch_size']})"
        ),
    )
    e2e_rows = [
        [label, f"{run['img_per_s']:.0f}", f"{run['speedup_vs_reference']:.2f}x",
         "yes" if run["predictions_match_reference"] else "NO"]
        for label, run in report["end_to_end"]["runs"].items()
    ]
    e2e_table = render_table(
        ["datapath", "img/s", "vs seed", "bit-exact"],
        e2e_rows,
        title=f"end-to-end folded CNV inference ({report['end_to_end']['num_images']} images)",
    )
    dom = report["dominant_shape"]
    note = (
        f"\ndominant shape: {dom['label']} — best backend "
        f"{max(dom['speedup_vs_reference'], key=dom['speedup_vs_reference'].get)} at "
        f"{max(dom['speedup_vs_reference'].values()):.1f}x the reference kernel "
        f"(autotuner picks {dom['autotuned']})."
    )
    finn = report.get("finn_prediction", [])
    finn_table = ""
    if finn:
        finn_rows = [
            [
                row["label"],
                f"{row['predicted_fraction']:.1%}",
                f"{row['measured_fraction']:.1%}",
                f"{row['residual_fraction']:+.1%}",
            ]
            for row in finn
        ]
        finn_table = "\n\n" + render_table(
            ["layer", "Eq.(3)/(4) share", "measured share", "residual"],
            finn_rows,
            title="FINN cycle-model (Eqs. 3-5) predicted vs measured time share",
        )
    return shape_table + "\n\n" + e2e_table + finn_table + note


#: The JSON artifact writer (``BENCH_kernels.json``), under the name
#: ``benchmarks/test_kernel_backends.py`` imports.
write_kernel_bench = write_report
