"""``repro bench-parallel``: measure the parallel host-inference engine.

Times the host float path through every execution mode on identical
images and verifies the determinism contract while doing so:

* ``serial-legacy`` — ``Sequential.predict`` (float64 training forward),
  the pre-existing baseline every speedup is quoted against;
* ``serial-engine-f64`` — the :class:`repro.nn.InferenceEngine` fast
  path at float64 (isolates the dataflow/fusion win from precision);
* ``serial-engine`` — the engine at the serving dtype (float32, the
  paper host's inference precision) — the *reference logits* that every
  parallel mode must reproduce bit-for-bit;
* ``threads-K`` — the same engine sharded across K Python threads (the
  GIL control group);
* ``procs-K`` — :class:`repro.parallel.ParallelHostRunner` with K
  worker processes, K in ``worker_counts``.

The report is honest about the machine: it records ``cpu_count`` and the
scheduler affinity, and on a single-core box it says outright that the
process legs cannot exceed serial — there the measured end-to-end
speedup comes from the engine fast path, and the process legs document
the sharding overhead instead.  Each leg also carries its Eq. (1)
implication: with host seconds/image ``t_fp`` from that leg,
``t_multi = max(t_fp * R_rerun / 1, t_bnn)`` — the cascade bound the
serving layer would operate under if this leg were its host stage.
"""

from __future__ import annotations

import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ..core.analytic import multi_precision_interval
from ..core.report import format_rate, render_table
from ..serve.oracle import check_ranges
from .runner import ParallelHostRunner

__all__ = [
    "ParallelBenchConfig",
    "run_parallel_bench",
    "format_parallel_bench",
]

_BUILDERS = {"a": "build_model_a", "b": "build_model_b", "c": "build_model_c"}


@dataclass(frozen=True)
class ParallelBenchConfig:
    """One bench-parallel scenario."""

    model: str = "a"                 # host model: a | b | c (Table III)
    scale: float = 1.0               # width scale of the host model
    num_images: int = 256
    micro_batch: int = 16
    worker_counts: tuple[int, ...] = (1, 2, 4)
    repeats: int = 3                 # best-of timing per leg
    seed: int = 0
    t_bnn: float = 0.00025           # Eq. (1) fast-stage seconds/image
    target_rerun_ratio: float = 0.30 # Eq. (1) R_rerun operating point
    smoke: bool = False              # CI mode: shrink images/repeats

    def __post_init__(self):
        check_ranges(
            self,
            positive=("scale",),
            at_least_one=("num_images", "micro_batch", "repeats", "worker_counts"),
        )

    def resolved(self) -> "ParallelBenchConfig":
        if not self.smoke:
            return self
        from dataclasses import replace

        return replace(self, num_images=min(self.num_images, 64), repeats=1)


def _time_best(fn, images: np.ndarray, repeats: int) -> tuple[float, np.ndarray]:
    """(best seconds, last output) of ``fn(images)`` over *repeats* runs."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(images)
        best = min(best, time.perf_counter() - start)
    return best, out


def _threaded_predict(net, images, k, dtype, micro_batch):
    """Shard across K threads, one engine each — the GIL control group."""
    engines = [net.compile_inference(dtype=dtype, micro_batch=micro_batch) for _ in range(k)]
    n_chunks = -(-images.shape[0] // micro_batch)
    bounds = [
        (int(b[0]) * micro_batch, min(images.shape[0], int(b[-1] + 1) * micro_batch))
        for b in np.array_split(np.arange(n_chunks), k)
        if len(b)
    ]

    def run(images):
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(
                pool.map(
                    lambda ie: ie[1].predict_scores(images[ie[0][0]:ie[0][1]]),
                    zip(bounds, engines),
                )
            )
        return np.concatenate(parts, axis=0)

    return run


def _leg(name, seconds, images, spi_legacy, config, workers=None, **extra):
    spi = seconds / images
    t_multi = multi_precision_interval(spi, config.t_bnn, config.target_rerun_ratio)
    row = {
        "name": name,
        "seconds": seconds,
        "images": images,
        "img_per_s": images / seconds,
        "seconds_per_image": spi,
        "speedup_vs_legacy": spi_legacy / spi,
        "eq1": {
            "t_fp": spi,
            "t_bnn": config.t_bnn,
            "rerun_ratio": config.target_rerun_ratio,
            "t_multi": t_multi,
            "bound_fps": 1.0 / t_multi,
        },
    }
    if workers is not None:
        row["workers"] = workers
    row.update(extra)
    return row


def run_parallel_bench(config: ParallelBenchConfig | None = None) -> dict:
    config = (config or ParallelBenchConfig()).resolved()
    from ..models import host_models

    builder = getattr(host_models, _BUILDERS[config.model])
    rng = np.random.default_rng(config.seed)
    net = builder(scale=config.scale, rng=rng)
    net.eval_mode()
    images = rng.normal(size=(config.num_images, 3, 32, 32))

    legs: list[dict] = []

    # -- serial baselines -----------------------------------------------------
    net.predict(images[: config.micro_batch])  # warmup
    sec_legacy, scores_legacy = _time_best(net.predict, images, config.repeats)
    spi_legacy = sec_legacy / config.num_images
    legs.append(_leg("serial-legacy", sec_legacy, config.num_images, spi_legacy, config))

    engine64 = net.compile_inference(dtype=np.float64, micro_batch=config.micro_batch)
    engine64.predict_scores(images[: config.micro_batch])
    sec_e64, scores_e64 = _time_best(engine64.predict_scores, images, config.repeats)
    legs.append(
        _leg(
            "serial-engine-f64", sec_e64, config.num_images, spi_legacy, config,
            max_abs_diff_vs_legacy=float(np.abs(scores_e64 - scores_legacy).max()),
            argmax_match_legacy=bool(
                np.array_equal(scores_e64.argmax(axis=1), scores_legacy.argmax(axis=1))
            ),
        )
    )

    engine32 = net.compile_inference(micro_batch=config.micro_batch)
    engine32.predict_scores(images[: config.micro_batch])
    sec_e32, reference = _time_best(engine32.predict_scores, images, config.repeats)
    spi_serial_engine = sec_e32 / config.num_images
    legs.append(
        _leg(
            "serial-engine", sec_e32, config.num_images, spi_legacy, config,
            dtype="float32",
            argmax_match_legacy=bool(
                np.array_equal(reference.argmax(axis=1), scores_legacy.argmax(axis=1))
            ),
        )
    )

    # -- threads (GIL control) ------------------------------------------------
    k_threads = max(config.worker_counts)
    run_threads = _threaded_predict(net, images, k_threads, np.float32, config.micro_batch)
    run_threads(images[: config.micro_batch * k_threads])  # warmup
    sec_thr, scores_thr = _time_best(run_threads, images, config.repeats)
    legs.append(
        _leg(
            f"threads-{k_threads}", sec_thr, config.num_images, spi_legacy, config,
            workers=k_threads,
            bit_identical_to_serial_engine=bool(np.array_equal(scores_thr, reference)),
        )
    )

    # -- processes ------------------------------------------------------------
    for k in config.worker_counts:
        with ParallelHostRunner(
            model=net, n_workers=k, micro_batch=config.micro_batch
        ) as pool:
            # Warm worker 0 only; best-of-repeats absorbs the others' first
            # call.  Warming every worker at once here left procs-2 at half
            # speed (2 vCPUs, 2-thread OpenBLAS per worker).
            pool.predict_scores(images[: config.micro_batch])
            sec_k, scores_k = _time_best(pool.predict_scores, images, config.repeats)
            stats = pool.worker_stats()
        ideal_spi = spi_serial_engine / k
        spi_k = sec_k / config.num_images
        legs.append(
            _leg(
                f"procs-{k}", sec_k, config.num_images, spi_legacy, config,
                workers=k,
                bit_identical_to_serial_engine=bool(np.array_equal(scores_k, reference)),
                parallel_efficiency=ideal_spi / spi_k,
                worker_images={str(s["worker"]): s["images"] for s in stats},
            )
        )

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None

    # -- BNN stage (thread-vs-process composition) ----------------------------
    # The Eq. (1) bound above uses the configured t_bnn constant; measure the
    # real compiled-plan BNN stage at 1 and 2 tile threads so the report shows
    # how intra-stage threads (the plan's threads=) compose with the host-side
    # process sharding timed by the procs-* legs.
    from ..serve.bench import measured_t_bnn

    bnn_images = 32 if config.smoke else 128
    bnn_stage = {
        "t_bnn_config": config.t_bnn,
        "t_bnn_measured": {
            f"threads={k}": measured_t_bnn(
                threads=k, num_images=bnn_images, seed=config.seed
            )
            for k in (1, 2)
        },
        "composition": (
            "BNN plan threads run inside the BNN stage's process; size the "
            "plan's threads= so BNN threads + host workers <= cores"
        ),
    }

    procs_max = next(leg for leg in reversed(legs) if leg["name"].startswith("procs-"))
    report = {
        "config": asdict(config),
        "machine": {
            "cpu_count": os.cpu_count(),
            "sched_affinity": affinity,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "single_core": affinity == 1 or os.cpu_count() == 1,
        "bnn_stage": bnn_stage,
        "legs": legs,
        "summary": {
            "speedup_procs_max_vs_serial_legacy": procs_max["speedup_vs_legacy"],
            "speedup_engine_vs_serial_legacy": spi_legacy / spi_serial_engine,
            "bit_identical_all": all(
                leg.get("bit_identical_to_serial_engine", True) for leg in legs
            ),
        },
    }
    if report["single_core"]:
        report["note"] = (
            "single-core machine: process sharding cannot beat serial here; the "
            "end-to-end speedup is carried by the inference fast path (dataflow "
            "engine + float32), and the procs-* legs document sharding overhead."
        )
    return report


def format_parallel_bench(report: dict) -> str:
    cfg = report["config"]
    rows = []
    for leg in report["legs"]:
        ident = leg.get("bit_identical_to_serial_engine")
        rows.append(
            [
                leg["name"],
                str(leg.get("workers", "-")),
                format_rate(leg["img_per_s"]),
                f"{leg['speedup_vs_legacy']:.2f}x",
                f"{leg['eq1']['t_multi'] * 1e3:.2f} ms",
                format_rate(leg["eq1"]["bound_fps"]),
                "-" if ident is None else ("yes" if ident else "NO"),
            ]
        )
    table = render_table(
        ["leg", "workers", "host img/s", "vs legacy", "Eq.(1) t_multi", "bound fps",
         "bit-identical"],
        rows,
        title=(
            f"bench-parallel: host Model {cfg['model'].upper()} "
            f"(scale={cfg['scale']}, {cfg['num_images']} images, "
            f"micro_batch={cfg['micro_batch']}, best of {cfg['repeats']}) — "
            f"cpu_count={report['machine']['cpu_count']}, "
            f"affinity={report['machine']['sched_affinity']}"
        ),
    )
    lines = [table]
    summary = report["summary"]
    lines.append(
        f"\nengine fast path: {summary['speedup_engine_vs_serial_legacy']:.2f}x vs legacy; "
        f"largest process pool: {summary['speedup_procs_max_vs_serial_legacy']:.2f}x vs "
        f"legacy; bit-identical across modes: "
        f"{'yes' if summary['bit_identical_all'] else 'NO'}"
    )
    if report.get("note"):
        lines.append("note: " + report["note"])
    bnn = report.get("bnn_stage")
    if bnn:
        measured = ", ".join(
            f"{spec} {spi * 1e3:.2f} ms/img"
            for spec, spi in sorted(bnn["t_bnn_measured"].items())
        )
        lines.append(f"BNN stage (compiled plan): {measured} — {bnn['composition']}")
    lines.append(
        "Eq.(1) column: t_multi = max(t_fp * R_rerun, t_bnn) with this leg as the "
        f"host stage (R_rerun={cfg['target_rerun_ratio']}, "
        f"t_bnn={cfg['t_bnn'] * 1e3:.2f} ms)."
    )
    return "\n".join(lines)
