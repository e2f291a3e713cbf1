"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any table or figure of the paper from the terminal:

    python -m repro list
    python -m repro table1
    python -m repro fig3 fig4
    python -m repro table4 --train-budget full
    python -m repro all

Experiments that need trained networks share the on-disk workbench cache,
so only the first invocation pays the numpy training cost.

The serving layer has its own load-test subcommand:

    python -m repro serve-bench
    python -m repro serve-bench --target-rerun 0.25 --host-workers 2
    python -m repro serve-bench --measure-t-bnn 0.25 --bnn-backend bitplane
    python -m repro serve-bench --fault-plan examples/faultplan_host_flaky.json
    python -m repro serve-bench --ladder 0.002   # 3-stage precision ladder

and the binary-kernel backends have a benchmark harness:

    python -m repro bench-kernels
    python -m repro bench-kernels --smoke --output /tmp/BENCH_kernels.json

and the process-parallel host engine has its own harness:

    python -m repro bench-parallel
    python -m repro bench-parallel --model c --workers 1 2 4 --smoke

``repro trace`` records one served cascade run with the :mod:`repro.obs`
tracer and writes a Chrome trace-event timeline (Eq. (1) overlap made
visible, Eqs. (3)-(5) per-layer breakdown printed):

    python -m repro trace --output trace.json
    python -m repro trace --backend bitplane --simulated trace_sim.json

``repro serve-net`` stands up the socket stack (frontend + shard router
+ N cascade replica processes), drives it over loopback and reconciles
the wire books (see docs/NETWORK.md):

    python -m repro serve-net --replicas 2 --requests 200
    python -m repro serve-net --placement rendezvous --kill-replica-after 50
    python -m repro serve-net --fault-plan examples/faultplan_host_flaky.json
    python -m repro serve-net --ladder      # 3-stage ladder replicas

``repro serve-load`` replays a seeded open-loop arrival trace (flash
crowd, diurnal, ...) against the cascade while the SLO autoscaler holds
a p99 latency target (see docs/TRAFFIC.md):

    python -m repro serve-load --trace flash --slo-p99-ms 25
    python -m repro serve-load --trace poisson --time-scale 8
    python -m repro serve-load --trace path/to/trace.json --fault-plan ...

``repro serve-tenants`` serves two tenants (Model A + Model C) from one
DRR-scheduled shared host pool behind the content-addressed result
cache, replaying a held video trace twice (cold vs cached), and writes
``benchmarks/results/BENCH_cache.json`` (see docs/TENANCY.md):

    python -m repro serve-tenants
    python -m repro serve-tenants --repeat-frames 4 --cache-mb 16
    python -m repro serve-bench --cache-mb 32 --duplicate-fraction 0.5
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .experiments import (
    Workbench,
    WorkbenchConfig,
    chosen_configuration,
    fig34,
    fig5_table2,
    standard_sweep,
    table1,
    table3,
    table4,
    table5,
)
from .experiments.ablations import (
    format_ablations,
    run_batch_size_sweep,
    run_eq1_validation,
)

__all__ = ["main", "TRAIN_BUDGETS"]

#: Named training budgets for the functional experiments.
TRAIN_BUDGETS = {
    "micro": WorkbenchConfig(
        num_train=300, num_test=120, bnn_scale=0.1, host_scale=0.15,
        bnn_epochs=2, host_epochs=2,
    ),
    "bench": WorkbenchConfig(
        num_train=2400, num_test=600, bnn_epochs=10, host_epochs=18,
        bnn_scale=0.15, host_scale=0.25, host_lr=0.001,
        target_rerun_ratio=0.30,
    ),
    "full": WorkbenchConfig(),
}


def _needs_workbench(name: str) -> bool:
    return name in ("fig5", "table2", "table4", "table5")


def _run_one(name: str, workbench: Workbench | None) -> str:
    analytic: dict[str, Callable[[], str]] = {
        "table1": lambda: table1.run(chosen_configuration()).format(),
        "fig3": lambda: fig34.run_fig3(standard_sweep()).format(),
        "fig4": lambda: fig34.run_fig4(standard_sweep()).format(),
        "table3": lambda: table3.run().format(),
        "ablations": lambda: format_ablations(
            run_batch_size_sweep(), run_eq1_validation()
        ),
    }
    if name in analytic:
        return analytic[name]()
    assert workbench is not None
    trained: dict[str, Callable[[], str]] = {
        "fig5": lambda: fig5_table2.run_fig5(workbench).format(),
        "table2": lambda: fig5_table2.run_table2(workbench).format(),
        "table4": lambda: table4.run(workbench).format(),
        "table5": lambda: table5.run(workbench).format(),
    }
    return trained[name]()


EXPERIMENTS = ("table1", "fig3", "fig4", "fig5", "table2", "table3", "table4", "table5", "ablations")


def serve_bench_main(argv: list[str]) -> int:
    """``repro serve-bench``: load-test the concurrent cascade server."""
    from dataclasses import replace

    from .serve import ServeBenchConfig, format_serve_bench, run_serve_bench

    defaults = ServeBenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description=(
            "Drive the concurrent cascade server under closed-loop load and "
            "compare the adaptive DMU-threshold controller against a naive "
            "static threshold and the Eq. (1) analytic bound."
        ),
    )
    parser.add_argument("--requests", type=int, default=defaults.num_requests)
    parser.add_argument("--clients", type=int, default=defaults.num_clients)
    parser.add_argument(
        "--target-rerun", type=float, default=defaults.target_rerun_ratio,
        help="rerun ratio the controller should hold (default %(default)s)",
    )
    parser.add_argument("--naive-threshold", type=float, default=defaults.naive_threshold)
    parser.add_argument("--t-fp", type=float, default=defaults.t_fp,
                        help="host seconds/image (default %(default)s)")
    parser.add_argument("--t-bnn", type=float, default=defaults.t_bnn,
                        help="BNN seconds/image (default %(default)s)")
    parser.add_argument("--batch-size", type=int, default=defaults.max_batch_size)
    parser.add_argument("--host-workers", type=int, default=defaults.num_host_workers)
    parser.add_argument(
        "--host-process-workers", type=int, default=None, metavar="N",
        help=(
            "shard the host stage across N processes via "
            "repro.parallel.ParallelHostRunner (Eq. (1) t_fp -> t_fp/N)"
        ),
    )
    parser.add_argument("--host-queue", type=int, default=defaults.host_queue_capacity)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--bnn-backend", default=None,
        help=(
            "binary-kernel backend for the BNN stage "
            "(reference/bitplane/threaded[@K[:TILE]]/auto)"
        ),
    )
    parser.add_argument(
        "--measure-t-bnn", type=float, default=None, metavar="SCALE",
        help=(
            "replace the constant --t-bnn with the measured seconds/image of the "
            "real folded CNV at this width scale under --bnn-backend"
        ),
    )
    parser.add_argument(
        "--measure-t-host", type=float, default=None, metavar="SCALE",
        help=(
            "replace the constant --t-fp with the measured seconds/image of the "
            "real host Model A inference fast path at this width scale, sharded "
            "over --host-process-workers processes"
        ),
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "record the adaptive leg with repro.obs and write a Chrome "
            "trace-event JSON (chrome://tracing / Perfetto) to PATH"
        ),
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help=(
            "chaos mode: inject the seeded repro.faults.FaultPlan JSON at PATH "
            "into the BNN/DMU/host stages of both legs "
            "(e.g. examples/faultplan_host_flaky.json)"
        ),
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; late requests degrade or fail (default: off)",
    )
    parser.add_argument(
        "--ladder", default=None, metavar="T1[,T2...]",
        help=(
            "bench an N-stage precision ladder: comma-separated middle-rung "
            "seconds/image between the BNN and the host (e.g. --ladder 0.002 "
            "for a 3-stage bnn -> mid1 -> host run); the report gains the "
            "Eq. (1N) per-stage terms and the per-stage books check"
        ),
    )
    parser.add_argument(
        "--ladder-target-forward", type=float, default=None, metavar="RATIO",
        help=(
            "per-hop target forward ratio for the ladder's adaptive leg "
            "(default: --target-rerun at every hop)"
        ),
    )
    parser.add_argument(
        "--cache-mb", type=float, default=0.0, metavar="MB",
        help=(
            "attach a content-addressed repro.cache result cache of this many "
            "MiB in front of each leg (docs/TENANCY.md); adds the hit-rate "
            "column and exits nonzero if the cache books don't reconcile"
        ),
    )
    parser.add_argument(
        "--duplicate-fraction", type=float, default=0.0, metavar="F",
        help=(
            "fraction of the request stream that repeats earlier requests' "
            "exact bytes — the duplicate mass a cache can win back"
        ),
    )
    args = parser.parse_args(argv)

    ladder_stage_times = None
    if args.ladder is not None:
        try:
            ladder_stage_times = tuple(
                float(part) for part in args.ladder.split(",") if part.strip()
            )
        except ValueError:
            parser.error(f"--ladder must be comma-separated floats, got {args.ladder!r}")
        if not ladder_stage_times:
            parser.error("--ladder needs at least one middle-rung time")
        if len(ladder_stage_times) > 4:
            parser.error("--ladder supports at most 4 middle rungs")
        if any(t <= 0 for t in ladder_stage_times):
            parser.error("--ladder stage times must be positive")
    if args.ladder_target_forward is not None and not (
        0.0 <= args.ladder_target_forward <= 1.0
    ):
        parser.error(
            f"--ladder-target-forward must be in [0, 1], got {args.ladder_target_forward}"
        )

    if not 0.0 <= args.target_rerun <= 1.0:
        parser.error(f"--target-rerun must be in [0, 1], got {args.target_rerun}")
    if not 0.0 <= args.naive_threshold <= 1.0:
        parser.error(f"--naive-threshold must be in [0, 1], got {args.naive_threshold}")
    if args.requests < 0:
        parser.error(f"--requests must be >= 0, got {args.requests}")
    for name in ("clients", "batch_size", "host_workers", "host_queue"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if args.t_fp <= 0 or args.t_bnn <= 0:
        parser.error("--t-fp and --t-bnn must be positive")
    if args.measure_t_bnn is not None and args.measure_t_bnn <= 0:
        parser.error("--measure-t-bnn scale must be positive")
    if args.measure_t_host is not None and args.measure_t_host <= 0:
        parser.error("--measure-t-host scale must be positive")
    if args.host_process_workers is not None and args.host_process_workers < 1:
        parser.error("--host-process-workers must be >= 1")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be positive")
    if args.cache_mb < 0:
        parser.error("--cache-mb must be >= 0")
    if not 0.0 <= args.duplicate_fraction < 1.0:
        parser.error(
            f"--duplicate-fraction must be in [0, 1), got {args.duplicate_fraction}"
        )
    if args.fault_plan is not None:
        from pathlib import Path

        if not Path(args.fault_plan).is_file():
            parser.error(f"--fault-plan file not found: {args.fault_plan}")

    config = replace(
        ServeBenchConfig(),
        num_requests=args.requests,
        num_clients=args.clients,
        target_rerun_ratio=args.target_rerun,
        naive_threshold=args.naive_threshold,
        t_fp=args.t_fp,
        t_bnn=args.t_bnn,
        max_batch_size=args.batch_size,
        num_host_workers=args.host_workers,
        host_process_workers=args.host_process_workers,
        host_queue_capacity=args.host_queue,
        seed=args.seed,
        bnn_backend=args.bnn_backend,
        measured_bnn_scale=args.measure_t_bnn,
        measured_host_scale=args.measure_t_host,
        trace_path=args.trace,
        fault_plan_path=args.fault_plan,
        deadline_s=args.deadline,
        ladder_stage_times=ladder_stage_times,
        ladder_target_forward_ratio=args.ladder_target_forward,
        cache_max_bytes=int(args.cache_mb * 1024 * 1024),
        duplicate_fraction=args.duplicate_fraction,
    )
    print(
        f"serve-bench: 2 runs x {config.num_requests} requests, "
        f"{config.num_clients} closed-loop clients"
        + (
            f", {2 + len(ladder_stage_times)}-stage ladder"
            if ladder_stage_times
            else ""
        )
        + " ...",
        file=sys.stderr,
    )
    report = run_serve_bench(config)
    print(format_serve_bench(report))
    # Nonzero unless every leg's per-stage books balance — and, with a
    # cache attached, unless the cache's own books reconcile
    # (hits + misses == lookups): the CI smokes (and any scripted run)
    # hard-fail on lost/duplicated requests or miscounted lookups.
    return 0 if report.books_balanced and report.cache_books_balanced else 1


def serve_load_main(argv: list[str]) -> int:
    """``repro serve-load``: open-loop trace replay under the SLO autoscaler."""
    from .traffic import (
        TRACE_SHAPES,
        ServeLoadConfig,
        format_serve_load,
        run_serve_load,
    )

    defaults = ServeLoadConfig()
    parser = argparse.ArgumentParser(
        prog="repro serve-load",
        description=(
            "Replay a seeded open-loop arrival trace against the cascade "
            "server while the SLO autoscaler grows the host pool and "
            "tightens admission to hold a p99 latency target "
            "(docs/TRAFFIC.md). Exits nonzero unless the books balance."
        ),
    )
    parser.add_argument(
        "--trace", default=defaults.trace, metavar="SHAPE|PATH",
        help=(
            f"trace shape ({', '.join(sorted(TRACE_SHAPES))}) or a trace "
            "JSON file path (default %(default)s)"
        ),
    )
    parser.add_argument("--slo-p99-ms", type=float, default=defaults.slo_p99_ms,
                        help="p99 latency target in ms (default %(default)s)")
    parser.add_argument("--rate", type=float, default=defaults.rate,
                        help="nominal offered img/s for shape traces (default %(default)s)")
    parser.add_argument("--duration", type=float, default=defaults.duration,
                        help="trace span in seconds for shape traces (default %(default)s)")
    parser.add_argument(
        "--time-scale", type=float, default=defaults.time_scale, metavar="X",
        help="replay the trace X times faster than recorded (default %(default)s)",
    )
    parser.add_argument("--window", type=float, default=defaults.window_seconds,
                        metavar="SECONDS",
                        help="autoscaler control window (default %(default)s)")
    parser.add_argument(
        "--host-workers", type=int, default=None, metavar="N",
        help=(
            "starting parallel host pool size (default: REPRO_HOST_WORKERS "
            f"or {defaults.host_workers})"
        ),
    )
    parser.add_argument("--max-workers", type=int, default=defaults.max_workers,
                        help="pool-size ceiling for the autoscaler (default %(default)s)")
    parser.add_argument("--target-rerun", type=float, default=defaults.target_rerun_ratio)
    parser.add_argument("--t-fp", type=float, default=defaults.t_fp,
                        help="host seconds/image (default %(default)s)")
    parser.add_argument("--t-bnn", type=float, default=defaults.t_bnn,
                        help="BNN seconds/image (default %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help=(
            "chaos-under-load: inject the seeded repro.faults.FaultPlan JSON "
            "at PATH into the BNN/DMU/host stages"
        ),
    )
    parser.add_argument(
        "--obs-trace", default=None, metavar="PATH",
        help=(
            "record the run with repro.obs (slo.decision instants, "
            "slo.workers gauge) and write Chrome trace JSON to PATH"
        ),
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the per-window report JSON here (e.g. "
             "benchmarks/results/BENCH_traffic.json)",
    )
    args = parser.parse_args(argv)

    if args.trace not in TRACE_SHAPES:
        from pathlib import Path

        if not Path(args.trace).is_file():
            parser.error(
                f"--trace must be one of {', '.join(sorted(TRACE_SHAPES))} "
                f"or an existing trace file, got {args.trace!r}"
            )
    if args.slo_p99_ms <= 0:
        parser.error("--slo-p99-ms must be positive")
    if args.rate <= 0 or args.duration <= 0:
        parser.error("--rate and --duration must be positive")
    if args.time_scale <= 0:
        parser.error("--time-scale must be positive")
    if args.window <= 0:
        parser.error("--window must be positive")
    if not 0.0 <= args.target_rerun <= 1.0:
        parser.error(f"--target-rerun must be in [0, 1], got {args.target_rerun}")
    if args.t_fp <= 0 or args.t_bnn <= 0:
        parser.error("--t-fp and --t-bnn must be positive")
    if args.host_workers is not None and args.host_workers < 0:
        parser.error("--host-workers must be >= 0 (0 = serial host)")
    if args.max_workers < 1:
        parser.error("--max-workers must be >= 1")
    if args.fault_plan is not None:
        from pathlib import Path

        if not Path(args.fault_plan).is_file():
            parser.error(f"--fault-plan file not found: {args.fault_plan}")

    from dataclasses import replace

    from .parallel import resolve_host_workers

    if args.host_workers is not None:
        host_workers = args.host_workers
    else:
        host_workers = resolve_host_workers(None) or defaults.host_workers

    config = replace(
        ServeLoadConfig(),
        trace=args.trace,
        slo_p99_ms=args.slo_p99_ms,
        rate=args.rate,
        duration=args.duration,
        time_scale=args.time_scale,
        window_seconds=args.window,
        host_workers=host_workers,
        max_workers=args.max_workers,
        target_rerun_ratio=args.target_rerun,
        t_fp=args.t_fp,
        t_bnn=args.t_bnn,
        seed=args.seed,
        fault_plan_path=args.fault_plan,
    )
    print(
        f"serve-load: replaying trace '{config.trace}' "
        f"(x{config.time_scale:g} clock) vs SLO p99 <= "
        f"{config.slo_p99_ms:g} ms ...",
        file=sys.stderr,
    )
    if args.obs_trace:
        from . import obs

        with obs.tracing() as tracer:
            report = run_serve_load(config)
        trace_path = obs.write_chrome_trace(tracer, args.obs_trace)
        print(f"wrote {trace_path} ({len(tracer.spans)} spans)", file=sys.stderr)
    else:
        report = run_serve_load(config)
    print(format_serve_load(report))
    if args.output:
        import json
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}", file=sys.stderr)
    # The CI gate: every arrival must be accounted for exactly once.
    return 0 if report.books["balanced"] else 1


def bench_kernels_main(argv: list[str]) -> int:
    """``repro bench-kernels``: time the binary-kernel backends."""
    from .bnn.kernels import available_backends
    from .bnn.kernels.bench import (
        KernelBenchConfig,
        format_kernel_bench,
        run_kernel_bench,
        write_kernel_bench,
    )

    defaults = KernelBenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro bench-kernels",
        description=(
            "Benchmark every binary-kernel backend on the folded CNV network's "
            "matmul shapes and end-to-end, verify bit-exactness, and write a "
            "JSON report tracking the BNN datapath's performance."
        ),
    )
    parser.add_argument("--scale", type=float, default=defaults.scale,
                        help="CNV width scale (default %(default)s)")
    parser.add_argument("--batch-size", type=int, default=defaults.batch_size)
    parser.add_argument("--images", type=int, default=defaults.num_images,
                        help="end-to-end images timed (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=defaults.repeats)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: shrink batch/reps to run in seconds")
    parser.add_argument(
        "--backends", nargs="+", default=None,
        help=f"backend subset to time (default: all = {', '.join(available_backends())})",
    )
    parser.add_argument(
        "--output", default="benchmarks/results/BENCH_kernels.json",
        help="JSON report path, or '-' to skip writing (default %(default)s)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "run the benchmark under a repro.obs tracer (kernel.* and bnn.* "
            "spans, autotune decisions) and write Chrome trace JSON to PATH"
        ),
    )
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    for name in ("batch_size", "images", "repeats"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if args.backends:
        from .bnn.kernels import get_kernel

        unknown = []
        for b in args.backends:
            try:
                get_kernel(b)  # accepts variants like threaded@2
            except KeyError:
                unknown.append(b)
        if unknown:
            parser.error(f"unknown backend(s): {', '.join(unknown)}")
        if args.backends[0] != "reference":
            parser.error("--backends must start with 'reference' (the baseline)")

    config = KernelBenchConfig(
        scale=args.scale,
        batch_size=args.batch_size,
        num_images=args.images,
        repeats=args.repeats,
        seed=args.seed,
        smoke=args.smoke,
    )
    print("bench-kernels: timing backends (bit-exactness verified per shape) ...",
          file=sys.stderr)
    if args.trace:
        from . import obs

        with obs.tracing() as tracer:
            report = run_kernel_bench(config, backends=args.backends)
        trace_path = obs.write_chrome_trace(tracer, args.trace)
        print(f"wrote {trace_path} ({len(tracer.spans)} spans)", file=sys.stderr)
    else:
        report = run_kernel_bench(config, backends=args.backends)
    print(format_kernel_bench(report))
    if args.output != "-":
        path = write_kernel_bench(report, args.output)
        print(f"\nwrote {path}", file=sys.stderr)
    exact = all(all(s["bit_exact"].values()) for s in report["shapes"]) and all(
        run["predictions_match_reference"] for run in report["end_to_end"]["runs"].values()
    )
    return 0 if exact else 1


def bench_parallel_main(argv: list[str]) -> int:
    """``repro bench-parallel``: time the process-parallel host engine."""
    from .parallel.bench import (
        ParallelBenchConfig,
        format_parallel_bench,
        run_parallel_bench,
        write_parallel_bench,
    )

    defaults = ParallelBenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro bench-parallel",
        description=(
            "Benchmark the host float path serially (legacy forward vs the "
            "inference engine), across threads (GIL control) and across "
            "shared-memory worker processes; verify bit-identical logits in "
            "every mode and write a JSON report with the Eq. (1) implications."
        ),
    )
    parser.add_argument("--model", choices=("a", "b", "c"), default=defaults.model,
                        help="host model (Table III; default %(default)s)")
    parser.add_argument("--scale", type=float, default=defaults.scale,
                        help="host model width scale (default %(default)s)")
    parser.add_argument("--images", type=int, default=defaults.num_images,
                        help="images timed per leg (default %(default)s)")
    parser.add_argument("--micro-batch", type=int, default=defaults.micro_batch)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(defaults.worker_counts),
        help="process-pool sizes to time (default %(default)s)",
    )
    parser.add_argument("--repeats", type=int, default=defaults.repeats)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: shrink images/repeats to run in seconds")
    parser.add_argument(
        "--output", default="benchmarks/results/BENCH_parallel.json",
        help="JSON report path, or '-' to skip writing (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    for name in ("images", "micro_batch", "repeats"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if any(k < 1 for k in args.workers):
        parser.error("--workers entries must be >= 1")

    config = ParallelBenchConfig(
        model=args.model,
        scale=args.scale,
        num_images=args.images,
        micro_batch=args.micro_batch,
        worker_counts=tuple(args.workers),
        repeats=args.repeats,
        seed=args.seed,
        smoke=args.smoke,
    )
    print(
        "bench-parallel: timing serial/threads/process legs "
        "(bit-identity verified per leg) ...",
        file=sys.stderr,
    )
    report = run_parallel_bench(config)
    print(format_parallel_bench(report))
    if args.output != "-":
        path = write_parallel_bench(report, args.output)
        print(f"\nwrote {path}", file=sys.stderr)
    return 0 if report["summary"]["bit_identical_all"] else 1


def trace_main(argv: list[str]) -> int:
    """``repro trace``: record one traced cascade run and export it."""
    from .obs.run import (
        TraceRunConfig,
        format_trace_report,
        run_traced_cascade,
        write_simulated_trace,
        write_trace,
    )

    defaults = TraceRunConfig()
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Serve a synthetic image stream through the real folded-CNV + host "
            "cascade with the repro.obs tracer installed; print the span "
            "summary, the Eq. (1) overlap/residual checks and the Eqs. (3)-(5) "
            "per-layer breakdown; write a Chrome trace-event JSON timeline."
        ),
    )
    parser.add_argument("--requests", type=int, default=defaults.num_images,
                        help="images served (default %(default)s)")
    parser.add_argument("--scale", type=float, default=defaults.scale,
                        help="CNV width scale of the BNN stage (default %(default)s)")
    parser.add_argument("--host-scale", type=float, default=defaults.host_scale,
                        help="Model A width scale of the host stage (default %(default)s)")
    parser.add_argument(
        "--backend", default=None,
        help="binary-kernel backend (reference/bitplane/threaded[@K]/auto; default: env/auto)",
    )
    parser.add_argument("--target-rerun", type=float, default=defaults.target_rerun_ratio,
                        help="DMU threshold is calibrated to this rerun ratio")
    parser.add_argument("--batch-size", type=int, default=defaults.max_batch_size)
    parser.add_argument("--host-workers", type=int, default=defaults.num_host_workers)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--output", default="trace.json", metavar="PATH",
        help="Chrome trace JSON path, '-' to skip writing (default %(default)s)",
    )
    parser.add_argument(
        "--simulated", default=None, metavar="PATH",
        help=(
            "also write the idealized repro.hetero simulation of the same run "
            "(measured stage times, perfect pipelining) as a second trace"
        ),
    )
    parser.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="write the span-summary/residual digest as JSON",
    )
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.scale <= 0 or args.host_scale <= 0:
        parser.error("--scale and --host-scale must be positive")
    if not 0.0 <= args.target_rerun <= 1.0:
        parser.error(f"--target-rerun must be in [0, 1], got {args.target_rerun}")
    for name in ("batch_size", "host_workers"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")

    config = TraceRunConfig(
        num_images=args.requests,
        scale=args.scale,
        host_scale=args.host_scale,
        backend=args.backend,
        target_rerun_ratio=args.target_rerun,
        max_batch_size=args.batch_size,
        num_host_workers=args.host_workers,
        seed=args.seed,
    )
    print(
        f"trace: serving {config.num_images} synthetic images through the "
        f"folded CNV (scale={config.scale}) + host cascade ...",
        file=sys.stderr,
    )
    report = run_traced_cascade(config)
    print(format_trace_report(report))
    if args.output != "-":
        path = write_trace(report.tracer, args.output)
        print(f"\nwrote {path} — load it in chrome://tracing or ui.perfetto.dev",
              file=sys.stderr)
    if args.simulated:
        path = write_simulated_trace(report, args.simulated)
        print(f"wrote {path} (idealized hetero simulation of the same run)",
              file=sys.stderr)
    if args.summary_json:
        import json
        from pathlib import Path

        digest = {
            "summary": report.summary,
            "overlap_seconds": report.overlap_seconds,
            "bnn_busy_seconds": report.bnn_busy_seconds,
            "host_busy_seconds": report.host_busy_seconds,
            "layer_residuals": report.layer_residuals,
            "eq1": report.eq1,
            "rerun_ratio": report.rerun_ratio,
            "completed": report.completed,
            "wall_seconds": report.wall_seconds,
        }
        path = Path(args.summary_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def serve_net_main(argv: list[str]) -> int:
    """``repro serve-net``: loopback-drive the socket frontend + router."""
    from .net.bench import NetBenchConfig, format_net_bench, run_net_bench
    from .net.router import PLACEMENTS

    defaults = NetBenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro serve-net",
        description=(
            "Start the network serving stack (socket frontend + shard router "
            "+ N CascadeServer replica processes), push a synthetic image "
            "stream over real loopback sockets, and verify the wire books "
            "balance at every layer (routed + rejected + failed == submitted)."
        ),
    )
    parser.add_argument("--requests", type=int, default=defaults.num_requests)
    parser.add_argument("--clients", type=int, default=defaults.num_clients)
    parser.add_argument("--replicas", type=int, default=defaults.num_replicas,
                        help="CascadeServer replica processes (default %(default)s)")
    parser.add_argument("--placement", choices=PLACEMENTS, default=defaults.placement)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help="bind port (default 0 = ephemeral)")
    parser.add_argument("--max-inflight", type=int, default=defaults.max_inflight,
                        help="frontend admission bound (default %(default)s)")
    parser.add_argument("--threshold", type=float, default=defaults.threshold,
                        help="static DMU threshold of each replica")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="inject this seeded repro.faults.FaultPlan JSON into every replica",
    )
    parser.add_argument(
        "--kill-replica-after", type=int, default=None, metavar="N",
        help="chaos: hard-kill replica 0 after N requests were submitted",
    )
    parser.add_argument(
        "--ladder", action="store_true",
        help=(
            "run each replica as a 3-stage precision ladder "
            "(bnn -> mid1 -> host, docs/LADDER.md) instead of the 2-stage cascade"
        ),
    )
    args = parser.parse_args(argv)

    if args.requests < 1:
        parser.error("--requests must be >= 1")
    for name in ("clients", "replicas", "max_inflight"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1")
    if not 0.0 <= args.threshold <= 1.0:
        parser.error(f"--threshold must be in [0, 1], got {args.threshold}")
    if args.port < 0:
        parser.error("--port must be >= 0")
    if args.kill_replica_after is not None and args.kill_replica_after < 0:
        parser.error("--kill-replica-after must be >= 0")
    if args.fault_plan is not None:
        from pathlib import Path

        if not Path(args.fault_plan).is_file():
            parser.error(f"--fault-plan file not found: {args.fault_plan}")

    config = NetBenchConfig(
        num_requests=args.requests,
        num_clients=args.clients,
        num_replicas=args.replicas,
        placement=args.placement,
        port=args.port,
        max_inflight=args.max_inflight,
        threshold=args.threshold,
        seed=args.seed,
        fault_plan_path=args.fault_plan,
        kill_replica_after=args.kill_replica_after,
        ladder=args.ladder,
    )
    print(
        f"serve-net: {config.num_replicas} replica processes, "
        f"{config.num_clients} clients x loopback sockets, "
        f"{config.num_requests} requests ...",
        file=sys.stderr,
    )
    report = run_net_bench(config)
    print(format_net_bench(report))
    return 0 if report["ok"] else 1


def serve_tenants_main(argv: list[str]) -> int:
    """``repro serve-tenants``: two-tenant shared-pool + cache benchmark."""
    from dataclasses import replace

    from .serve.tenant_bench import (
        TenantBenchConfig,
        format_tenant_bench,
        run_tenant_bench,
        write_tenant_bench,
    )

    defaults = TenantBenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro serve-tenants",
        description=(
            "Serve two tenants (Model A + Model C cascades) from one "
            "DRR-scheduled shared host pool, replay the same video trace at "
            "both — once cold, once behind the content-addressed result "
            "cache — and verify hit rate, throughput win, bit-identity and "
            "books balance (docs/TENANCY.md). Exits nonzero unless every "
            "check passes."
        ),
    )
    parser.add_argument("--frames", type=int, default=defaults.num_frames,
                        help="video frames in the trace (default %(default)s)")
    parser.add_argument(
        "--repeat-frames", type=int, default=defaults.repeat_frames,
        help=(
            "frame hold factor; exact duplicate fraction = (N-1)/N "
            "(default %(default)s)"
        ),
    )
    parser.add_argument("--fps", type=float, default=defaults.fps)
    parser.add_argument("--time-scale", type=float, default=defaults.time_scale,
                        help="replay speed multiplier (default %(default)s)")
    parser.add_argument("--lanes", type=int, default=defaults.lanes,
                        help="concurrent pool executions (default %(default)s)")
    parser.add_argument(
        "--cache-mb", type=float, default=defaults.cache_max_bytes / (1024 * 1024),
        help="result-cache byte budget in MiB (default %(default)s)",
    )
    parser.add_argument("--quota", type=int, default=defaults.quota,
                        help="per-tenant in-flight quota (default %(default)s)")
    parser.add_argument("--threshold", type=float, default=defaults.threshold,
                        help="static DMU threshold (default %(default)s)")
    parser.add_argument("--t-bnn", type=float, default=defaults.t_bnn,
                        help="modeled BNN seconds/image (default %(default)s)")
    parser.add_argument(
        "--host-workers", type=int, default=None, metavar="N",
        help=(
            "per-tenant ParallelHostRunner process pool size "
            "(default: REPRO_HOST_WORKERS or serial)"
        ),
    )
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--output", default="benchmarks/results/BENCH_cache.json",
        help="JSON report path, or '-' to skip writing (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.frames < 1:
        parser.error("--frames must be >= 1")
    if args.repeat_frames < 1:
        parser.error("--repeat-frames must be >= 1")
    if args.fps <= 0 or args.time_scale <= 0:
        parser.error("--fps and --time-scale must be positive")
    if args.lanes < 1 or args.quota < 1:
        parser.error("--lanes and --quota must be >= 1")
    if args.cache_mb <= 0:
        parser.error("--cache-mb must be positive (the cached leg needs a cache)")
    if not 0.0 <= args.threshold <= 1.0:
        parser.error(f"--threshold must be in [0, 1], got {args.threshold}")
    if args.t_bnn <= 0:
        parser.error("--t-bnn must be positive")
    if args.host_workers is not None and args.host_workers < 0:
        parser.error("--host-workers must be >= 0 (0 = serial host)")

    config = replace(
        TenantBenchConfig(),
        num_frames=args.frames,
        repeat_frames=args.repeat_frames,
        fps=args.fps,
        time_scale=args.time_scale,
        lanes=args.lanes,
        cache_max_bytes=int(args.cache_mb * 1024 * 1024),
        quota=args.quota,
        threshold=args.threshold,
        t_bnn=args.t_bnn,
        host_workers=args.host_workers,
        seed=args.seed,
    )
    print(
        f"serve-tenants: 2 legs x 2 tenants, {config.num_frames} frames "
        f"x{config.repeat_frames} hold "
        f"(duplicate fraction {config.duplicate_fraction:.0%}) ...",
        file=sys.stderr,
    )
    report = run_tenant_bench(config)
    print(format_tenant_bench(report))
    if args.output != "-":
        path = write_tenant_bench(report, args.output)
        print(f"\nwrote {path}", file=sys.stderr)
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    if argv and argv[0] == "serve-tenants":
        return serve_tenants_main(argv[1:])
    if argv and argv[0] == "serve-net":
        return serve_net_main(argv[1:])
    if argv and argv[0] == "serve-load":
        return serve_load_main(argv[1:])
    if argv and argv[0] == "bench-kernels":
        return bench_kernels_main(argv[1:])
    if argv and argv[0] == "bench-parallel":
        return bench_parallel_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the DATE'18 multi-precision CNN paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}), 'all', or 'list'",
    )
    parser.add_argument(
        "--train-budget",
        choices=sorted(TRAIN_BUDGETS),
        default="bench",
        help="training budget for experiments that need trained networks",
    )
    args = parser.parse_args(argv)

    names = list(args.experiments)
    if names == ["list"]:
        print("available experiments:", ", ".join(EXPERIMENTS))
        return 0
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    workbench = None
    if any(_needs_workbench(n) for n in names):
        workbench = Workbench(TRAIN_BUDGETS[args.train_budget])
        print(
            f"preparing workbench (budget={args.train_budget}; "
            "first run trains in numpy, later runs hit the cache) ...",
            file=sys.stderr,
        )
        workbench.prepare_all()

    for i, name in enumerate(names):
        if i:
            print()
        print(_run_one(name, workbench))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
