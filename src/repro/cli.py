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
    python -m repro serve-bench --measure-t-bnn 0.25
    python -m repro serve-bench --fault-plan examples/faultplan_host_flaky.json
    python -m repro serve-bench --ladder 0.002   # 3-stage precision ladder

and the process-parallel host engine has its own harness:

    python -m repro bench-parallel
    python -m repro bench-parallel --model c --workers 1 2 4 --smoke

``repro trace`` records one served cascade run with the :mod:`repro.obs`
tracer and writes a Chrome trace-event timeline (Eq. (1) overlap made
visible, Eqs. (3)-(5) per-layer breakdown printed):

    python -m repro trace --output trace.json
    python -m repro trace --simulated trace_sim.json

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
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from . import obs
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


MIB = 1024 * 1024
_FROM_CONFIG = object()


@dataclass(frozen=True)
class Flag:
    """One option of a bench subcommand.

    A flag that fills a Config *field* takes its type and default from
    the dataclass; the table states only what the field cannot: the
    help text, a metavar, a unit (*scale*: flag units per field unit,
    ``--cache-mb`` MiB -> bytes) or a *convert* from the parsed value to
    the field's (and a ``ValueError`` for what cannot be converted).  A
    flag with no field is read by the command itself (artifact paths).
    """

    name: str
    field: str | None = None
    help: str | None = None
    metavar: str | None = None
    scale: int | None = None
    convert: Callable[[Any], Any] | None = None
    default: Any = _FROM_CONFIG
    choices: tuple | None = None
    nargs: str | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser, defaults) -> None:
        annotation, default = "str", None
        if self.field is not None:
            (annotation,) = (f.type for f in fields(defaults) if f.name == self.field)
            default = getattr(defaults, self.field)
        kind = annotation.removesuffix(" | None")
        if kind == "bool":
            parser.add_argument(self.name, action="store_true", help=self.help)
            return
        if kind.startswith("tuple["):
            # One value per element with nargs; else one string to convert.
            kind = kind[len("tuple["):].split(",")[0] if self.nargs else "str"
            default = None if default is None else list(default)
        if self.scale:
            kind, default = "float", default / self.scale
        parser.add_argument(
            self.name,
            type={"int": int, "float": float}.get(kind),
            default=default if self.default is _FROM_CONFIG else self.default,
            help=self.help, metavar=self.metavar, choices=self.choices,
            nargs=self.nargs,
        )

    def value(self, args: argparse.Namespace):
        value = getattr(args, self.dest)
        if self.convert is not None:
            return self.convert(value)
        if self.scale:
            return int(value * self.scale)
        return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class Command:
    """One ``repro <command>``: a Config, its flags, and what to do with both."""

    description: str
    config: type                                 # the *Config the flags fill
    flags: tuple[Flag, ...]
    banner: Callable[[Any], str]                 # config -> progress line (stderr)
    run: Callable[[Any, argparse.Namespace], Any]  # (config, args) -> report
    render: Callable[[Any], str]                 # report -> stdout
    ok: Callable[[Any], bool]                    # report -> exit 0
    #: report -> the JSON ``--output`` writes (None: no ``--output`` artifact).
    as_json: Callable[[Any], dict] | None = None
    #: dest of the flag that runs the harness under a ``repro.obs`` tracer.
    trace_flag: str | None = None
    #: (report, args) -> None: artifacts beyond ``--output`` (``repro trace``).
    epilogue: Callable[[Any, argparse.Namespace], None] | None = None


def _existing_file(flag: str) -> Callable[[str | None], str | None]:
    def convert(path):
        if path is not None and not Path(path).is_file():
            raise ValueError(f"{flag} file not found: {path}")
        return path

    return convert


def _in_flag_terms(message: str, flags: tuple[Flag, ...]) -> str:
    """A Config's ``ValueError`` names fields; the user typed flags."""
    for flag in flags:
        if flag.field is not None:
            message = re.sub(rf"\b{flag.field}\b", flag.name, message)
    return message


def run_command(name: str, argv: list[str]) -> int:
    """Parse → build the Config → banner → run → print → write → exit code."""
    from .serve.oracle import write_report

    command = COMMANDS[name]()
    defaults = command.config()
    parser = argparse.ArgumentParser(
        prog=f"repro {name}", description=command.description
    )
    for flag in command.flags:
        flag.add_to(parser, defaults)
    args = parser.parse_args(argv)
    try:
        for flag in command.flags:
            setattr(args, flag.dest, flag.value(args))
        # replace() re-runs __post_init__: the Config checks its own ranges.
        config = replace(
            defaults,
            **{f.field: getattr(args, f.dest) for f in command.flags if f.field},
        )
    except ValueError as exc:
        parser.error(_in_flag_terms(str(exc), command.flags))
    print(command.banner(config), file=sys.stderr)
    trace_path = getattr(args, command.trace_flag) if command.trace_flag else None
    with obs.tracing() if trace_path else nullcontext() as tracer:
        report = command.run(config, args)
    if trace_path:
        written = obs.write_chrome_trace(tracer, trace_path)
        print(f"wrote {written} ({len(tracer.spans)} spans)", file=sys.stderr)
    print(command.render(report))
    if command.as_json is not None and args.output not in (None, "-"):
        path = write_report(command.as_json(report), args.output)
        print(f"\nwrote {path}", file=sys.stderr)
    if command.epilogue is not None:
        command.epilogue(report, args)
    return 0 if command.ok(report) else 1


def _ladder_times(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        times = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            f"--ladder must be comma-separated floats, got {text!r}"
        ) from None
    if not times:
        raise ValueError("--ladder needs at least one middle-rung time")
    return times


def _serve_bench() -> Command:
    """``repro serve-bench``: load-test the concurrent cascade server."""
    from .serve import ServeBenchConfig, format_serve_bench, run_serve_bench

    def banner(config):
        middles = len(config.ladder_stage_times or ())
        return (
            f"serve-bench: 2 runs x {config.num_requests} requests, "
            f"{config.num_clients} open-loop generators offering "
            f"{config.offered_fps:.0f} img/s"
            + (f", {2 + middles}-stage ladder" if middles else "")
            + " ..."
        )

    return Command(
        description=(
            "Drive the concurrent cascade server under paced open-loop load "
            f"(offered rate = {ServeBenchConfig().arrival_rate_fraction:g} x the "
            "Eq. (1) bound at --target-rerun) and "
            "compare the adaptive DMU-threshold controller against a naive "
            "static threshold and the Eq. (1) analytic bound."
        ),
        config=ServeBenchConfig,
        flags=(
            Flag("--requests", "num_requests"),
            Flag("--clients", "num_clients"),
            Flag("--target-rerun", "target_rerun_ratio",
                 "rerun ratio the controller should hold (default %(default)s)"),
            Flag("--naive-threshold", "naive_threshold"),
            Flag("--t-fp", "t_fp", "host seconds/image (default %(default)s)"),
            Flag("--t-bnn", "t_bnn", "BNN seconds/image (default %(default)s)"),
            Flag("--batch-size", "max_batch_size"),
            Flag("--host-workers", "num_host_workers"),
            Flag("--host-process-workers", "host_process_workers", metavar="N", help=(
                "shard the host stage across N processes via "
                "repro.parallel.ParallelHostRunner (Eq. (1) t_fp -> t_fp/N)"
            )),
            Flag("--host-queue", "host_queue_capacity"),
            Flag("--seed", "seed"),
            Flag("--measure-t-bnn", "measured_bnn_scale", metavar="SCALE", help=(
                "replace the constant --t-bnn with the measured seconds/image of the "
                "real compiled CNV plan at this width scale"
            )),
            Flag("--measure-t-host", "measured_host_scale", metavar="SCALE", help=(
                "replace the constant --t-fp with the measured seconds/image of the "
                "real host Model A inference fast path at this width scale, sharded "
                "over --host-process-workers processes"
            )),
            Flag("--trace", "trace_path", metavar="PATH", help=(
                "record the adaptive leg with repro.obs and write a Chrome "
                "trace-event JSON (chrome://tracing / Perfetto) to PATH"
            )),
            Flag("--fault-plan", "fault_plan_path", metavar="PATH",
                 convert=_existing_file("--fault-plan"), help=(
                "chaos mode: inject the seeded repro.faults.FaultPlan JSON at PATH "
                "into the BNN/DMU/host stages of both legs "
                "(e.g. examples/faultplan_host_flaky.json)"
            )),
            Flag("--deadline", "deadline_s", metavar="SECONDS", help=(
                "per-request deadline; late requests degrade or fail (default: off)"
            )),
            Flag("--ladder", "ladder_stage_times", metavar="T1[,T2...]",
                 convert=_ladder_times, help=(
                "bench an N-stage precision ladder: comma-separated middle-rung "
                "seconds/image between the BNN and the host (e.g. --ladder 0.002 "
                "for a 3-stage bnn -> mid1 -> host run); the report gains the "
                "Eq. (1N) per-stage terms and the per-stage books check"
            )),
            Flag("--ladder-target-forward", "ladder_target_forward_ratio",
                 metavar="RATIO", help=(
                "per-hop target forward ratio for the ladder's adaptive leg "
                "(default: --target-rerun at every hop)"
            )),
            Flag("--cache-mb", "cache_max_bytes", metavar="MB", scale=MIB, help=(
                "attach a content-addressed repro.cache result cache of this many "
                "MiB in front of each leg (docs/TENANCY.md); adds the hit-rate "
                "column and exits nonzero if the cache books don't reconcile"
            )),
            Flag("--duplicate-fraction", "duplicate_fraction", metavar="F", help=(
                "fraction of the request stream that repeats earlier requests' "
                "exact bytes — the duplicate mass a cache can win back"
            )),
        ),
        banner=banner,
        run=lambda config, args: run_serve_bench(config),
        render=format_serve_bench,
        # Nonzero unless every leg's per-stage books balance — and, with a
        # cache attached, unless the cache's own books reconcile
        # (hits + misses == lookups): the CI smokes (and any scripted run)
        # hard-fail on lost/duplicated requests or miscounted lookups.
        ok=lambda report: report.books_balanced and report.cache_books_balanced,
    )


def _serve_load() -> Command:
    """``repro serve-load``: open-loop trace replay under the SLO autoscaler."""
    from .parallel import resolve_host_workers
    from .traffic import (
        TRACE_SHAPES,
        ServeLoadConfig,
        format_serve_load,
        run_serve_load,
    )

    shapes = ", ".join(sorted(TRACE_SHAPES))
    default_workers = ServeLoadConfig().host_workers

    def shape_or_file(trace):
        if trace not in TRACE_SHAPES and not Path(trace).is_file():
            raise ValueError(
                f"--trace must be one of {shapes} or an existing trace file, "
                f"got {trace!r}"
            )
        return trace

    def starting_pool(workers):
        if workers is not None:
            return workers
        return resolve_host_workers(None) or default_workers

    return Command(
        description=(
            "Replay a seeded open-loop arrival trace against the cascade "
            "server while the SLO autoscaler grows the host pool and "
            "tightens admission to hold a p99 latency target "
            "(docs/TRAFFIC.md). Exits nonzero unless the books balance."
        ),
        config=ServeLoadConfig,
        flags=(
            Flag("--trace", "trace", metavar="SHAPE|PATH", convert=shape_or_file, help=(
                f"trace shape ({shapes}) or a trace "
                "JSON file path (default %(default)s)"
            )),
            Flag("--slo-p99-ms", "slo_p99_ms",
                 "p99 latency target in ms (default %(default)s)"),
            Flag("--rate", "rate",
                 "nominal offered img/s for shape traces (default %(default)s)"),
            Flag("--duration", "duration",
                 "trace span in seconds for shape traces (default %(default)s)"),
            Flag("--time-scale", "time_scale", metavar="X", help=(
                "replay the trace X times faster than recorded (default %(default)s)"
            )),
            Flag("--window", "window_seconds", metavar="SECONDS",
                 help="autoscaler control window (default %(default)s)"),
            Flag("--host-workers", "host_workers", metavar="N", default=None,
                 convert=starting_pool, help=(
                "starting parallel host pool size (default: REPRO_HOST_WORKERS "
                f"or {default_workers})"
            )),
            Flag("--max-workers", "max_workers",
                 "pool-size ceiling for the autoscaler (default %(default)s)"),
            Flag("--target-rerun", "target_rerun_ratio"),
            Flag("--t-fp", "t_fp", "host seconds/image (default %(default)s)"),
            Flag("--t-bnn", "t_bnn", "BNN seconds/image (default %(default)s)"),
            Flag("--seed", "seed"),
            Flag("--fault-plan", "fault_plan_path", metavar="PATH",
                 convert=_existing_file("--fault-plan"), help=(
                "chaos-under-load: inject the seeded repro.faults.FaultPlan JSON "
                "at PATH into the BNN/DMU/host stages"
            )),
            Flag("--obs-trace", metavar="PATH", help=(
                "record the run with repro.obs (slo.decision instants, "
                "slo.workers gauge) and write Chrome trace JSON to PATH"
            )),
            Flag("--output", metavar="PATH", help=(
                "write the per-window report JSON here (e.g. "
                "benchmarks/results/BENCH_traffic.json)"
            )),
        ),
        banner=lambda config: (
            f"serve-load: replaying trace '{config.trace}' "
            f"(x{config.time_scale:g} clock) vs SLO p99 <= "
            f"{config.slo_p99_ms:g} ms ..."
        ),
        run=lambda config, args: run_serve_load(config),
        render=format_serve_load,
        # The CI gate: every arrival must be accounted for exactly once.
        ok=lambda report: report.books["balanced"],
        as_json=lambda report: report.to_dict(),
        trace_flag="obs_trace",
    )


def _bench_parallel() -> Command:
    """``repro bench-parallel``: time the process-parallel host engine."""
    from .parallel.bench import (
        ParallelBenchConfig,
        format_parallel_bench,
        run_parallel_bench,
    )

    return Command(
        description=(
            "Benchmark the host float path serially (legacy forward vs the "
            "inference engine), across threads (GIL control) and across "
            "worker processes fed over pipes; verify bit-identical logits in "
            "every mode and write a JSON report with the Eq. (1) implications."
        ),
        config=ParallelBenchConfig,
        flags=(
            Flag("--model", "model", "host model (Table III; default %(default)s)",
                 choices=("a", "b", "c")),
            Flag("--scale", "scale", "host model width scale (default %(default)s)"),
            Flag("--images", "num_images",
                 "images timed per leg (default %(default)s)"),
            Flag("--micro-batch", "micro_batch"),
            Flag("--workers", "worker_counts", nargs="+",
                 help="process-pool sizes to time (default %(default)s)"),
            Flag("--repeats", "repeats"),
            Flag("--seed", "seed"),
            Flag("--smoke", "smoke",
                 "CI mode: shrink images/repeats to run in seconds"),
            Flag("--output", default="benchmarks/results/BENCH_parallel.json", help=(
                "JSON report path, or '-' to skip writing (default %(default)s)"
            )),
        ),
        banner=lambda config: (
            "bench-parallel: timing serial/threads/process legs "
            "(bit-identity verified per leg) ..."
        ),
        run=lambda config, args: run_parallel_bench(config),
        render=format_parallel_bench,
        ok=lambda report: report["summary"]["bit_identical_all"],
        as_json=dict,
    )


def _trace() -> Command:
    """``repro trace``: record one traced cascade run and export it."""
    from .obs.run import (
        TraceRunConfig,
        format_trace_report,
        run_traced_cascade,
        write_simulated_trace,
        write_trace,
    )
    from .serve.oracle import pick, write_report

    def write_artifacts(report, args):
        if args.output != "-":
            path = write_trace(report.tracer, args.output)
            print(f"\nwrote {path} — load it in chrome://tracing or ui.perfetto.dev",
                  file=sys.stderr)
        if args.simulated:
            path = write_simulated_trace(report, args.simulated)
            print(f"wrote {path} (idealized hetero simulation of the same run)",
                  file=sys.stderr)
        if args.summary_json:
            digest = pick(
                report, "summary", "overlap_seconds", "bnn_busy_seconds",
                "host_busy_seconds", "layer_residuals", "eq1", "rerun_ratio",
                "completed", "wall_seconds",
            )
            print(f"wrote {write_report(digest, args.summary_json)}", file=sys.stderr)

    return Command(
        description=(
            "Serve a synthetic image stream through the real folded-CNV + host "
            "cascade with the repro.obs tracer installed; print the span "
            "summary, the Eq. (1) overlap/residual checks and the Eqs. (3)-(5) "
            "per-layer breakdown; write a Chrome trace-event JSON timeline."
        ),
        config=TraceRunConfig,
        flags=(
            Flag("--requests", "num_images", "images served (default %(default)s)"),
            Flag("--scale", "scale",
                 "CNV width scale of the BNN stage (default %(default)s)"),
            Flag("--host-scale", "host_scale",
                 "Model A width scale of the host stage (default %(default)s)"),
            Flag("--target-rerun", "target_rerun_ratio",
                 "DMU threshold is calibrated to this rerun ratio"),
            Flag("--batch-size", "max_batch_size"),
            Flag("--host-workers", "num_host_workers"),
            Flag("--seed", "seed"),
            Flag("--output", default="trace.json", metavar="PATH", help=(
                "Chrome trace JSON path, '-' to skip writing (default %(default)s)"
            )),
            Flag("--simulated", metavar="PATH", help=(
                "also write the idealized repro.hetero simulation of the same run "
                "(measured stage times, perfect pipelining) as a second trace"
            )),
            Flag("--summary-json", metavar="PATH",
                 help="write the span-summary/residual digest as JSON"),
        ),
        banner=lambda config: (
            f"trace: serving {config.num_images} synthetic images through the "
            f"folded CNV (scale={config.scale}) + host cascade ..."
        ),
        run=lambda config, args: run_traced_cascade(config),
        render=format_trace_report,
        ok=lambda report: True,
        epilogue=write_artifacts,
    )


def _serve_net() -> Command:
    """``repro serve-net``: loopback-drive the socket frontend + router."""
    from .net.bench import NetBenchConfig, format_net_bench, run_net_bench
    from .net.router import PLACEMENTS

    return Command(
        description=(
            "Start the network serving stack (socket frontend + shard router "
            "+ N CascadeServer replica processes), push a synthetic image "
            "stream over real loopback sockets, and verify the wire books "
            "balance at every layer (routed + rejected + failed == submitted)."
        ),
        config=NetBenchConfig,
        flags=(
            Flag("--requests", "num_requests"),
            Flag("--clients", "num_clients"),
            Flag("--replicas", "num_replicas",
                 "CascadeServer replica processes (default %(default)s)"),
            Flag("--placement", "placement", choices=PLACEMENTS),
            Flag("--port", "port", "bind port (default 0 = ephemeral)"),
            Flag("--max-inflight", "max_inflight",
                 "frontend admission bound (default %(default)s)"),
            Flag("--threshold", "threshold", "static DMU threshold of each replica"),
            Flag("--seed", "seed"),
            Flag("--fault-plan", "fault_plan_path", metavar="PATH",
                 convert=_existing_file("--fault-plan"), help=(
                "inject this seeded repro.faults.FaultPlan JSON into every replica"
            )),
            Flag("--kill-replica-after", "kill_replica_after", metavar="N", help=(
                "chaos: hard-kill replica 0 after N requests were submitted"
            )),
            Flag("--ladder", "ladder", help=(
                "run each replica as a 3-stage precision ladder "
                "(bnn -> mid1 -> host, docs/LADDER.md) instead of the 2-stage cascade"
            )),
        ),
        banner=lambda config: (
            f"serve-net: {config.num_replicas} replica processes, "
            f"{config.num_clients} clients x loopback sockets, "
            f"{config.num_requests} requests ..."
        ),
        run=lambda config, args: run_net_bench(config),
        render=format_net_bench,
        ok=lambda report: report["ok"],
    )


def _serve_tenants() -> Command:
    """``repro serve-tenants``: two-tenant shared-pool + cache benchmark."""
    from .serve.tenant_bench import (
        TenantBenchConfig,
        format_tenant_bench,
        run_tenant_bench,
    )

    return Command(
        description=(
            "Serve two tenants (Model A + Model C cascades) from one "
            "DRR-scheduled shared host pool, replay the same video trace at "
            "both — once cold, once behind the content-addressed result "
            "cache — and verify hit rate, throughput win, bit-identity and "
            "books balance (docs/TENANCY.md). Exits nonzero unless every "
            "check passes."
        ),
        config=TenantBenchConfig,
        flags=(
            Flag("--frames", "num_frames",
                 "video frames in the trace (default %(default)s)"),
            Flag("--repeat-frames", "repeat_frames", help=(
                "frame hold factor; exact duplicate fraction = (N-1)/N "
                "(default %(default)s)"
            )),
            Flag("--fps", "fps"),
            Flag("--time-scale", "time_scale",
                 "replay speed multiplier (default %(default)s)"),
            Flag("--lanes", "lanes",
                 "concurrent pool executions (default %(default)s)"),
            Flag("--cache-mb", "cache_max_bytes", scale=MIB,
                 help="result-cache byte budget in MiB (default %(default)s)"),
            Flag("--quota", "quota",
                 "per-tenant in-flight quota (default %(default)s)"),
            Flag("--threshold", "threshold",
                 "static DMU threshold (default %(default)s)"),
            Flag("--t-bnn", "t_bnn",
                 "modeled BNN seconds/image (default %(default)s)"),
            Flag("--host-workers", "host_workers", metavar="N", help=(
                "per-tenant ParallelHostRunner process pool size "
                "(default: REPRO_HOST_WORKERS or serial)"
            )),
            Flag("--seed", "seed"),
            Flag("--output", default="benchmarks/results/BENCH_cache.json", help=(
                "JSON report path, or '-' to skip writing (default %(default)s)"
            )),
        ),
        banner=lambda config: (
            f"serve-tenants: 2 legs x 2 tenants, {config.num_frames} frames "
            f"x{config.repeat_frames} hold "
            f"(duplicate fraction {config.duplicate_fraction:.0%}) ..."
        ),
        run=lambda config, args: run_tenant_bench(config),
        render=format_tenant_bench,
        ok=lambda report: report["ok"],
        as_json=dict,
    )


#: Subcommand -> the function that builds its :class:`Command` (the
#: harness modules are imported only when their command is run).
COMMANDS: dict[str, Callable[[], Command]] = {
    "serve-bench": _serve_bench,
    "serve-tenants": _serve_tenants,
    "serve-net": _serve_net,
    "serve-load": _serve_load,
    "bench-parallel": _bench_parallel,
    "trace": _trace,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        return run_command(argv[0], argv[1:])
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
