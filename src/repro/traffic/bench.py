"""Open-loop load harness (``repro serve-load``): trace -> cascade -> SLO.

Glues the pieces of this subsystem together: a named shape from
:mod:`repro.traffic.generators` (or a trace file) replays open-loop
through a :class:`~repro.traffic.replay.TraceReplayer` against a
:class:`repro.serve.CascadeServer` running the same oracle sleep-stage
stack as ``serve-bench`` — while a :class:`repro.serve.SLOAutoscaler`
ticks once per control window, growing the host pool and tightening the
admission knobs to pull windowed p99 back under the target.

The per-window report is the product: offered vs. accepted rate,
p50/p99, the scaler's action and the worker count, window by window —
the flash-crowd recovery story in one table.  ``run_serve_load`` returns
a JSON-serializable :class:`ServeLoadReport`; the committed
``benchmarks/results/BENCH_traffic.json`` is one of these.

Everything is seeded (trace, payload bank, fault plan) and the clock is
compressible (``time_scale``), so CI replays a "16 second" flash crowd
in about a second and still sees the same submission order, the same
fault sequence, and balanced books — which is the exit-code gate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from .. import obs
from ..core.dmu import DecisionMakingUnit
from ..core.report import format_rate, render_table
from ..serve import (
    AdaptiveThresholdController,
    CascadeServer,
    SLOAutoscaler,
)
from ..serve.bench import format_books, run_books
from ..serve.oracle import OracleStage, check_ranges, oracle_images
from .generators import TRACE_SHAPES, make_trace
from .replay import TraceReplayer
from .trace import ArrivalTrace, load_trace

__all__ = [
    "ServeLoadConfig",
    "WindowStat",
    "ServeLoadReport",
    "oracle_load_stack",
    "run_serve_load",
    "format_serve_load",
]


@dataclass(frozen=True)
class ServeLoadConfig:
    """One serve-load scenario (defaults: flash crowd vs. a 25 ms SLO)."""

    #: A shape name (:data:`repro.traffic.TRACE_SHAPES`) or a trace-file path.
    trace: str = "flash"
    #: Nominal offered rate for shape mode (ignored when *trace* is a path).
    rate: float = 400.0
    #: Trace span in *trace* seconds for shape mode.
    duration: float = 16.0
    #: Playback compression: 4.0 replays the trace 4x faster than recorded.
    time_scale: float = 1.0
    slo_p99_ms: float = 25.0
    #: Control-window length in wall seconds (autoscaler tick period).
    window_seconds: float = 0.5
    seed: int = 0
    num_payloads: int = 64
    # Oracle stage costs (same roles as ServeBenchConfig's).
    t_bnn: float = 0.00025
    t_fp: float = 0.004
    naive_threshold: float = 0.92
    target_rerun_ratio: float = 0.30
    controller_gain: float = 0.08
    max_batch_size: int = 32
    host_queue_capacity: int = 64
    host_batch_size: int = 8
    #: Starting size of the parallel host process pool (None = serial host
    #: unless ``REPRO_HOST_WORKERS`` forces one; 0 also means serial).
    host_workers: int | None = 1
    min_workers: int = 1
    max_workers: int = 4
    cooldown_windows: int = 2
    clear_windows: int = 3
    tighten_factor: float = 0.5
    max_tighten_depth: int = 3
    #: Path to a :class:`repro.faults.FaultPlan` JSON for chaos-under-load.
    fault_plan_path: str | None = None
    #: Cap on drain windows after the trace ends (safety, not pacing).
    max_drain_windows: int = 120

    def __post_init__(self):
        check_ranges(
            self,
            positive=(
                "slo_p99_ms", "rate", "duration", "time_scale", "window_seconds",
                "t_fp", "t_bnn",
            ),
            unit_interval=("target_rerun_ratio",),
            non_negative=("host_workers",),
            at_least_one=("max_workers",),
        )

    @property
    def is_trace_file(self) -> bool:
        return self.trace not in TRACE_SHAPES


@dataclass(frozen=True)
class WindowStat:
    """One control window of a serve-load run (JSON-serializable)."""

    index: int
    offered_rate: float      # replayer submissions/s this window
    accepted_rate: float     # server-admitted submissions/s
    completed_rate: float    # terminal answers/s
    p50_ms: float
    p99_ms: float
    violating: bool
    action: str
    workers: int
    tighten_depth: int

    def to_dict(self) -> dict:
        return {
            name: round(value, 3) if isinstance(value, float) else value
            for name, value in asdict(self).items()
        }


@dataclass(frozen=True)
class ServeLoadReport:
    """Everything one :func:`run_serve_load` run produced."""

    trace_name: str
    trace_events: int
    trace_seconds: float      # trace-time span (before time scaling)
    time_scale: float
    slo_p99_ms: float
    windows: list[WindowStat]
    books: dict
    attempted: int            # replayer submissions started
    refused: int              # rejected at the front door (ServerClosed)
    settled_ok: int           # futures that resolved with an answer
    settled_err: int          # futures that resolved with an error
    violation_seconds: float
    actions_taken: int
    final_workers: int
    wall_seconds: float
    fault_plan_path: str | None = None
    fault_log: dict = field(default_factory=dict)  # stage -> injected kinds

    @property
    def recovered(self) -> bool:
        """p99 back under the SLO by the end of the run (last window)."""
        return bool(self.windows) and not self.windows[-1].violating

    @property
    def violation_windows(self) -> int:
        return sum(1 for w in self.windows if w.violating)

    @property
    def terminal_fraction(self) -> float:
        """Attempted arrivals that reached *any* terminal state."""
        total = self.settled_ok + self.settled_err + self.refused
        return total / self.attempted if self.attempted else 1.0

    def to_dict(self) -> dict:
        return {
            "trace": {
                "name": self.trace_name,
                "events": self.trace_events,
                "seconds": round(self.trace_seconds, 3),
                "time_scale": self.time_scale,
            },
            "slo_p99_ms": self.slo_p99_ms,
            "windows": [w.to_dict() for w in self.windows],
            "books": self.books,
            "attempted": self.attempted,
            "refused": self.refused,
            "settled_ok": self.settled_ok,
            "settled_err": self.settled_err,
            "violation_seconds": round(self.violation_seconds, 3),
            "violation_windows": self.violation_windows,
            "actions_taken": self.actions_taken,
            "final_workers": self.final_workers,
            "recovered": self.recovered,
            "wall_seconds": round(self.wall_seconds, 3),
            "fault_plan": self.fault_plan_path,
            "fault_log": self.fault_log,
        }


def oracle_load_stack(config: ServeLoadConfig):
    """(bnn_fn, dmu, host_fn, payloads) — serve-bench's oracle, bank-sized.

    Payloads are pre-drawn 10-way score vectors (the "images"); the BNN
    sleeps ``t_bnn`` per image and echoes them, the host sleeps ``t_fp``
    and answers the argmax (an :class:`~repro.serve.oracle.OracleStage`,
    so the ``spawn`` start method can ship it to pool workers), and the
    DMU reads the top-2 margin so every rerun ratio is reachable by some
    threshold.
    """
    return (
        OracleStage(config.t_bnn, "scores"),
        DecisionMakingUnit.margin(config.naive_threshold),
        OracleStage(config.t_fp, "argmax"),
        oracle_images(config.num_payloads, seed=config.seed),
    )


def _resolve_trace(config: ServeLoadConfig) -> ArrivalTrace:
    if config.is_trace_file:
        return load_trace(config.trace)
    return make_trace(
        config.trace,
        rate=config.rate,
        duration=config.duration,
        seed=config.seed,
        num_payloads=config.num_payloads,
    )


def run_serve_load(config: ServeLoadConfig | None = None) -> ServeLoadReport:
    """Replay the trace against an oracle cascade under the SLO autoscaler."""
    config = config or ServeLoadConfig()
    trace = _resolve_trace(config)
    bnn_fn, dmu, host_fn, payloads = oracle_load_stack(config)
    bank_size = trace.max_payload_ref() + 1
    if bank_size > len(payloads):
        # A loaded trace may reference a larger bank than the default.
        payloads = oracle_images(bank_size, seed=config.seed)

    injector = None
    if config.fault_plan_path is not None:
        from ..faults import load_fault_plan, wrap_stack

        plan = load_fault_plan(config.fault_plan_path)
        bnn_fn, dmu, host_fn, injector = wrap_stack(plan, bnn_fn, dmu, host_fn)

    controller = AdaptiveThresholdController(
        initial_threshold=config.naive_threshold,
        target_rerun_ratio=config.target_rerun_ratio,
        gain=config.controller_gain,
    )
    server = CascadeServer(
        bnn_fn,
        dmu,
        host_fn,
        controller=controller,
        max_batch_size=config.max_batch_size,
        host_queue_capacity=config.host_queue_capacity,
        host_batch_size=config.host_batch_size,
        host_workers=config.host_workers,
    )
    scaler = SLOAutoscaler.for_server(
        server,
        slo_p99_ms=config.slo_p99_ms,
        min_workers=config.min_workers,
        max_workers=config.max_workers,
        cooldown_windows=config.cooldown_windows,
        clear_windows=config.clear_windows,
        tighten_factor=config.tighten_factor,
        max_tighten_depth=config.max_tighten_depth,
    )
    replayer = TraceReplayer(
        server.submit, payloads, time_scale=config.time_scale
    )
    windows: list[WindowStat] = []
    start = time.monotonic()
    handle = replayer.replay_in_thread(trace)
    prev_snap = server.snapshot()
    prev_offered = 0
    drain_windows = 0
    try:
        while True:
            time.sleep(config.window_seconds)
            offered = replayer.attempted
            snap = server.snapshot()
            delta = snap.since(prev_snap)
            decision = scaler.observe_window()
            span = decision.window_seconds or config.window_seconds
            windows.append(
                WindowStat(
                    index=decision.window,
                    offered_rate=(offered - prev_offered) / span,
                    accepted_rate=delta.submitted / span,
                    completed_rate=delta.terminal / span,
                    p50_ms=decision.p50_ms,
                    p99_ms=decision.p99_ms,
                    violating=decision.violating,
                    action=decision.action,
                    workers=decision.workers,
                    tighten_depth=decision.tighten_depth,
                )
            )
            prev_snap, prev_offered = snap, offered
            if not handle.running:
                if snap.in_flight <= 0:
                    break
                drain_windows += 1
                if drain_windows >= config.max_drain_windows:
                    obs.instant("traffic.drain_timeout", in_flight=snap.in_flight)
                    break
        result = handle.join(timeout=30.0)
        ok, errs = result.settle(timeout=60.0)
    finally:
        server.close()
    total = server.snapshot()
    wall = time.monotonic() - start
    fault_log: dict = {}
    if injector is not None:
        from ..faults import STAGES

        fault_log = {
            stage: injector.log.counts_by_kind(stage) for stage in STAGES
        }
    return ServeLoadReport(
        trace_name=trace.name,
        trace_events=len(trace),
        trace_seconds=trace.duration_seconds,
        time_scale=config.time_scale,
        slo_p99_ms=config.slo_p99_ms,
        windows=windows,
        books=run_books(total),
        attempted=result.attempted,
        refused=result.refused,
        settled_ok=len(ok),
        settled_err=len(errs),
        violation_seconds=scaler.violation_seconds,
        actions_taken=scaler.actions_taken,
        final_workers=scaler.workers,
        wall_seconds=wall,
        fault_plan_path=config.fault_plan_path,
        fault_log=fault_log,
    )


def format_serve_load(report: ServeLoadReport) -> str:
    rows = [
        [
            str(w.index),
            format_rate(w.offered_rate),
            format_rate(w.accepted_rate),
            f"{w.p50_ms:.1f}",
            f"{w.p99_ms:.1f}",
            "YES" if w.violating else "",
            w.action,
            str(w.workers) if w.workers else "-",
            str(w.tighten_depth),
        ]
        for w in report.windows
    ]
    table = render_table(
        [
            "win",
            "offered/s",
            "accepted/s",
            "p50 ms",
            "p99 ms",
            "viol",
            "action",
            "workers",
            "tighten",
        ],
        rows,
        title=(
            f"serve-load: trace '{report.trace_name}' ({report.trace_events} "
            f"events over {report.trace_seconds:.1f}s, x{report.time_scale:g} "
            f"clock) vs SLO p99 <= {report.slo_p99_ms:g} ms"
        ),
    )
    lines = [
        "",
        f"books: {format_books(report.books)}",
        f"arrivals: {report.attempted} attempted, {report.refused} refused at "
        f"the door, {report.settled_ok} answered, {report.settled_err} errored "
        f"({report.terminal_fraction:.1%} terminal)",
        f"SLO: {report.violation_windows}/{len(report.windows)} windows in "
        f"violation ({report.violation_seconds:.2f}s), {report.actions_taken} "
        f"scaler actions, final pool {report.final_workers or 'serial'}, "
        f"{'recovered' if report.recovered else 'NOT RECOVERED'}",
    ]
    if report.fault_plan_path:
        injected = {k: v for k, v in report.fault_log.items() if v}
        lines.append(
            f"chaos: plan {report.fault_plan_path}, injected {injected or 'none'}"
        )
    return table + "\n".join(lines)
