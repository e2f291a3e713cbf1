"""Load-test harness for the cascade server (``repro serve-bench``).

Drives :class:`~repro.serve.server.CascadeServer` with a paced
*open-loop* generator fleet — ``num_clients`` threads that together
offer ``arrival_rate_fraction`` x the Eq. (1) bound on an absolute-time
schedule, whether or not earlier requests have been answered — over a
synthetic score stream, and compares a *naive* static threshold (chosen
as if the host were infinitely fast) against the adaptive controller,
both against the Eq. (1) analytic throughput bound

    fps_bound = 1 / max(t_fp * R_target / n_hosts, t_bnn)

The stack is the oracle cascade of :mod:`repro.serve.oracle`
(``docs/API.md``, "The oracle cascade"): the cascade *control* behaviour
stays real while the compute cost is explicit — the BNN stage sleeps
``t_bnn`` per image and echoes the scores, the host sleeps ``t_fp`` and
answers the argmax, a margin DMU turns scores into confidence.  Timing
is then a controlled experiment in queueing, not in numpy throughput.

Every run is a ladder run; with no ``ladder_stage_times`` it is the
paper's cascade — one hop, Eq. (1N) reading as Eq. (1).
``ladder_stage_times`` adds middle rungs to the same harness
(``docs/LADDER.md``), each sleeping its ``t_i`` per image behind its own
margin DMU, so the multi-knob
:class:`~repro.serve.controller.LadderThresholdController` has a
well-posed plant at each hop.  The report then checks the generalized
Eq. (1N) bound ``max_i t_i * R_i`` and the per-stage books
(``accepted + Σ rerun_i + degraded + failed == submitted``).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.analytic import ladder_interval
from ..core.ascii_chart import line_chart
from ..core.dmu import DecisionMakingUnit
from ..core.ladder import LadderStage
from ..core.report import format_percent, format_rate, render_table
from .controller import LadderThresholdController
from .metrics import MetricsSnapshot
from .oracle import OracleStage, check_ranges, oracle_images, pick
from .server import CascadeServer

__all__ = [
    "ServeBenchConfig",
    "ServeBenchRun",
    "ServeBenchReport",
    "synthetic_serving_stack",
    "synthetic_ladder_stages",
    "folded_bnn_scores_fn",
    "measured_t_bnn",
    "measure_t_host",
    "run_books",
    "format_books",
    "run_serve_bench",
    "format_serve_bench",
]


@dataclass(frozen=True)
class ServeBenchConfig:
    """One serve-bench scenario (defaults: host-bound at R_target=0.3).

    The generator offers load at ``arrival_rate_fraction`` of the Eq. (1)
    capacity: right at the knee where a naive (accuracy-only) threshold
    floods the host queue — its flag rate is ``~0.7 / t_fp`` against a
    drain rate of ``1 / t_fp`` — while the target rerun ratio is exactly
    sustainable.  Holding that operating point *is* the controller's job.
    """

    num_requests: int = 3000
    num_clients: int = 8
    #: Offered arrival rate as a fraction of ``analytic_bound_fps``.
    arrival_rate_fraction: float = 0.9
    target_rerun_ratio: float = 0.30
    #: Static threshold a naive deployment might pick for accuracy alone.
    naive_threshold: float = 0.97
    t_bnn: float = 0.00025      # seconds/image, fast stage
    t_fp: float = 0.008         # seconds/image, host stage
    max_batch_size: int = 32
    batch_delay_s: float = 0.004
    host_queue_capacity: int = 48
    num_host_workers: int = 1
    host_batch_size: int = 8
    controller_gain: float = 0.08
    seed: int = 0
    #: When set, replace the constant ``t_bnn`` with a *measured*
    #: seconds/image of the real compiled CNV plan at this width scale —
    #: so a faster BNN datapath directly raises the Eq. (1) bound the
    #: server is driven against.
    measured_bnn_scale: float | None = None
    #: When set, run the *adaptive* leg under a :mod:`repro.obs` tracer
    #: and write the Chrome trace JSON here; the report gains the span
    #: summary and per-policy Eq. (1) residuals.
    trace_path: str | None = None
    #: Path to a :class:`repro.faults.FaultPlan` JSON; when set, both
    #: legs run with the plan injected into the BNN/DMU/host callables
    #: (fresh injector per leg, so the per-stage fault streams are
    #: identical) and the report gains a fault/retry/breaker section.
    fault_plan_path: str | None = None
    #: Per-request deadline for the server (None disables).
    deadline_s: float | None = None
    #: When set, run both legs with ``CascadeServer(host_workers=N)`` —
    #: the host stage is sharded across N *processes* by a
    #: :class:`repro.parallel.ParallelHostRunner`, the Eq. (1)
    #: ``t_fp -> t_fp / N`` lever this bench then measures.
    host_process_workers: int | None = None
    #: When set, replace the constant ``t_fp`` with a *measured*
    #: seconds/image of the real host Model A inference fast path at this
    #: width scale, sharded over ``host_process_workers`` processes — the
    #: host-side analogue of ``measured_bnn_scale``.
    measured_host_scale: float | None = None
    #: Middle-rung stage times (seconds/image), cheapest-first, between
    #: the BNN and the host: ``(0.002,)`` benches a 3-stage ladder
    #: (bnn -> mid1 -> host).  None keeps the classic 2-stage cascade.
    #: At most 4 middle rungs (each hop's DMU needs its own pair of
    #: sorted-score positions out of 10 classes).
    ladder_stage_times: tuple[float, ...] | None = None
    #: Per-hop target forward ratio for the ladder's adaptive leg
    #: (None = ``target_rerun_ratio`` at every hop).
    ladder_target_forward_ratio: float | None = None
    #: When positive, attach a content-addressed
    #: :class:`repro.cache.CachingFrontend` of this many bytes in front
    #: of each leg's server; the report gains a cache hit-rate column
    #: and the cache's own books (``hits + misses == lookups``).
    cache_max_bytes: int = 0
    #: Fraction of the request stream that repeats an earlier request's
    #: exact bytes — the duplicate mass the cache can win back.  0 keeps
    #: every request unique.
    duplicate_fraction: float = 0.0

    def __post_init__(self):
        check_ranges(
            self,
            unit_interval=(
                "target_rerun_ratio", "naive_threshold", "ladder_target_forward_ratio",
            ),
            non_negative=("num_requests", "cache_max_bytes"),
            at_least_one=(
                "num_clients", "max_batch_size", "num_host_workers",
                "host_queue_capacity", "host_process_workers",
            ),
            positive=(
                "t_fp", "t_bnn", "measured_bnn_scale", "measured_host_scale",
                "deadline_s", "ladder_stage_times",
            ),
        )
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ValueError(
                f"duplicate_fraction must be in [0, 1), got {self.duplicate_fraction}"
            )
        if len(self.ladder_stage_times or ()) > 4:
            raise ValueError(
                "ladder_stage_times supports at most 4 middle rungs: each hop's "
                "DMU needs its own pair of sorted-score positions out of 10 classes"
            )

    @property
    def host_parallelism(self) -> int:
        """Total host-stage parallelism: threads x processes."""
        return self.num_host_workers * (self.host_process_workers or 1)

    @property
    def stage_times(self) -> tuple[float, ...]:
        """All rung times cheapest-first: (t_bnn, *middles, t_fp)."""
        return (self.t_bnn, *(self.ladder_stage_times or ()), self.t_fp)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Rung names matching the server's: ("bnn", "mid1", ..., "host")."""
        mids = tuple(
            f"mid{i + 1}" for i in range(len(self.ladder_stage_times or ()))
        )
        return ("bnn", *mids, "host")

    @property
    def hop_target_forward_ratio(self) -> float:
        return (
            self.ladder_target_forward_ratio
            if self.ladder_target_forward_ratio is not None
            else self.target_rerun_ratio
        )

    @property
    def analytic_bound_fps(self) -> float:
        """Eq. (1N) at the target ratio(s), with the host pool scaled.

        Every hop is assumed to forward its target ratio, so rung *i*'s
        reach is ``r_target ** i`` (Eq. (1N) at the controller's
        setpoint); with no middle rungs that is Eq. (1) as written.
        """
        times = list(self.stage_times)
        times[-1] /= self.host_parallelism
        ratios = [self.hop_target_forward_ratio] * (len(times) - 1)
        return 1.0 / ladder_interval(times, ratios)

    @property
    def offered_fps(self) -> float:
        return self.arrival_rate_fraction * self.analytic_bound_fps


def folded_bnn_scores_fn(folded, batch_size: int = 128):
    """Adapt a :class:`repro.bnn.FoldedBNN` to the CascadeServer BNN stage.

    This is how a deployment serves real images instead of the
    synthetic stream: one :class:`repro.bnn.CompiledBNNPlan` built here
    and reused for the life of the server (geometry resolves on the first
    batch; every later batch hits preallocated buffers).
    """
    return folded.compile_inference(micro_batch=batch_size).class_scores


def measured_t_bnn(
    scale: float = 0.25,
    threads: int | None = None,
    batch_size: int = 64,
    num_images: int = 128,
    seed: int = 0,
) -> float:
    """Measured seconds/image of the real compiled CNV plan.

    Uses an untrained width-scaled CNV (compute cost is independent of
    the weight values), so the serve bench can anchor its Eq. (1) bound
    to the actual BNN throughput; ``threads`` is the plan's tile-loop
    thread count (``None``: serial).
    """
    from ..bnn import fold_network
    from ..data import normalize_to_pm1, synthetic_cifar10
    from ..models import build_finn_cnv

    net = build_finn_cnv(scale=scale, rng=np.random.default_rng(seed))
    net.eval_mode()
    plan = fold_network(net).compile_inference(micro_batch=batch_size, threads=threads)
    images = normalize_to_pm1(
        synthetic_cifar10(num_train=1, num_test=num_images, seed=seed).test.images
    )
    plan.class_scores(images[:batch_size])  # warmup: compile, touch the buffers
    start = time.perf_counter()
    plan.class_scores(images)
    return (time.perf_counter() - start) / len(images)


def measure_t_host(
    scale: float = 1.0,
    workers: int = 1,
    num_images: int = 64,
    micro_batch: int = 16,
    seed: int = 0,
) -> float:
    """Measured seconds/image of the real host float path (Model A).

    Times the :class:`repro.nn.InferenceEngine` fast path — serially for
    ``workers <= 1``, else sharded over a
    :class:`repro.parallel.ParallelHostRunner` process pool — so the
    serve bench can anchor its Eq. (1) ``t_fp`` to the actual host
    throughput, exactly like :func:`measured_t_bnn` anchors ``t_bnn``.
    """
    from ..models.host_models import build_model_a

    rng = np.random.default_rng(seed)
    net = build_model_a(scale=scale, rng=rng)
    net.eval_mode()
    images = rng.normal(size=(num_images, 3, 32, 32))
    if workers <= 1:
        engine = net.compile_inference(micro_batch=micro_batch)
        engine.predict_scores(images[:micro_batch])  # warmup
        start = time.perf_counter()
        engine.predict_scores(images)
        return (time.perf_counter() - start) / len(images)
    from ..parallel import ParallelHostRunner

    with ParallelHostRunner(model=net, n_workers=workers, micro_batch=micro_batch) as pool:
        pool.predict_scores(images[:micro_batch])  # warmup (spawns + rings)
        start = time.perf_counter()
        pool.predict_scores(images)
        return (time.perf_counter() - start) / len(images)


def synthetic_serving_stack(config: ServeBenchConfig):
    """(bnn_scores_fn, dmu, host_predict_fn, score_stream) for a scenario.

    The oracle cascade at this scenario's stage costs: the DMU reads the
    winning margin, so every rerun ratio in (0, 1) is reachable by some
    threshold — what gives the adaptive controller a well-posed plant.
    """
    scores = oracle_images(
        config.num_requests,
        seed=config.seed,
        duplicate_fraction=config.duplicate_fraction,
    )
    return (
        OracleStage(config.t_bnn, "scores"),
        DecisionMakingUnit.margin(config.naive_threshold),
        OracleStage(config.t_fp, "argmax"),
        scores,
    )


def synthetic_ladder_stages(config: ServeBenchConfig) -> list[LadderStage]:
    """Middle rungs for the ladder bench, one per ``ladder_stage_times``.

    Rung *k* sleeps its ``t_k`` per image and echoes the scores; its DMU
    is ``DecisionMakingUnit.margin(threshold, hop=k)``.
    """
    return [
        LadderStage(
            name=f"mid{hop}",
            scores_fn=OracleStage(t_stage, "scores"),
            dmu=DecisionMakingUnit.margin(config.naive_threshold, hop=hop),
            t_image=t_stage,
        )
        for hop, t_stage in enumerate(config.ladder_stage_times or (), start=1)
    ]


@dataclass(frozen=True)
class ServeBenchRun:
    """Outcome of one server configuration under the client fleet."""

    label: str
    total: MetricsSnapshot
    steady: MetricsSnapshot        # second-half window (steady state)
    final_threshold: float
    analytic_bound_fps: float
    #: Eq. (1N) residual at the *realized* steady per-hop forward ratios
    #: (:func:`repro.obs.ladder_eq1_residual`; a 2-stage run is the
    #: one-hop case), set by :func:`run_serve_bench`.
    eq1: dict | None = None
    #: Final threshold of every hop, bnn-first (2-stage: one entry).
    final_thresholds: tuple[float, ...] = ()
    #: Drained end-of-run books (``accepted + Σ rerun_stages + degraded +
    #: failed == submitted`` and ``Σ rerun_stages == rerun``), see
    #: :func:`run_books`.
    books: dict | None = None
    #: Cache counters when ``cache_max_bytes`` attached a
    #: :class:`repro.cache.CachingFrontend`: its own books
    #: (``hits + misses == lookups`` under ``balanced``), single-flight
    #: coalescing, and the metrics-side ``served_from_cache`` tally.
    cache: dict | None = None

    @property
    def bound_fraction(self) -> float:
        """Steady throughput as a fraction of the Eq. (1) bound."""
        return self.steady.images_per_second / self.analytic_bound_fps


def run_books(total: MetricsSnapshot) -> dict:
    """Per-stage accounting of a fully drained run.

    ``balanced`` is ``total.check()`` finding no broken law among the
    server's declared ones (:data:`repro.serve.metrics.SERVER_LAWS`):
    every submitted request is accounted for exactly once, and the
    per-rung breakdown re-sums to the top line.
    """
    return dict(
        pick(total, "submitted", "accepted", "rerun", "degraded", "cache_hits", "failed"),
        rerun_stages=dict(total.rerun_stages),
        balanced=not total.check(),
    )


def format_books(books: dict) -> str:
    """One line: the :func:`run_books` identity with its per-rung split."""
    splits = " + ".join(
        f"{name}:{count}" for name, count in sorted(books["rerun_stages"].items())
    )
    return (
        f"accepted {books['accepted']} + rerun {books['rerun']} "
        f"[{splits or 'none'}] + degraded {books['degraded']} + failed "
        f"{books['failed']} == submitted {books['submitted']}: "
        f"{'OK' if books['balanced'] else 'IMBALANCED'}"
    )


@dataclass(frozen=True)
class ServeBenchReport:
    config: ServeBenchConfig
    naive: ServeBenchRun
    adaptive: ServeBenchRun
    #: Chrome trace written for the adaptive leg (``trace_path`` set).
    trace_file: str | None = None
    #: Span summaries + counters of the traced leg (JSON-serializable).
    span_summary: dict | None = None
    #: Injected-fault counts per stage/kind per leg (``fault_plan_path``).
    fault_report: dict | None = None

    @property
    def books_balanced(self) -> bool:
        """True when both legs' books break no declared law (CI gate)."""
        return not any(run.total.check() for run in (self.naive, self.adaptive))

    @property
    def cache_books_balanced(self) -> bool:
        """True when no cache is attached, or both legs' cache books
        reconcile (``hits + misses == lookups``) — the serve-bench CLI
        exits nonzero when this fails."""
        return all(
            run.cache is None or run.cache["balanced"]
            for run in (self.naive, self.adaptive)
        )


def _drive(
    server: CascadeServer, scores: np.ndarray, config: ServeBenchConfig, label: str
) -> tuple[MetricsSnapshot, MetricsSnapshot]:
    """Paced open-loop generators: offered rate = ``config.offered_fps``.

    Each generator submits its stride of the stream on an absolute-time
    schedule (no drift accumulation); the server's front-door
    backpressure is the only brake.  All futures are awaited at the end,
    so every request is answered before the final snapshot.
    """
    num_clients = max(1, config.num_clients)
    interval = num_clients / config.offered_fps
    futures: list[list] = [[] for _ in range(num_clients)]

    def generator(lane: int) -> None:
        next_ts = time.monotonic() + interval
        for index in range(lane, len(scores), num_clients):
            try:
                futures[lane].append(server.submit(scores[index]))
            except RuntimeError:
                return  # server closed under us (e.g. Ctrl-C teardown)
            sleep_for = next_ts - time.monotonic()
            if sleep_for > 0:
                time.sleep(sleep_for)
            next_ts += interval

    threads = [
        threading.Thread(target=generator, args=(i,), name=f"{label}-gen-{i}", daemon=True)
        for i in range(num_clients)
    ]
    for t in threads:
        t.start()
    # Steady-state window: everything after the first half completes.
    warmup = len(scores) // 2
    while server.snapshot().completed < warmup:
        time.sleep(0.005)
    mid = server.snapshot()
    for t in threads:
        t.join()
    for lane in futures:
        for future in lane:
            try:
                future.result()
            except Exception:
                # Under a fault plan some requests legitimately resolve to
                # errors (StageFailure / DeadlineExceeded); the snapshot's
                # failed counter carries the tally.
                pass
    end = server.snapshot()
    return end, end.since(mid)


def run_serve_bench(config: ServeBenchConfig | None = None) -> ServeBenchReport:
    config = config or ServeBenchConfig()
    if config.measured_bnn_scale is not None:
        from dataclasses import replace

        config = replace(
            config,
            t_bnn=measured_t_bnn(
                scale=config.measured_bnn_scale,
                seed=config.seed,
            ),
        )
    if config.measured_host_scale is not None:
        from dataclasses import replace

        config = replace(
            config,
            t_fp=measure_t_host(
                scale=config.measured_host_scale,
                workers=config.host_process_workers or 1,
                seed=config.seed,
            ),
            # The measured rate already includes the process sharding, so
            # Eq. (1) must not divide by the pool size a second time.
            host_process_workers=None,
        )
    fault_plan = None
    if config.fault_plan_path is not None:
        from ..faults import load_fault_plan

        fault_plan = load_fault_plan(config.fault_plan_path)
    runs = {}
    trace_file = None
    span_summary = None
    fault_report: dict | None = None
    for label in ("naive", "adaptive"):
        bnn_fn, dmu, host_fn, scores = synthetic_serving_stack(config)
        # Fresh middle rungs per leg (none = the paper's 2-stage cascade);
        # the fault plan wraps only the bnn/dmu/host stages (the seeded
        # streams the plans name).
        ladder = synthetic_ladder_stages(config)
        names = config.stage_names
        num_hops = len(names) - 1
        injector = None
        if fault_plan is not None:
            from ..faults import wrap_stack

            bnn_fn, dmu, host_fn, injector = wrap_stack(fault_plan, bnn_fn, dmu, host_fn)
        if label == "adaptive":
            # Start from the same bad operating point the naive run uses:
            # convergence, not initialization, must close the gap.
            controller: LadderThresholdController | float
            controller = LadderThresholdController.from_targets(
                initial_thresholds=[config.naive_threshold] * num_hops,
                target_forward_ratios=[config.hop_target_forward_ratio] * num_hops,
                gain=config.controller_gain,
            )
        else:
            controller = config.naive_threshold
        server = CascadeServer(
            bnn_fn,
            dmu,
            host_fn,
            controller=controller,
            max_batch_size=config.max_batch_size,
            batch_delay_s=config.batch_delay_s,
            host_queue_capacity=config.host_queue_capacity,
            num_host_workers=config.num_host_workers,
            host_workers=config.host_process_workers,
            host_batch_size=config.host_batch_size,
            deadline_s=config.deadline_s,
            ladder=ladder,
        )
        front = None
        if config.cache_max_bytes:
            from ..cache import CachingFrontend, ResultCache

            front = CachingFrontend(
                server, ResultCache(max_bytes=config.cache_max_bytes)
            )
            server = front  # delegates everything _drive touches
        # Trace only the adaptive leg: one representative timeline, and
        # the naive leg stays a tracer-free control for the overhead claim.
        trace_this = config.trace_path is not None and label == "adaptive"
        with obs.tracing() if trace_this else nullcontext() as tracer, server:
            total, steady = _drive(server, scores, config, label)
            final_thresholds = tuple(
                server.stage_threshold(h) for h in range(num_hops)
            )
        if trace_this:
            trace_file = str(obs.write_chrome_trace(tracer, config.trace_path))
            span_summary = obs.trace_summary(tracer)
        cache_books = None
        if front is not None:
            csnap = front.cache_snapshot()
            cache_books = dict(
                pick(
                    csnap, "lookups", "hits", "misses", "near_hits", "near_rejects",
                    "entries", "bytes", "max_bytes", "hit_rate", "balanced",
                ),
                single_flight_followers=front.single_flight_snapshot().followers,
                served_from_cache=total.cache_hits,
            )
        measured = (
            steady.wall_seconds / steady.completed if steady.completed else float("nan")
        )
        ratios = steady.ladder_forward_ratios
        eq1 = obs.ladder_eq1_residual(
            measured_seconds_per_image=measured,
            stage_times=list(config.stage_times),
            forward_ratios=[ratios.get(n, 0.0) for n in names[:-1]],
            stage_names=list(names),
            num_host_workers=config.host_parallelism,
        )
        runs[label] = ServeBenchRun(
            label=label,
            total=total,
            steady=steady,
            final_threshold=final_thresholds[0],
            analytic_bound_fps=config.analytic_bound_fps,
            eq1=eq1,
            final_thresholds=final_thresholds,
            books=run_books(total),
            cache=cache_books,
        )
        if injector is not None:
            from ..faults import STAGES

            fault_report = fault_report or {}
            fault_report[label] = {
                "injected": {
                    stage: injector.log.counts_by_kind(stage) for stage in STAGES
                },
                "stage_calls": {stage: injector.calls(stage) for stage in STAGES},
                "observed": dict(
                    pick(
                        total, "retries", "deadline_missed", "failed", "degraded",
                        "breaker_trips", "breaker_open_seconds", "submitted",
                    ),
                    faults=dict(total.faults),
                    answered=total.completed,
                ),
            }
    return ServeBenchReport(
        config=config,
        naive=runs["naive"],
        adaptive=runs["adaptive"],
        trace_file=trace_file,
        span_summary=span_summary,
        fault_report=fault_report,
    )


def format_serve_bench(report: ServeBenchReport) -> str:
    cfg = report.config
    rows = []
    for run in (report.naive, report.adaptive):
        host_queue = run.total.queues["host"]
        row = [
            run.label,
            f"{run.final_threshold:.3f}",
            format_percent(run.steady.rerun_ratio),
            format_percent(run.steady.degraded_ratio),
            format_rate(run.steady.images_per_second),
            format_rate(run.analytic_bound_fps),
            f"{run.bound_fraction:.2f}x",
            f"{host_queue.max_depth}/{host_queue.capacity}",
        ]
        if cfg.cache_max_bytes:
            row.append(
                format_percent(run.cache["hit_rate"]) if run.cache else "-"
            )
        rows.append(row)
    headers = [
        "policy",
        "final thr",
        "R_rerun",
        "degraded",
        "img/s (steady)",
        "Eq.(1) bound",
        "of bound",
        "host q max",
    ]
    if cfg.cache_max_bytes:
        headers.append("cache hit")
    table = render_table(
        headers,
        rows,
        title=(
            "serve-bench: adaptive DMU threshold vs naive static threshold\n"
            f"(target R_rerun={cfg.target_rerun_ratio:.2f}, t_fp={cfg.t_fp * 1e3:.1f} ms, "
            f"t_bnn={cfg.t_bnn * 1e3:.2f} ms, {cfg.num_host_workers} host thread(s) x "
            f"{cfg.host_process_workers or 1} host process(es), "
            f"offered {cfg.offered_fps:.0f} img/s = {cfg.arrival_rate_fraction:.0%} of the "
            f"Eq. (1) bound, {cfg.num_requests} requests/run)"
        ),
    )
    trajectory = report.adaptive.total.threshold_trajectory
    chart = ""
    if len(trajectory) >= 2:
        chart = "\n\n" + line_chart(
            list(range(len(trajectory))),
            {"threshold": list(trajectory)},
            title="adaptive threshold trajectory (per BNN batch)",
            x_label="batch",
            y_label="thr",
        )
    residual_lines = []
    for run in (report.naive, report.adaptive):
        if run.eq1 is None:
            continue
        residual_lines.append(
            f"  {run.label:<9} predicted "
            f"{run.eq1['predicted_seconds_per_image'] * 1e3:.2f} ms/img, measured "
            f"{run.eq1['measured_seconds_per_image'] * 1e3:.2f} ms/img "
            f"({run.eq1['relative_residual']:+.0%})"
        )
    # A per-rung breakdown only says something the top table does not
    # once there are middle rungs; the 2-stage report stops at Eq. (1).
    middle_rungs = cfg.stage_names[1:-1]
    residuals = ""
    if residual_lines:
        eq_name = "Eq. (1N)" if middle_rungs else "Eq. (1)"
        residuals = (
            f"\n\n{eq_name} residual at each policy's *realized* steady routing:\n"
            + "\n".join(residual_lines)
        )
    ladder_section = ""
    if middle_rungs and report.adaptive.eq1 is not None:
        stage_rows = [
            [
                stage["name"],
                f"{stage['t_image'] * 1e3:.2f}",
                f"{stage['reach_fraction']:.3f}",
                f"{stage['busy_seconds_per_image'] * 1e3:.2f}",
                format_percent(stage["share_of_bound"]),
            ]
            for stage in report.adaptive.eq1["stages"]
        ]
        ladder_table = render_table(
            ["stage", "t_i ms", "reach R_i", "busy ms/img", "of bound"],
            stage_rows,
            title=(
                f"{len(cfg.stage_names)}-stage ladder "
                f"({' -> '.join(cfg.stage_names)}), adaptive leg's Eq. (1N) "
                f"terms at measured forward ratios; bottleneck = "
                f"{report.adaptive.eq1['bottleneck_stage']}"
            ),
        )
        thr_lines = [
            f"  {run.label:<9} final thresholds "
            + ", ".join(
                f"{name}={thr:.3f}"
                for name, thr in zip(cfg.stage_names[:-1], run.final_thresholds)
            )
            for run in (report.naive, report.adaptive)
        ]
        book_lines = [
            f"  {run.label:<9} {format_books(run.books)}"
            for run in (report.naive, report.adaptive)
        ]
        ladder_section = (
            "\n\n" + ladder_table + "\n\n" + "\n".join(thr_lines)
            + "\n\nper-stage books (accepted + Σ rerun_i + degraded + failed == submitted):\n"
            + "\n".join(book_lines)
        )
    host_lines = []
    for run in (report.naive, report.adaptive):
        stage = run.total.stages.get("host")
        wait = run.total.stages.get("host_queue_wait")
        if stage is None or stage.count == 0:
            continue
        line = (
            f"  {run.label:<9} pure-inference {stage.mean_seconds * 1e3:.2f} ms/img, "
            f"queue-wait "
            f"{(wait.mean_seconds * 1e3 if wait is not None and wait.count else 0.0):.2f}"
            f" ms/img over {stage.count} rerun images"
        )
        if run.total.host_parallel_workers:
            shares = ", ".join(
                f"w{worker}:{count}"
                for worker, count in sorted(run.total.host_worker_images.items())
            )
            line += f"; {run.total.host_parallel_workers} procs [{shares}]"
        host_lines.append(line)
    host_split = ""
    if host_lines:
        host_split = (
            "\n\nhost stage split (time parked in the host queue vs compute):\n"
            + "\n".join(host_lines)
        )
    cache_section = ""
    if cfg.cache_max_bytes:
        cache_lines = []
        for run in (report.naive, report.adaptive):
            c = run.cache
            if c is None:
                continue
            cache_lines.append(
                f"  {run.label:<9} lookups {c['lookups']} = hits {c['hits']} + "
                f"misses {c['misses']} "
                f"({'OK' if c['balanced'] else 'IMBALANCED'}); coalesced "
                f"{c['single_flight_followers']} in flight, served-from-cache "
                f"{c['served_from_cache']}, {c['entries']} entries / "
                f"{c['bytes']}B of {c['max_bytes']}B"
            )
        cache_section = (
            "\n\ncontent-addressed cache books (duplicate fraction "
            f"{cfg.duplicate_fraction:.0%} offered):\n" + "\n".join(cache_lines)
        )
    spans = ""
    if report.span_summary is not None:
        spans = "\n\n" + obs.format_span_summaries(
            {
                name: obs.SpanSummary(**row)
                for name, row in report.span_summary["spans"].items()
            },
            title="adaptive-leg span summary (trace written to "
            f"{report.trace_file})",
        )
    faults = ""
    if report.fault_report is not None:
        lines = [f"chaos run under fault plan {cfg.fault_plan_path}:"]
        for label, leg in report.fault_report.items():
            injected = {
                stage: kinds for stage, kinds in leg["injected"].items() if kinds
            }
            seen = leg["observed"]
            lines.append(
                f"  {label:<9} injected {injected or 'none'} over "
                f"{leg['stage_calls']} stage calls"
            )
            lines.append(
                f"  {'':<9} answered {seen['answered']}/{seen['submitted']} "
                f"(failed {seen['failed']}, degraded {seen['degraded']}, "
                f"retries {seen['retries']}, deadline misses "
                f"{seen['deadline_missed']}, breaker trips {seen['breaker_trips']}, "
                f"open {seen['breaker_open_seconds']:.2f}s)"
            )
        faults = "\n\n" + "\n".join(lines)
    notes = (
        "\nnaive saturates the host queue and sheds load (degraded); the\n"
        "controller walks the threshold down until the rerun ratio holds the\n"
        "target, keeping the host pool busy but un-saturated (Eq. (1) regime)."
    )
    return (
        table + chart + residuals + ladder_section + host_split + cache_section
        + spans + faults + notes
    )
