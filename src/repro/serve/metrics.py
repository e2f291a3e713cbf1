"""Serving metrics: per-stage latency/throughput, queues, faults, breaker.

One :class:`ServerMetrics` instance is shared by every component of a
:class:`repro.serve.CascadeServer` (batcher, BNN worker, host pool,
controller, circuit breaker).  All mutation goes through a single lock,
and :meth:`ServerMetrics.snapshot` returns an immutable, self-consistent
view that the reporting layers — ``repro.cli serve-bench`` and
:func:`repro.hetero.metrics.compare_serving_with_eq1` — consume.

Paper anchors: the accepted/rerun/degraded counts realize the paper's
``R_rerun`` (Sec. III), the quantity Eq. (1) prices host time with
(``t_multi = max(t_fp * R_rerun, t_bnn)``); ``MetricsSnapshot.since``
carves the steady-state windows that are compared against that bound.

N-stage ladders (``docs/LADDER.md``) keep the same top-line books —
``rerun`` totals every answer produced *above* stage 0 — and add a
per-stage breakdown: ``rerun_stages[name]`` splits ``rerun`` by the
answering rung (so ``accepted + Σ rerun_stages + degraded + failed ==
submitted`` once drained), while ``stage_arrived`` / ``stage_forwarded``
record per-rung traffic, giving the measured forward ratios ``r_i``
that :func:`repro.obs.ladder_eq1_residual` checks against Eq. (1N).

Robustness accounting (``docs/ROBUSTNESS.md``): every injected or
organic stage fault, host retry, deadline miss and failed request is
counted, and circuit-breaker transitions are integrated into
degraded-mode intervals — so a chaos run can assert the books balance:
``accepted + rerun + degraded + cache_hits + failed == submitted`` once
drained (``cache_hits`` stays zero unless a
:class:`repro.cache.CachingFrontend` shares the metrics object).
For event-level timing (individual spans rather than aggregates) the
server is instrumented with :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "StageStats",
    "QueueStats",
    "MetricsSnapshot",
    "ServerMetrics",
]


@dataclass(frozen=True)
class StageStats:
    """Aggregated latency of one pipeline stage (immutable view)."""

    name: str
    count: int
    total_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass(frozen=True)
class QueueStats:
    """Depth gauge of one bounded queue (immutable view)."""

    name: str
    capacity: int
    depth: int
    max_depth: int


@dataclass(frozen=True)
class MetricsSnapshot:
    """Self-consistent point-in-time view of a serving run."""

    stages: dict[str, StageStats]
    queues: dict[str, QueueStats]
    completed: int
    accepted: int          # answered with the BNN result (DMU confident)
    rerun: int             # re-classified by a host worker
    degraded: int          # BNN result kept (host saturated/open/late/failed)
    threshold: float
    threshold_trajectory: tuple[float, ...]
    wall_seconds: float
    submitted: int = 0     # requests accepted by submit()
    failed: int = 0        # futures resolved with an exception
    faults: dict[str, int] = field(default_factory=dict)  # stage -> exceptions seen
    retries: int = 0       # host re-inference retry attempts
    deadline_missed: int = 0
    breaker_state: str = "closed"
    breaker_trips: int = 0
    breaker_open_seconds: float = 0.0   # time spent not-closed (degraded mode)
    host_parallel_workers: int = 0      # ParallelHostRunner pool size (0 = serial host)
    host_worker_images: dict[int, int] = field(default_factory=dict)  # worker -> imgs served
    host_worker_seconds: dict[int, float] = field(default_factory=dict)  # worker -> infer secs
    rerun_stages: dict[str, int] = field(default_factory=dict)   # answering rung -> answers
    stage_arrived: dict[str, int] = field(default_factory=dict)  # rung -> images scored
    stage_forwarded: dict[str, int] = field(default_factory=dict)  # rung -> images sent up
    cache_hits: int = 0    # answered from the content-addressed result cache
    cache_bytes: int = 0   # bytes resident in the attached cache (gauge)

    @property
    def answered(self) -> int:
        """Requests that got a classification (excludes ``failed``)."""
        return self.completed

    @property
    def terminal(self) -> int:
        """Requests that reached *any* terminal state (answer or error)."""
        return self.completed + self.failed

    @property
    def in_flight(self) -> int:
        """Submitted requests without a terminal state at snapshot time."""
        return self.submitted - self.terminal

    @property
    def fault_total(self) -> int:
        return sum(self.faults.values())

    @property
    def rerun_ratio(self) -> float:
        """R_rerun of Eq. (1): fraction of answers produced above stage 0."""
        return self.rerun / self.completed if self.completed else 0.0

    @property
    def ladder_forward_ratios(self) -> dict[str, float]:
        """Measured per-rung ``r_i``: forwarded / arrived (Eq. (1'))."""
        return {
            name: self.stage_forwarded.get(name, 0) / arrived if arrived else 0.0
            for name, arrived in self.stage_arrived.items()
        }

    @property
    def rerun_stage_total(self) -> int:
        """Σ rerun_i — must equal ``rerun`` when the breakdown is recorded."""
        return sum(self.rerun_stages.values())

    @property
    def degraded_ratio(self) -> float:
        return self.degraded / self.completed if self.completed else 0.0

    @property
    def seconds_per_image(self) -> float:
        return self.wall_seconds / self.completed if self.completed else float("inf")

    @property
    def images_per_second(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Windowed delta (``self - earlier``) for steady-state readings.

        Stage/queue gauges and the breaker state keep the later values;
        the counters and the wall clock become the difference, so
        ``rerun_ratio`` and ``images_per_second`` describe only the
        window.
        """
        return MetricsSnapshot(
            stages=self.stages,
            queues=self.queues,
            completed=self.completed - earlier.completed,
            accepted=self.accepted - earlier.accepted,
            rerun=self.rerun - earlier.rerun,
            degraded=self.degraded - earlier.degraded,
            threshold=self.threshold,
            threshold_trajectory=self.threshold_trajectory,
            wall_seconds=self.wall_seconds - earlier.wall_seconds,
            submitted=self.submitted - earlier.submitted,
            failed=self.failed - earlier.failed,
            faults={
                stage: count - earlier.faults.get(stage, 0)
                for stage, count in self.faults.items()
            },
            retries=self.retries - earlier.retries,
            deadline_missed=self.deadline_missed - earlier.deadline_missed,
            breaker_state=self.breaker_state,
            breaker_trips=self.breaker_trips - earlier.breaker_trips,
            breaker_open_seconds=self.breaker_open_seconds - earlier.breaker_open_seconds,
            host_parallel_workers=self.host_parallel_workers,
            host_worker_images={
                worker: count - earlier.host_worker_images.get(worker, 0)
                for worker, count in self.host_worker_images.items()
            },
            host_worker_seconds={
                worker: secs - earlier.host_worker_seconds.get(worker, 0.0)
                for worker, secs in self.host_worker_seconds.items()
            },
            rerun_stages={
                name: count - earlier.rerun_stages.get(name, 0)
                for name, count in self.rerun_stages.items()
            },
            stage_arrived={
                name: count - earlier.stage_arrived.get(name, 0)
                for name, count in self.stage_arrived.items()
            },
            stage_forwarded={
                name: count - earlier.stage_forwarded.get(name, 0)
                for name, count in self.stage_forwarded.items()
            },
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_bytes=self.cache_bytes,
        )


class _MutableStage:
    __slots__ = ("count", "total_seconds", "max_seconds")

    def __init__(self):
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0


#: Bounded end-to-end latency buffer: old samples are dropped once the
#: autoscaler stops draining (e.g. no scaler attached), so an unattended
#: server never grows without bound.
LATENCY_BUFFER_LIMIT = 100_000

#: Bounded threshold trajectory (one entry per BNN batch under an adaptive
#: controller; the last this-many are kept): every ``snapshot()`` copies
#: it, and the autoscaler snapshots once per control window, so neither
#: memory nor snapshot cost may grow with uptime.  A default serve-bench
#: leg records at most one entry per request (3000), well inside it.
TRAJECTORY_BUFFER_LIMIT = 10_000


class ServerMetrics:
    """Thread-safe metrics facade for the cascade serving layer."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._stages: dict[str, _MutableStage] = {}
        self._queue_capacity: dict[str, int] = {}
        self._queue_depth: dict[str, int] = {}
        self._queue_max_depth: dict[str, int] = {}
        self._submitted = 0
        self._accepted = 0
        self._rerun = 0
        self._degraded = 0
        self._failed = 0
        self._faults: dict[str, int] = {}
        self._retries = 0
        self._deadline_missed = 0
        self._breaker_state = "closed"
        self._breaker_since = clock()
        self._breaker_open_seconds = 0.0
        self._breaker_trips = 0
        self._threshold = float("nan")
        self._trajectory: deque[float] = deque(maxlen=TRAJECTORY_BUFFER_LIMIT)
        self._host_parallel_workers = 0
        self._host_worker_images: dict[int, int] = {}
        self._host_worker_seconds: dict[int, float] = {}
        self._rerun_stages: dict[str, int] = {}
        self._stage_arrived: dict[str, int] = {}
        self._stage_forwarded: dict[str, int] = {}
        self._cache_hits = 0
        self._cache_bytes = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_BUFFER_LIMIT)
        self._started = clock()

    # -- stage latency ------------------------------------------------------
    def observe_stage(self, name: str, seconds: float, count: int = 1) -> None:
        """Record that *count* images spent *seconds* in stage *name*."""
        with self._lock:
            stage = self._stages.setdefault(name, _MutableStage())
            stage.count += count
            stage.total_seconds += seconds
            stage.max_seconds = max(stage.max_seconds, seconds)

    # -- queues -------------------------------------------------------------
    def register_queue(self, name: str, capacity: int) -> None:
        with self._lock:
            self._queue_capacity[name] = capacity
            self._queue_depth.setdefault(name, 0)
            self._queue_max_depth.setdefault(name, 0)

    def set_queue_depth(self, name: str, depth: int) -> None:
        with self._lock:
            self._queue_depth[name] = depth
            if depth > self._queue_max_depth.get(name, 0):
                self._queue_max_depth[name] = depth

    # -- cascade decisions ----------------------------------------------------
    def record_submitted(self, count: int = 1) -> None:
        with self._lock:
            self._submitted += count

    def record_decisions(
        self,
        accepted: int = 0,
        rerun: int = 0,
        degraded: int = 0,
        stage: str | None = None,
    ) -> None:
        """Book terminal answers; *stage* names the rung behind a ``rerun``.

        The top-line ``rerun`` counter is unchanged by *stage* — the
        per-rung breakdown rides alongside so the 2-stage books invariant
        keeps holding verbatim for ladders of any depth.
        """
        with self._lock:
            self._accepted += accepted
            self._rerun += rerun
            self._degraded += degraded
            if stage is not None and rerun:
                self._rerun_stages[stage] = self._rerun_stages.get(stage, 0) + rerun

    def record_cache_hit(self, count: int = 1) -> None:
        """*count* requests were answered from the result cache.

        A cache hit is a terminal answer: it counts toward ``completed``
        alongside accepted/rerun/degraded, keeping the books invariant
        ``accepted + rerun + degraded + cache_hits + failed == submitted``
        once drained.
        """
        with self._lock:
            self._cache_hits += count

    def set_cache_bytes(self, nbytes: int) -> None:
        """Gauge: bytes currently resident in the attached result cache."""
        with self._lock:
            self._cache_bytes = int(nbytes)

    def record_stage_traffic(self, name: str, arrived: int = 0, forwarded: int = 0) -> None:
        """Per-rung traffic: *arrived* images scored, *forwarded* sent up."""
        with self._lock:
            if arrived:
                self._stage_arrived[name] = self._stage_arrived.get(name, 0) + arrived
            if forwarded:
                self._stage_forwarded[name] = (
                    self._stage_forwarded.get(name, 0) + forwarded
                )

    def record_threshold(self, threshold: float) -> None:
        with self._lock:
            self._threshold = float(threshold)
            self._trajectory.append(float(threshold))

    # -- parallel host pool ---------------------------------------------------
    def set_host_parallel_workers(self, n_workers: int) -> None:
        """Declare that the host stage is a parallel pool of *n_workers*."""
        with self._lock:
            self._host_parallel_workers = int(n_workers)

    def record_host_worker_images(self, worker: int, count: int, seconds: float = 0.0) -> None:
        """One pool worker served *count* images in *seconds* of inference."""
        with self._lock:
            self._host_worker_images[worker] = self._host_worker_images.get(worker, 0) + count
            self._host_worker_seconds[worker] = (
                self._host_worker_seconds.get(worker, 0.0) + seconds
            )

    # -- end-to-end latency ---------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        """One request's submit→resolve latency (fed to the SLO autoscaler)."""
        with self._lock:
            self._latencies.append(float(seconds))

    def drain_latencies(self) -> list[float]:
        """Pop every latency sample recorded since the previous drain.

        Each :class:`repro.serve.SLOAutoscaler` tick drains, so the
        returned list *is* the control window by construction — no
        timestamp filtering needed, and two consumers never double-count.
        """
        with self._lock:
            samples = list(self._latencies)
            self._latencies.clear()
        return samples

    # -- robustness ----------------------------------------------------------
    def record_fault(self, stage: str, count: int = 1) -> None:
        """A stage callable raised (injected or organic)."""
        with self._lock:
            self._faults[stage] = self._faults.get(stage, 0) + count

    def record_retry(self, count: int = 1) -> None:
        """A host re-inference attempt is being retried after a failure."""
        with self._lock:
            self._retries += count

    def record_deadline_miss(self, count: int = 1) -> None:
        with self._lock:
            self._deadline_missed += count

    def record_failure(self, count: int = 1) -> None:
        """*count* request futures were resolved with an exception."""
        with self._lock:
            self._failed += count

    def record_breaker_state(self, state: str) -> None:
        """Circuit-breaker transition; integrates degraded-mode time.

        Any state other than ``"closed"`` counts toward
        ``breaker_open_seconds`` (half-open still degrades most flagged
        traffic); entering ``"open"`` increments ``breaker_trips``.
        """
        with self._lock:
            now = self._clock()
            if self._breaker_state != "closed":
                self._breaker_open_seconds += now - self._breaker_since
            if state == "open" and self._breaker_state != "open":
                self._breaker_trips += 1
            self._breaker_state = state
            self._breaker_since = now

    # -- reading ------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            stages = {
                name: StageStats(name, s.count, s.total_seconds, s.max_seconds)
                for name, s in self._stages.items()
            }
            queues = {
                name: QueueStats(
                    name,
                    self._queue_capacity.get(name, 0),
                    self._queue_depth.get(name, 0),
                    self._queue_max_depth.get(name, 0),
                )
                for name in self._queue_capacity
            }
            now = self._clock()
            open_seconds = self._breaker_open_seconds
            if self._breaker_state != "closed":
                open_seconds += now - self._breaker_since
            return MetricsSnapshot(
                stages=stages,
                queues=queues,
                completed=(
                    self._accepted + self._rerun + self._degraded + self._cache_hits
                ),
                accepted=self._accepted,
                rerun=self._rerun,
                degraded=self._degraded,
                threshold=self._threshold,
                threshold_trajectory=tuple(self._trajectory),
                wall_seconds=now - self._started,
                submitted=self._submitted,
                failed=self._failed,
                faults=dict(self._faults),
                retries=self._retries,
                deadline_missed=self._deadline_missed,
                breaker_state=self._breaker_state,
                breaker_trips=self._breaker_trips,
                breaker_open_seconds=open_seconds,
                host_parallel_workers=self._host_parallel_workers,
                host_worker_images=dict(self._host_worker_images),
                host_worker_seconds=dict(self._host_worker_seconds),
                rerun_stages=dict(self._rerun_stages),
                stage_arrived=dict(self._stage_arrived),
                stage_forwarded=dict(self._stage_forwarded),
                cache_hits=self._cache_hits,
                cache_bytes=self._cache_bytes,
            )
