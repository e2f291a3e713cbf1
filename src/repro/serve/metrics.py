"""Serving metrics: per-stage latency/throughput, queues, faults, breaker.

One :class:`ServerMetrics` — a :class:`repro.obs.Ledger` — is shared by
every component of a :class:`repro.serve.CascadeServer`; they add to its
declared counters and set its gauges, and :meth:`ServerMetrics.snapshot`
builds an immutable :class:`MetricsSnapshot` from one consistent read
for ``repro serve-bench`` and :func:`repro.obs.ladder_eq1_residual`.

Paper anchors: accepted/rerun/degraded realize ``R_rerun`` (Sec. III),
which Eq. (1) prices host time with (``t_multi = max(t_fp * R_rerun,
t_bnn)``); ``MetricsSnapshot.since`` carves the steady-state windows held
against that bound.  The books obey :data:`SERVER_LAWS`: :data:`TERMINAL`
once drained (``cache_hits`` is nonzero only when a
:class:`repro.cache.CachingFrontend` shares the ledger) and
:data:`BY_RUNG` always — ladders (``docs/LADDER.md``) keep ``rerun`` as
every answer above rung 0 and split it per answering rung, while
``stage_arrived`` / ``stage_forwarded`` give the forward ratios ``r_i``
of Eq. (1N).  Faults, retries, deadline misses and breaker time feed the
chaos books (``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..obs.ledger import Law, Ledger, deltas, violations

__all__ = ["StageStats", "QueueStats", "MetricsSnapshot", "ServerMetrics", "SERVER_LAWS"]

#: Every submitted request reaches exactly one terminal state.
TERMINAL = Law(
    "terminal", ("accepted", "rerun", "degraded", "cache_hits", "failed"), "submitted",
    drained=True,
)
#: The per-rung split of ``rerun`` re-sums to it.
BY_RUNG = Law("by_rung", ("rerun_stages",), "rerun")
SERVER_LAWS = (TERMINAL, BY_RUNG)

#: Counter -> tracer name.  Rung 0 keeps the paper cascade's names; a
#: middle rung's accepts and forwards are ``serve.<rung>.*``.
_COUNTERS = {
    "submitted": None, "accepted": "serve.accepted", "rerun": "serve.rerun",
    "degraded": "serve.degraded", "cache_hits": None, "failed": "serve.failed",
    "retries": "serve.retry", "deadline_missed": "serve.deadline_missed",
    "breaker_trips": None, "faults": "serve.fault.{}",
    "rerun_stages": lambda rung: None if rung == "host" else f"serve.{rung}.accepted",
    "stage_arrived": None,
    "stage_forwarded": lambda rung: None if rung == "bnn" else f"serve.{rung}.forwarded",
    "host_worker_images": None, "host_worker_seconds": None,
    "stage_images": None, "stage_seconds": None,
}
#: Gauge -> tracer name.
_GAUGES = {
    "cache_bytes": None, "host_parallel_workers": None, "queue_capacity": None,
    "queue_depth": "queue.{}",
    "stage_batch_seconds": None,
}
_PLAIN = ("submitted", "accepted", "rerun", "degraded", "cache_hits", "failed", "retries",
          "deadline_missed", "breaker_trips", "cache_bytes", "host_parallel_workers")
#: Counters a :class:`MetricsSnapshot` carries under the same name.
_SNAPSHOT_COUNTERS = tuple(c for c in _COUNTERS if c not in ("stage_images", "stage_seconds"))
#: What :meth:`MetricsSnapshot.since` turns into window deltas.
_WINDOWED = _SNAPSHOT_COUNTERS + ("completed", "wall_seconds", "breaker_open_seconds")


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
        return TERMINAL.terminal(self)

    @property
    def in_flight(self) -> int:
        """Submitted requests without a terminal state at snapshot time."""
        return TERMINAL.gap(self)

    def check(self, drained: bool = True) -> list[Law]:
        """The :data:`SERVER_LAWS` these books break (see :meth:`Ledger.check`)."""
        return violations(SERVER_LAWS, self, drained)

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
        """Σ rerun_i — equals ``rerun`` by :data:`BY_RUNG`."""
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
        return replace(self, **deltas(self, earlier, _WINDOWED))


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


class ServerMetrics(Ledger):
    """The cascade server's ledger — ``metrics.add(failed=1)``,
    ``metrics.add(rung, faults=1)``, ``metrics.set(rung, queue_depth=d)``,
    under :class:`MetricsSnapshot`'s names — plus the state that is not a
    count: the threshold trajectory, the latency window, the breaker clock."""

    def __init__(self, clock=time.monotonic):
        keyed = {*_COUNTERS, *_GAUGES} - set(_PLAIN)
        super().__init__(_COUNTERS, _GAUGES, keyed, SERVER_LAWS)
        self._clock = clock
        self._started = clock()
        self._trajectory: deque[float] = deque(maxlen=TRAJECTORY_BUFFER_LIMIT)
        #: submit→resolve latencies, appended by whatever resolves a request.
        self.latencies: deque[float] = deque(maxlen=LATENCY_BUFFER_LIMIT)
        # (state, since, open seconds closed out before *since*)
        self._breaker = ("closed", clock(), 0.0)

    def observe_stage(self, name: str, seconds: float, count: int = 1) -> None:
        """Record that *count* images spent *seconds* in stage *name*."""
        self.add(name, stage_images=count, stage_seconds=seconds)
        self.set(name, stage_batch_seconds=seconds)

    def set_threshold(self, threshold: float) -> None:
        """The hop-0 threshold now applied (appended to the trajectory)."""
        with self._lock:
            self._trajectory.append(float(threshold))

    def set_breaker_state(self, state: str) -> None:
        """Breaker transition: time in any state but ``"closed"`` (half-open
        still degrades) is ``breaker_open_seconds``; entering ``"open"``
        adds a ``breaker_trips``."""
        with self._lock:
            old, since, open_seconds = self._breaker
            now = self._clock()
            if old != "closed":
                open_seconds += now - since
            self._breaker = (state, now, open_seconds)
        if state == "open" and old != "open":
            self.add(breaker_trips=1)

    def drain_latencies(self) -> list[float]:
        """Pop every latency sample since the previous drain: each
        :class:`repro.serve.SLOAutoscaler` tick drains, so the list *is*
        its control window, and no sample is counted twice."""
        latencies = self.latencies
        return [latencies.popleft() for _ in range(len(latencies))]

    def snapshot(self) -> MetricsSnapshot:
        reading = self.read()
        with self._lock:
            trajectory = tuple(self._trajectory)
            state, since, open_seconds = self._breaker
            now = self._clock()
        if state != "closed":
            open_seconds += now - since
        c, g, top = reading.counters, reading.gauges, reading.maxima
        return MetricsSnapshot(
            stages={
                name: StageStats(name, c["stage_images"].get(name, 0),
                                 c["stage_seconds"].get(name, 0.0), longest)
                for name, longest in top["stage_batch_seconds"].items()
            },
            queues={
                name: QueueStats(name, capacity, g["queue_depth"].get(name, 0),
                                 top["queue_depth"].get(name, 0))
                for name, capacity in g["queue_capacity"].items()
            },
            completed=TERMINAL.terminal(c) - c["failed"],
            threshold=trajectory[-1] if trajectory else float("nan"),
            threshold_trajectory=trajectory,
            wall_seconds=now - self._started,
            breaker_state=state,
            breaker_open_seconds=open_seconds,
            host_parallel_workers=g["host_parallel_workers"],
            cache_bytes=g["cache_bytes"],
            **{name: c[name] for name in _SNAPSHOT_COUNTERS},
        )
