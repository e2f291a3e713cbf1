"""Concurrent cascade inference server (Fig. 1, request-driven).

:class:`repro.core.MultiPrecisionPipeline` computes the cascade offline,
one big array in, one big array out.  :class:`CascadeServer` runs the
same BNN → DMU → host cascade as a concurrent system of workers joined
by bounded queues, which is how the paper's hardware actually behaves
(the FPGA streams batches while the ARM host re-processes the previous
batch's flagged subset in parallel):

    submit() ──► MicroBatcher ◄── take() ── BNN worker ──► futures
                 (bounded pending buffer,           │ DMU accept
                  size/deadline cut)                │ DMU flag
                                           stage-1 queue (bounded)
                                                    │ per-stage worker:
                                                    │ score, DMU accept
                                                    │ or forward residue
                                                   ...
                                              host queue (bounded)
                                                    │        │ Full → degrade:
                                              host workers   │ answer with the
                                                    └──► futures  best so far

    The default is the paper's 2-stage shape (no middle rungs).  Passing
    ``ladder=[LadderStage(...), ...]`` inserts quantized middle rungs
    between the BNN and the host — the N-stage precision ladder of
    ``docs/LADDER.md`` — each with its own bounded queue, worker thread,
    DMU and threshold knob.  The BNN worker pulls its own batch the
    moment it is free, so the batcher's bounded pending buffer is the
    only pre-BNN buffer and the one place that blocks ``submit``.  The
    queues that *shed* instead of blocking are the forwarding queues
    (middle and host), because blocking there would stall the cheaper
    rungs for the exact traffic mix (reach ``R_i`` too high) that
    Eq. (1N) says the slower rungs cannot absorb anyway.

An :class:`~repro.serve.controller.AdaptiveThresholdController` closes
the loop between the two stages at runtime; a plain float threshold
reproduces the paper's static operating point, and a
:class:`~repro.serve.controller.LadderThresholdController` carries one
knob per hop for ladders.

Fault containment (``docs/ROBUSTNESS.md``): worker loops are crash-safe
— a raise inside any stage callable fails only the affected requests and
never kills a thread.  A BNN/DMU failure with no fallback answer fails
those futures with :class:`~repro.serve.resilience.StageFailure`; a DMU
failure *after* BNN scoring degrades to the BNN argmax; host failures
are retried under a :class:`~repro.serve.resilience.RetryPolicy`
(exponential backoff + jitter) and then degrade to the BNN answer; a
:class:`~repro.serve.resilience.CircuitBreaker` flips the server into a
degraded "accept BNN result, skip host" mode while the host stage is
tripping and recovers it after a cool-down.  Optional per-request
deadlines (``deadline_s``) bound tail latency: a request that misses its
deadline before the BNN answers fails with
:class:`~repro.serve.resilience.DeadlineExceeded`; after the BNN has
answered it degrades instead.  Every submitted request reaches exactly
one terminal state — a :class:`ServeResult` or an exception — even
across :meth:`CascadeServer.close` with work in flight
(:class:`~repro.serve.resilience.ServerClosed`).

Paper anchors: Fig. 1 (cascade structure), Eq. (1) timing regime
(host-bound vs BNN-bound); the degraded mode realizes CascadeCNN's
fall-back-to-low-precision semantics.  When a :mod:`repro.obs` tracer is
installed the workers emit ``serve.batch`` / ``serve.bnn`` /
``serve.dmu`` / ``serve.host`` spans plus queue-depth gauges,
accepted/rerun/degraded counters and fault/retry/deadline/breaker
events; with no tracer installed the instrumentation is a no-op.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..core.dmu import DecisionMakingUnit
from ..core.ladder import LadderStage
from .batcher import MicroBatcher
from .controller import AdaptiveThresholdController, LadderThresholdController
from .metrics import MetricsSnapshot, ServerMetrics
from .resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    RetryPolicy,
    ServerClosed,
    StageFailure,
)

__all__ = ["ServeResult", "CascadeServer"]

_SHUTDOWN = object()
#: Sentinel distinguishing "use a default CircuitBreaker" from "no breaker".
_DEFAULT = object()

BNN_QUEUE = "bnn"
HOST_QUEUE = "host"


@dataclass(frozen=True)
class ServeResult:
    """Answer to one serving request.

    ``source`` names what produced the answer: ``"bnn"`` (DMU accepted
    the fast stage), ``"degraded"`` (fell back to the best cheap answer),
    ``"host"`` or a middle-rung name (re-run above stage 0), or
    ``"cache"`` — re-served by a :class:`repro.cache.CachingFrontend`
    without running the cascade at all; ``cold_source`` then preserves
    the rung that produced the original cold answer.
    """

    prediction: int
    bnn_prediction: int
    confidence: float
    source: str                # "bnn" | "degraded" | "host" | "cache" | a rung name
    latency_seconds: float
    cold_source: str | None = None  # original rung behind a "cache" answer

    @property
    def rerun(self) -> bool:
        """True when a rung above stage 0 produced the answer."""
        return self.source not in ("bnn", "degraded", "cache")


class _Request:
    __slots__ = (
        "image", "future", "submit_ts", "deadline_ts", "bnn_prediction", "confidence",
        "last_prediction", "host_enqueue_ts",
    )

    def __init__(self, image: np.ndarray, submit_ts: float, deadline_ts: float | None):
        self.image = image
        self.future: Future[ServeResult] = Future()
        self.submit_ts = submit_ts
        self.deadline_ts = deadline_ts
        self.bnn_prediction = -1
        # Best answer produced so far (refined at every rung) — what a
        # degrade falls back to.  Equals bnn_prediction in 2-stage mode.
        self.last_prediction = -1
        self.confidence = float("nan")
        # Set whenever the request is enqueued to the *next* rung's
        # queue; the consuming worker books the queue-wait under
        # "<rung>_queue_wait".
        self.host_enqueue_ts = float("nan")


class CascadeServer:
    """Request-driven BNN + DMU + host cascade with adaptive thresholding.

    Parameters
    ----------
    bnn_scores_fn:
        Batch scorer of the fast stage: ``(N, ...) images -> (N, C)``
        class scores (e.g. :meth:`repro.bnn.FoldedBNN.class_scores`).
    dmu:
        Trained :class:`repro.core.DecisionMakingUnit`.
    host_predict_fn:
        Batch classifier of the accurate stage: ``(N, ...) images ->
        (N,)`` class labels (e.g. ``Sequential.predict_classes``).
    controller:
        Threshold policy.  A float gives the paper's static threshold; an
        :class:`AdaptiveThresholdController` adapts it at runtime.
        ``None`` uses ``dmu.threshold`` statically.  With a ladder, a
        :class:`LadderThresholdController` supplies one knob per hop
        (it must have ``len(ladder) + 1`` knobs); any other value
        applies to hop 0 only, with the middle rungs pinned to their
        stages' static thresholds.
    ladder:
        Optional middle rungs (:class:`repro.core.LadderStage`, cheapest
        first) inserted between the BNN and the host — each needs a DMU
        and gets its own bounded queue and worker thread.  ``None`` or
        empty reproduces the paper's 2-stage cascade exactly.
    ladder_queue_capacity:
        Bound of each middle rung's queue in images (default: the host
        queue capacity).
    max_batch_size / batch_delay_s:
        Micro-batcher limits for the BNN stage.  The BNN worker cuts a
        batch whenever it is free and one is due: ``max_batch_size``
        pending, or the oldest pending request ``batch_delay_s`` old.
        The default ``0`` never holds a request for a timer — batches
        form while the previous one computes.  ``submit`` blocks once
        ``6 * max_batch_size`` images are pending
        (``snapshot().queues["bnn"]``, in images, sampled by the BNN
        worker after each cut).
    host_queue_capacity:
        Bound of the host queue in images.
    num_host_workers:
        Host re-inference worker threads (the paper has one ARM core
        pool; scale up for stronger hosts).
    host_workers:
        Process-parallel host pool size.  When set (or via the
        ``REPRO_HOST_WORKERS`` env var), ``host_predict_fn`` is wrapped
        in a :class:`repro.parallel.ParallelHostRunner` that shards each
        host batch across that many worker *processes* over shared
        memory — the Eq. (1) ``t_fp -> t_fp / N`` lever.  The server
        owns and closes the pool.  Alternatively pass an existing
        ``ParallelHostRunner`` directly as ``host_predict_fn`` (the
        caller keeps ownership); either way its per-worker counters are
        bridged into :attr:`metrics`.  ``None`` with no env var keeps
        the plain serial callable.
    host_batch_size:
        Greedy drain limit per host inference call.
    deadline_s:
        Optional per-request deadline measured from ``submit``.  ``None``
        (default) disables deadline enforcement.  Deadlines are checked
        at stage boundaries — a call already executing is never
        interrupted (pure-python stages cannot be preempted safely).
    retry:
        :class:`RetryPolicy` for failed host re-inference calls
        (default: 2 retries, 10 ms base backoff, jitter).  Retries
        exhausted ⇒ the affected requests degrade to their BNN answer.
    breaker:
        :class:`CircuitBreaker` guarding the host path.  Default: a
        breaker with 5-failure threshold and 1 s cool-down on the
        server's clock.  Pass ``None`` to disable.  If the supplied
        breaker has no ``on_transition`` callback the server installs
        its metrics bridge.
    """

    def __init__(
        self,
        bnn_scores_fn: Callable[[np.ndarray], np.ndarray],
        dmu: DecisionMakingUnit,
        host_predict_fn: Callable[[np.ndarray], np.ndarray],
        controller: (
            AdaptiveThresholdController | LadderThresholdController | float | None
        ) = None,
        max_batch_size: int = 32,
        batch_delay_s: float = 0.0,
        host_queue_capacity: int = 64,
        num_host_workers: int = 1,
        host_workers: int | None = None,
        host_batch_size: int = 8,
        metrics: ServerMetrics | None = None,
        clock: Callable[[], float] = time.monotonic,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = _DEFAULT,  # type: ignore[assignment]
        ladder: Sequence[LadderStage] | None = None,
        ladder_queue_capacity: int | None = None,
    ):
        if num_host_workers < 1:
            raise ValueError("num_host_workers must be >= 1")
        if host_queue_capacity < 1:
            raise ValueError("queue capacities must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self._bnn_scores_fn = bnn_scores_fn
        self._dmu = dmu
        self._host_predict_fn = host_predict_fn

        # -- ladder topology: middle rungs between the BNN and the host.
        stages = tuple(ladder) if ladder else ()
        reserved = {"bnn", "host", "degraded"}
        names = [s.name for s in stages]
        if len(set(names)) != len(names) or reserved & set(names):
            raise ValueError(
                f"ladder stage names must be unique and none of {sorted(reserved)}"
            )
        for stage in stages:
            if stage.dmu is None:
                raise ValueError(
                    f"ladder stage {stage.name!r} forwards traffic and needs a DMU"
                )
        self._ladder_stages = stages
        num_hops = 1 + len(stages)
        if ladder_queue_capacity is None:
            ladder_queue_capacity = host_queue_capacity
        if ladder_queue_capacity < 1:
            raise ValueError("ladder_queue_capacity must be >= 1")

        # -- routing policy: one (static or adaptive) knob per hop.
        self._hop_controllers: list[AdaptiveThresholdController | None]
        self._hop_static: list[float] = [0.0] * num_hops
        if isinstance(controller, LadderThresholdController):
            if controller.num_hops != num_hops:
                raise ValueError(
                    f"LadderThresholdController has {controller.num_hops} knobs "
                    f"but the ladder has {num_hops} hops"
                )
            self._hop_controllers = list(controller.knobs)
        else:
            self._hop_controllers = [None] * num_hops
            hop0 = float(dmu.threshold) if controller is None else controller
            if isinstance(hop0, AdaptiveThresholdController):
                self._hop_controllers[0] = hop0
            else:
                self._hop_static[0] = float(hop0)
                if not 0.0 <= self._hop_static[0] <= 1.0:
                    raise ValueError("threshold must be in [0, 1]")
            for i, stage in enumerate(stages):
                thr = stage.effective_threshold
                if thr is None:
                    raise ValueError(
                        f"ladder stage {stage.name!r} has no threshold"
                    )
                self._hop_static[i + 1] = float(thr)
        self._clock = clock
        self.metrics = metrics if metrics is not None else ServerMetrics(clock=clock)
        self._batcher: MicroBatcher[_Request] = MicroBatcher(
            max_batch_size=max_batch_size, max_delay_s=batch_delay_s, clock=clock
        )
        self.metrics.register_queue(BNN_QUEUE, self._batcher.max_pending)
        for stage in stages:
            self.metrics.register_queue(stage.name, ladder_queue_capacity)
        self.metrics.register_queue(HOST_QUEUE, host_queue_capacity)
        self.metrics.record_threshold(self.threshold)

        # Optional process-parallel host pool (repro.parallel).
        self._host_runner, self._owns_host_runner = self._init_parallel_host(
            host_predict_fn, host_workers
        )
        if self._host_runner is not None:
            self._host_predict_fn = self._host_runner
            self._host_runner.set_metrics(self.metrics)

        self._deadline_s = deadline_s
        self._retry = retry if retry is not None else RetryPolicy()
        self._retry_rng = random.Random(0xC0FFEE)
        if breaker is _DEFAULT:
            breaker = CircuitBreaker(clock=clock)
        self._breaker: CircuitBreaker | None = breaker
        if self._breaker is not None and self._breaker._on_transition is None:
            self._breaker._on_transition = self._on_breaker_transition

        self._mid_queues: list[queue.Queue] = [
            queue.Queue(maxsize=ladder_queue_capacity) for _ in stages
        ]
        self._host_queue: queue.Queue = queue.Queue(maxsize=host_queue_capacity)
        self._host_batch_size = max(1, int(host_batch_size))
        self._closed = False
        self._close_lock = threading.Lock()
        self._inflight: set[_Request] = set()
        self._inflight_lock = threading.Lock()

        self._bnn_thread = threading.Thread(
            target=self._bnn_loop, name="serve-bnn", daemon=True
        )
        self._mid_threads = [
            threading.Thread(
                target=self._mid_loop, args=(i,), name=f"serve-{stage.name}",
                daemon=True,
            )
            for i, stage in enumerate(stages)
        ]
        self._host_threads = [
            threading.Thread(target=self._host_loop, name=f"serve-host-{i}", daemon=True)
            for i in range(num_host_workers)
        ]
        self._bnn_thread.start()
        for t in self._mid_threads:
            t.start()
        for t in self._host_threads:
            t.start()

    @staticmethod
    def _init_parallel_host(host_predict_fn, host_workers):
        """Resolve the process-pool request into (runner, server_owns_it)."""
        # Local import: repro.parallel pulls in multiprocessing machinery
        # that serial servers never need.
        from ..parallel import ParallelHostRunner, resolve_host_workers

        if isinstance(host_predict_fn, ParallelHostRunner):
            return host_predict_fn, False
        n_workers = resolve_host_workers(host_workers)
        if n_workers is None:
            return None, False
        return ParallelHostRunner(predict_fn=host_predict_fn, n_workers=n_workers), True

    # -- public API ---------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The hop-0 DMU threshold currently applied to new batches."""
        return self.stage_threshold(0)

    def stage_threshold(self, hop: int) -> float:
        """The threshold gating hop *hop* (0 = BNN, then middle rungs)."""
        ctrl = self._hop_controllers[hop]
        return ctrl.threshold if ctrl is not None else self._hop_static[hop]

    @property
    def num_stages(self) -> int:
        """Rung count including the BNN and the host (2 = paper cascade)."""
        return 2 + len(self._ladder_stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return ("bnn", *(s.name for s in self._ladder_stages), "host")

    @property
    def degraded_mode(self) -> bool:
        """True while the circuit breaker holds the host path open."""
        return self._breaker is not None and self._breaker.state != CircuitBreaker.CLOSED

    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one image; resolves to a :class:`ServeResult`.

        Blocks (backpressure) while the front buffer is full; raises
        :class:`ServerClosed` once the server is closed.  The returned
        future always reaches a terminal state: a result, or one of
        :class:`StageFailure` / :class:`DeadlineExceeded` /
        :class:`ServerClosed`.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        now = self._clock()
        deadline = now + self._deadline_s if self._deadline_s is not None else None
        request = _Request(np.asarray(image), now, deadline)
        with self._inflight_lock:
            self._inflight.add(request)
        self.metrics.record_submitted(1)
        try:
            self._batcher.submit(request)
        except RuntimeError:
            # Batcher closed between our check and the submit: fail the
            # request we registered rather than stranding it.
            if self._claim(request):
                self.metrics.record_failure(1)
                request.future.set_exception(ServerClosed("server is closed"))
            raise ServerClosed("server is closed") from None
        return request.future

    def classify_many(
        self, images: Iterable[np.ndarray], timeout: float | None = None
    ) -> list[ServeResult]:
        """Convenience: submit a stream and wait for every answer.

        Raises the per-request error (e.g. :class:`StageFailure`) of the
        first failed request, like the underlying futures would.
        """
        futures = [self.submit(img) for img in images]
        return [f.result(timeout=timeout) for f in futures]

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    @property
    def host_pool_size(self) -> int:
        """Process workers in the parallel host pool (0 = serial host)."""
        return self._host_runner.n_workers if self._host_runner is not None else 0

    def resize_host_workers(self, n: int) -> int:
        """Grow/shrink the parallel host pool mid-stream; returns new size.

        Requires the server to be running a
        :class:`repro.parallel.ParallelHostRunner` host stage
        (``host_workers=...`` or ``REPRO_HOST_WORKERS``); serial hosts
        have nothing to resize and raise :class:`RuntimeError`.  Safe
        while requests are in flight — the runner only cuts shard
        boundaries between micro-batches.
        """
        if self._host_runner is None:
            raise RuntimeError("server has no parallel host pool to resize")
        return self._host_runner.resize(n)

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain every stage, join every worker, strand no future.

        All requests accepted before ``close`` are answered when the
        workers are healthy; if a worker is stuck (or *timeout* expires
        first) the remaining in-flight futures fail with
        :class:`ServerClosed` instead of hanging their waiters.  The call
        is idempotent.
        """
        with self._close_lock:
            first = not self._closed
            self._closed = True
        if first:
            # The BNN worker drains the pending buffer, then take() yields None.
            self._batcher.close()
            self._bnn_thread.join(timeout=timeout)
            # Drain the ladder top-down: each rung's sentinel goes in only
            # after every producer above it has exited, so no request is
            # left behind a sentinel.
            for i, thread in enumerate(self._mid_threads):
                self._put_sentinel(self._mid_queues[i], timeout)
                thread.join(timeout=timeout)
            for _ in self._host_threads:
                self._put_sentinel(self._host_queue, timeout)
        for t in self._host_threads:
            t.join(timeout=timeout)
        if first and self._owns_host_runner and self._host_runner is not None:
            self._host_runner.close()
        # Anything still unresolved is stuck behind a dead/hung stage (or
        # the joins timed out): fail it now so no caller waits forever.
        with self._inflight_lock:
            stranded = list(self._inflight)
            self._inflight.clear()
        if stranded:
            self.metrics.record_failure(len(stranded))
            obs.count("serve.failed", len(stranded))
            for request in stranded:
                request.future.set_exception(ServerClosed("server closed mid-flight"))

    @staticmethod
    def _put_sentinel(q: queue.Queue, timeout: float | None) -> None:
        """Best-effort shutdown signal: never block forever on a full queue."""
        try:
            q.put(_SHUTDOWN, timeout=timeout)
        except queue.Full:
            pass

    def __enter__(self) -> "CascadeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internal: terminal-state bookkeeping --------------------------------
    def _claim(self, request: _Request) -> bool:
        """Acquire the exclusive right to resolve *request*'s future."""
        with self._inflight_lock:
            if request in self._inflight:
                self._inflight.remove(request)
                return True
            return False

    def _resolve(self, request: _Request, prediction: int, source: str) -> None:
        if not self._claim(request):
            return  # already failed by close()/deadline — exactly-once wins
        if source == "bnn":
            self.metrics.record_decisions(accepted=1)
        elif source == "degraded":
            self.metrics.record_decisions(degraded=1)
        else:
            # Any rung above 0 — "host" or a middle-stage name.  The
            # top-line ``rerun`` counter keeps the 2-stage books
            # invariant; the stage tag adds the per-rung breakdown.
            self.metrics.record_decisions(rerun=1, stage=source)
        latency = self._clock() - request.submit_ts
        self.metrics.record_latency(latency)
        request.future.set_result(
            ServeResult(
                prediction=int(prediction),
                bnn_prediction=int(request.bnn_prediction),
                confidence=float(request.confidence),
                source=source,
                latency_seconds=latency,
            )
        )

    def _fail(self, request: _Request, exc: BaseException) -> None:
        if not self._claim(request):
            return
        self.metrics.record_failure(1)
        obs.count("serve.failed", 1)
        request.future.set_exception(exc)

    def _past_deadline(self, request: _Request) -> bool:
        return request.deadline_ts is not None and self._clock() > request.deadline_ts

    # -- internal: BNN worker ------------------------------------------------
    def _bnn_loop(self) -> None:
        while True:
            batch = self._batcher.take()
            if batch is None:
                return
            self.metrics.set_queue_depth(BNN_QUEUE, self._batcher.pending)
            try:
                self._process_bnn_batch(batch)
            except Exception as exc:  # containment: never kill the worker
                for request in batch:
                    self._fail(request, StageFailure("bnn", exc))

    def _process_bnn_batch(self, batch: list[_Request]) -> None:
        # Deadline gate: no BNN answer exists yet, so a missed deadline
        # is a hard per-request error, not a degraded answer.
        live: list[_Request] = []
        for request in batch:
            if self._past_deadline(request):
                self.metrics.record_deadline_miss(1)
                obs.count("serve.deadline_missed", 1)
                self._fail(request, DeadlineExceeded("deadline passed before BNN stage"))
            else:
                live.append(request)
        if not live:
            return

        start = self._clock()
        try:
            with obs.trace_span("serve.bnn", batch=len(live)):
                images = np.stack([r.image for r in live])
                scores = np.asarray(self._bnn_scores_fn(images))
                predictions = scores.argmax(axis=1)
        except Exception as exc:
            # Fast stage down: no answer of any precision exists.
            self.metrics.record_fault("bnn")
            obs.count("serve.fault.bnn", 1)
            for request in live:
                self._fail(request, StageFailure("bnn", exc))
            return

        for i, request in enumerate(live):
            request.bnn_prediction = int(predictions[i])

        try:
            with obs.trace_span("serve.dmu", batch=len(live)):
                confidence = np.atleast_1d(self._dmu.confidence(scores))
                threshold = self.threshold
                accept = confidence >= threshold
        except Exception:
            accept = None
        # Booked on the DMU-fault path too: the BNN compute happened.
        self.metrics.observe_stage("bnn", self._clock() - start, count=len(live))
        if accept is None:
            # DMU down but the BNN answered: CascadeCNN fall-back — accept
            # every BNN answer as a degraded result (Eq. (2) floor).
            self.metrics.record_fault("dmu")
            obs.count("serve.fault.dmu", 1)
            if obs.enabled():
                obs.count("serve.degraded", len(live))
            for i, request in enumerate(live):
                self._resolve(request, predictions[i], "degraded")
            return

        for i, request in enumerate(live):
            request.last_prediction = int(predictions[i])
        accepted, forwarded, degraded = self._route_after_scoring(
            0, live, predictions, confidence, accept, "bnn"
        )
        flagged = len(live) - accepted
        self.metrics.record_stage_traffic("bnn", arrived=len(live), forwarded=forwarded)
        if obs.enabled():
            obs.count("serve.accepted", accepted)
            obs.count("serve.rerun", forwarded)
            obs.count("serve.degraded", degraded)
        ctrl = self._hop_controllers[0]
        if ctrl is not None:
            new_threshold = ctrl.observe(
                total=len(live), rerun=flagged, degraded=degraded
            )
            self.metrics.record_threshold(new_threshold)
            obs.gauge("serve.threshold", new_threshold)

    # -- internal: routing between rungs --------------------------------------
    def _next_queue(self, rung: int) -> tuple[queue.Queue, str, bool]:
        """``(queue, name, breaker_guarded)`` feeding rung ``rung + 1``."""
        nxt = rung + 1
        if nxt <= len(self._ladder_stages):
            return self._mid_queues[nxt - 1], self._ladder_stages[nxt - 1].name, False
        return self._host_queue, HOST_QUEUE, True

    def _route_after_scoring(
        self,
        rung: int,
        live: list[_Request],
        predictions: np.ndarray,
        confidence: np.ndarray,
        accept: np.ndarray,
        source: str,
    ) -> tuple[int, int, int]:
        """Resolve accepted requests, forward the residue one rung up.

        Shared by the BNN worker (rung 0) and every middle-rung worker.
        The breaker gates only the hop *into* the host — the middle
        rungs have their own fallback (degrade to the best answer so
        far) and must not consume half-open probes.  Returns
        ``(accepted, forwarded, degraded)``.
        """
        nq, nq_name, guarded = self._next_queue(rung)
        # Lazy so a fully-accepted batch never consumes a half-open probe.
        host_open: bool | None = None
        accepted = forwarded = degraded = 0
        for i, request in enumerate(live):
            request.confidence = float(confidence[i])
            if accept[i]:
                self._resolve(request, predictions[i], source)
                accepted += 1
                continue
            if self._past_deadline(request):
                # An answer exists at this precision: degrade, don't error.
                self.metrics.record_deadline_miss(1)
                obs.count("serve.deadline_missed", 1)
                self._resolve(request, predictions[i], "degraded")
                degraded += 1
                continue
            if guarded:
                if host_open is None:
                    host_open = self._breaker is not None and not self._breaker.allow()
                if host_open:
                    # Breaker open: "accept current result, skip host" mode.
                    self._resolve(request, predictions[i], "degraded")
                    degraded += 1
                    continue
            try:
                request.host_enqueue_ts = self._clock()
                nq.put_nowait(request)
                forwarded += 1
                depth = nq.qsize()
                self.metrics.set_queue_depth(nq_name, depth)
                obs.gauge(f"queue.{nq_name}", depth)
            except queue.Full:
                # Graceful degradation: the next rung is saturated, so
                # answer with this rung's result instead of stalling the
                # fast stages (Eq. (1N)'s slow-rung-bound regime).
                self._resolve(request, predictions[i], "degraded")
                degraded += 1
        return accepted, forwarded, degraded

    # -- internal: middle-rung workers ----------------------------------------
    def _mid_loop(self, idx: int) -> None:
        stage = self._ladder_stages[idx]
        q = self._mid_queues[idx]
        while True:
            requests = self._take_requests(q, stage.name)
            if requests is None:
                return
            try:
                self._process_mid_batch(idx, requests)
            except Exception:  # containment: degrade, never kill the worker
                self._degrade_batch(requests)

    def _process_mid_batch(self, idx: int, requests: list[_Request]) -> None:
        stage = self._ladder_stages[idx]
        rung = idx + 1
        # Deadline gate: these requests carry a cheaper rung's answer, so
        # lateness degrades (counted) instead of erroring.
        live: list[_Request] = []
        for request in requests:
            if self._past_deadline(request):
                self.metrics.record_deadline_miss(1)
                obs.count("serve.deadline_missed", 1)
                self._resolve(request, request.last_prediction, "degraded")
            else:
                live.append(request)
        if not live:
            return

        now = self._clock()
        queue_wait = sum(
            now - r.host_enqueue_ts for r in live if r.host_enqueue_ts == r.host_enqueue_ts
        )
        self.metrics.observe_stage(f"{stage.name}_queue_wait", queue_wait, count=len(live))

        start = self._clock()
        try:
            with obs.trace_span(f"serve.{stage.name}", batch=len(live)):
                images = np.stack([r.image for r in live])
                scores = np.asarray(stage.scores_fn(images))
                predictions = scores.argmax(axis=1)
        except Exception:
            # This rung is down, but every request carries an answer from
            # a cheaper rung: fall back instead of erroring.
            self.metrics.record_fault(stage.name)
            obs.count(f"serve.fault.{stage.name}", 1)
            self._degrade_batch(live)
            return
        for i, request in enumerate(live):
            request.last_prediction = int(predictions[i])

        try:
            with obs.trace_span(f"serve.{stage.name}.dmu", batch=len(live)):
                confidence = np.atleast_1d(stage.dmu.confidence(scores))
                accept = confidence >= self.stage_threshold(rung)
        except Exception:
            accept = None
        self.metrics.observe_stage(stage.name, self._clock() - start, count=len(live))
        if accept is None:
            # DMU down but the rung answered: keep this rung's (better)
            # answer as a degraded result — CascadeCNN's fall-back.
            self.metrics.record_fault(f"{stage.name}.dmu")
            obs.count(f"serve.fault.{stage.name}.dmu", 1)
            if obs.enabled():
                obs.count("serve.degraded", len(live))
            for i, request in enumerate(live):
                self._resolve(request, predictions[i], "degraded")
            return

        accepted, forwarded, degraded = self._route_after_scoring(
            rung, live, predictions, confidence, accept, stage.name
        )
        self.metrics.record_stage_traffic(
            stage.name, arrived=len(live), forwarded=forwarded
        )
        if obs.enabled():
            obs.count(f"serve.{stage.name}.accepted", accepted)
            obs.count(f"serve.{stage.name}.forwarded", forwarded)
            obs.count("serve.degraded", degraded)
        ctrl = self._hop_controllers[rung]
        if ctrl is not None:
            ctrl.observe(
                total=len(live), rerun=len(live) - accepted, degraded=degraded
            )

    # -- internal: host workers ----------------------------------------------
    def _take_requests(self, q: queue.Queue, name: str) -> list[_Request] | None:
        first = q.get()
        if first is _SHUTDOWN:
            return None
        requests = [first]
        while len(requests) < self._host_batch_size:
            try:
                item = q.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Not ours to consume: hand it to a sibling worker.  Safe
                # to block — sentinels are only enqueued after the
                # upstream producers have exited.
                q.put(item)
                break
            requests.append(item)
        depth = q.qsize()
        self.metrics.set_queue_depth(name, depth)
        obs.gauge(f"queue.{name}", depth)
        return requests

    def _host_loop(self) -> None:
        while True:
            requests = self._take_requests(self._host_queue, HOST_QUEUE)
            if requests is None:
                return
            try:
                self._process_host_batch(requests)
            except Exception:  # containment: degrade, never kill the worker
                self._degrade_batch(requests)

    def _degrade_batch(self, requests: Sequence[_Request]) -> None:
        for request in requests:
            self._resolve(request, request.last_prediction, "degraded")

    def _process_host_batch(self, requests: list[_Request]) -> None:
        # Deadline gate: these requests carry a BNN answer, so lateness
        # degrades (counted) instead of erroring.
        live: list[_Request] = []
        for request in requests:
            if self._past_deadline(request):
                self.metrics.record_deadline_miss(1)
                obs.count("serve.deadline_missed", 1)
                self._resolve(request, request.last_prediction, "degraded")
            else:
                live.append(request)
        if not live:
            return
        self.metrics.record_stage_traffic(HOST_QUEUE, arrived=len(live))

        # Queue-wait vs pure-inference split: the "host" stage below times
        # only the (successful) inference call, so time spent parked in the
        # host queue must be booked separately or throughput reports blur
        # dispatch latency into compute cost.
        now = self._clock()
        queue_wait = sum(
            now - r.host_enqueue_ts for r in live if r.host_enqueue_ts == r.host_enqueue_ts
        )
        self.metrics.observe_stage("host_queue_wait", queue_wait, count=len(live))

        retries = 0
        while True:
            start = self._clock()
            try:
                with obs.trace_span("serve.host", batch=len(live)):
                    images = np.stack([r.image for r in live])
                    predictions = np.asarray(self._host_predict_fn(images)).reshape(-1)
                if len(predictions) != len(live):
                    raise ValueError(
                        f"host returned {len(predictions)} predictions "
                        f"for {len(live)} images"
                    )
            except Exception:
                self.metrics.record_fault("host")
                obs.count("serve.fault.host", 1)
                if self._breaker is not None:
                    self._breaker.record_failure()
                breaker_open = (
                    self._breaker is not None
                    and self._breaker.state == CircuitBreaker.OPEN
                )
                if retries >= self._retry.max_retries or breaker_open or self._closed:
                    # Retries exhausted (or pointless): fall back to the
                    # low-precision answer for the whole batch.
                    self._degrade_batch(live)
                    return
                self.metrics.record_retry(1)
                obs.count("serve.retry", 1)
                time.sleep(self._retry.backoff_s(retries, self._retry_rng))
                retries += 1
                continue
            break

        if self._breaker is not None:
            self._breaker.record_success()
        self.metrics.observe_stage("host", self._clock() - start, count=len(live))
        for request, prediction in zip(live, predictions):
            self._resolve(request, prediction, "host")

    # -- internal: breaker bridge --------------------------------------------
    def _on_breaker_transition(self, state: str) -> None:
        self.metrics.record_breaker_state(state)
        if obs.enabled():
            obs.instant("serve.breaker", state=state)
