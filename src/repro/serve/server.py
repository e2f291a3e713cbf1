"""Concurrent cascade inference server (Fig. 1, request-driven).

:class:`repro.core.MultiPrecisionPipeline` computes the cascade offline,
one big array in, one big array out.  :class:`CascadeServer` runs the
same BNN → DMU → host cascade as a concurrent system of workers joined
by bounded queues, which is how the paper's hardware actually behaves
(the FPGA streams batches while the ARM host re-processes the previous
batch's flagged subset in parallel).

The server is one **rung table** — ``bnn``, each ``ladder=`` stage, then
``host`` — and every worker thread runs the same loop over its own row;
the paper's 2-stage cascade is the table with zero middle rungs
(``docs/LADDER.md``)::

    submit() ─► rung 0's inbox (blocks when full; a forward into any
                    │         other rung's inbox sheds when full)
                  inbox ─► gate ─► score ─► DMU ─┬─ confident ─► resolve as <rung>
                            │late   │raises  │   └─ flagged ──► next rung's inbox
                            ▼       ▼        │raises              │full / closed /
                           fall back         ▼                    ▼late / breaker open
                                        degrade to this rung's own answer

Every rung reads one kind of bounded inbox, and its workers take a batch
the moment they are free — whatever arrived while the previous batch
computed — so no request waits on a timer and rung 0's inbox is the only
pre-BNN buffer.  Forwards shed instead of blocking, because blocking
there would stall the cheaper rungs for the exact traffic mix (reach
``R_i`` too high) that Eq. (1N) says the slower rungs cannot absorb
anyway.  Three policies depend on position, each read off what the code
can observe rather than a per-rung flag:

===========================  ============================================
observed                     policy
===========================  ============================================
the request carries an       *fall back* (late on arrival, scorer raised,
answer (``last_prediction``  worker crashed) degrades to that answer;
set: any rung above 0)       without one it fails typed —
                             ``DeadlineExceeded`` / ``StageFailure``
the rung has no DMU          it is the last: answers all it scores, and
                             alone retries (``RetryPolicy``) and feeds
                             the ``CircuitBreaker``
the next rung has no DMU     the one breaker-guarded hop: while open, the
                             flagged residue degrades (skip-host mode)
===========================  ============================================

Fault containment (``docs/ROBUSTNESS.md``): a raise inside any stage
callable touches only its batch and never kills a thread, and a degraded
answer is always some rung's own prediction (CascadeCNN's
fall-back-to-low-precision semantics).  Optional deadlines
(``deadline_s``) are checked at rung boundaries.  Every submitted
request reaches exactly one terminal state — a :class:`ServeResult` or
an exception — even across :meth:`CascadeServer.close` with work in
flight (:class:`~repro.serve.resilience.ServerClosed`).

Paper anchors: Fig. 1 (cascade structure), Eq. (1)/(1N) timing regime.
With a :mod:`repro.obs` tracer installed the workers emit
``serve.batch`` / ``serve.bnn`` / ``serve.dmu`` / ``serve.<rung>.wait`` /
``serve.<rung>`` / ``serve.<rung>.dmu`` / ``serve.host`` spans plus
``queue.<rung>`` depth gauges,
accepted/rerun/degraded counters and fault/retry/deadline/breaker
events; without one the instrumentation is a no-op.
"""

from __future__ import annotations

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
from ..util.deadline import time_left
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

#: Sentinel distinguishing "use a default CircuitBreaker" from "no breaker".
_DEFAULT = object()


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
        "last_prediction", "enqueue_ts",
    )

    def __init__(self, image: np.ndarray, submit_ts: float, deadline_ts: float | None):
        self.image = image
        self.future: Future[ServeResult] = Future()
        self.submit_ts = submit_ts
        self.deadline_ts = deadline_ts
        self.bnn_prediction = -1
        # The answer of the rung that last forwarded the request — what a
        # fall-back degrades to.  Negative until rung 0 has forwarded it:
        # such a request can only fail typed.
        self.last_prediction = -1
        self.confidence = float("nan")
        # Set whenever the request is put on a rung's inbox; the consuming
        # worker books the wait under "<rung>_queue_wait".
        self.enqueue_ts = submit_ts


class _Inbox:
    """Bounded FIFO feeding one rung; its workers take batches off it.

    The one queue kind of the server, from the front door to the last
    rung.  ``put`` blocks while full only when asked to (``submit``);
    ``try_submit`` and every forward between rungs shed instead.
    ``close`` never blocks: it refuses further puts, wakes every waiter,
    and the consumers drain what is left before ``take`` yields ``None``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item, block: bool = False) -> bool:
        """Append *item*; ``False`` once closed, or when full and not *block*."""
        with self._lock:
            while block and len(self._items) >= self.capacity and not self._closed:
                self._not_full.wait()
            if self._closed or len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._nonempty.notify()
            return True

    def take(self, n: int) -> list | None:
        """Wait for an item, then pop up to *n* in FIFO order; ``None``
        once closed and drained."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                self._nonempty.wait()
            batch = self._items[:n]
            del self._items[:n]
            if self._items:
                self._nonempty.notify()  # the rest is a sibling worker's
            self._not_full.notify(len(batch))
            return batch

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._nonempty.notify_all()
            self._not_full.notify_all()


class _Rung:
    """One row of the rung table: a stage, its inbox, its knob, its names."""

    def __init__(self, hop, name, score_fn, dmu, controller, static_threshold, capacity,
                 batch):
        self.hop = hop
        self.name = name
        #: ``(N, ...) images -> (N, C)`` scores; ``(N,)`` labels on the last rung.
        self.score_fn = score_fn
        #: Accept-vs-forward unit; ``None`` marks the last rung.
        self.dmu = dmu
        #: Adaptive knob of the hop out of this rung (``None`` = static).
        self.controller = controller
        self.static_threshold = static_threshold
        self.inbox = _Inbox(capacity)
        #: Most requests one worker takes off the inbox per call.
        self.batch = batch
        self.threads: list[threading.Thread] = []
        # Metric / span names, built once: the workers format
        # no string per batch.  Rung 0 keeps the paper cascade's names.
        dmu_name = "dmu" if hop == 0 else f"{name}.dmu"
        self.span = f"serve.{name}"
        self.dmu_span = f"serve.{dmu_name}"
        self.wait_span = "serve.batch" if hop == 0 else f"serve.{name}.wait"
        self.dmu_fault = dmu_name
        self.wait_stage = f"{name}_queue_wait"

    @property
    def threshold(self) -> float:
        ctrl = self.controller
        return ctrl.threshold if ctrl is not None else self.static_threshold


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
        and gets its own bounded inbox and worker thread.  ``None`` or
        empty reproduces the paper's 2-stage cascade exactly.
    max_batch_size:
        Most images per BNN call.  The BNN worker takes a batch whenever
        it is free — whatever arrived while the previous one computed —
        so no request waits on a timer.  ``submit`` blocks once
        ``6 * max_batch_size`` images are pending
        (``snapshot().queues["bnn"]``, in images, sampled by the BNN
        worker after each take).
    host_queue_capacity:
        Bound in images of the host's inbox and of each middle rung's.
    num_host_workers:
        Host re-inference worker threads (the paper has one ARM core
        pool; scale up for stronger hosts).
    host_workers:
        Process-parallel host pool size.  When set (or via the
        ``REPRO_HOST_WORKERS`` env var), ``host_predict_fn`` is wrapped
        in a :class:`repro.parallel.ParallelHostRunner` that shards each
        host batch across that many worker *processes*, each shard sent
        over the worker's pipe — the Eq. (1) ``t_fp -> t_fp / N`` lever.  The server
        owns and closes the pool.  Alternatively pass an existing
        ``ParallelHostRunner`` directly as ``host_predict_fn`` (the
        caller keeps ownership); either way its per-worker counters are
        bridged into :attr:`metrics`.  ``None`` with no env var keeps
        the plain serial callable.
    host_batch_size:
        Most images per host (and middle-rung) call.
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
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if num_host_workers < 1:
            raise ValueError("num_host_workers must be >= 1")
        if host_queue_capacity < 1:
            raise ValueError("queue capacities must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
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
        num_hops = 1 + len(stages)

        # -- routing policy: one (static or adaptive) knob per hop.
        knobs: list[AdaptiveThresholdController | None] = [None] * num_hops
        static = [0.0] * num_hops
        if isinstance(controller, LadderThresholdController):
            if controller.num_hops != num_hops:
                raise ValueError(
                    f"LadderThresholdController has {controller.num_hops} knobs "
                    f"but the ladder has {num_hops} hops"
                )
            knobs = list(controller.knobs)
        else:
            hop0 = float(dmu.threshold) if controller is None else controller
            if isinstance(hop0, AdaptiveThresholdController):
                knobs[0] = hop0
            else:
                static[0] = float(hop0)
                if not 0.0 <= static[0] <= 1.0:
                    raise ValueError("threshold must be in [0, 1]")
            for i, stage in enumerate(stages):
                thr = stage.effective_threshold
                if thr is None:
                    raise ValueError(
                        f"ladder stage {stage.name!r} has no threshold"
                    )
                static[i + 1] = float(thr)
        self._clock = clock
        self.metrics = metrics if metrics is not None else ServerMetrics(clock=clock)

        # Optional process-parallel host pool (repro.parallel).
        self._host_runner, self._owns_host_runner = self._init_parallel_host(
            host_predict_fn, host_workers
        )
        if self._host_runner is not None:
            host_predict_fn = self._host_runner
            self._host_runner.set_metrics(self.metrics)

        # -- the rung table: bnn, each ladder stage, host.
        host_batch = max(1, int(host_batch_size))
        rows = [
            ("bnn", bnn_scores_fn, dmu, 6 * max_batch_size, max_batch_size),
            *((s.name, s.scores_fn, s.dmu, host_queue_capacity, host_batch) for s in stages),
            ("host", host_predict_fn, None, host_queue_capacity, host_batch),
        ]
        knobs.append(None)  # no hop leaves the last rung
        static.append(0.0)
        self._rungs: list[_Rung] = []
        for hop, (name, score_fn, rung_dmu, capacity, batch) in enumerate(rows):
            self._rungs.append(_Rung(
                hop, name, score_fn, rung_dmu, knobs[hop], static[hop], capacity, batch
            ))
            self.metrics.set(name, queue_capacity=capacity)
        self.metrics.set_threshold(self.threshold)

        self._deadline_s = deadline_s
        self._retry = retry if retry is not None else RetryPolicy()
        self._retry_rng = random.Random(0xC0FFEE)
        if breaker is _DEFAULT:
            breaker = CircuitBreaker(clock=clock)
        self._breaker: CircuitBreaker | None = breaker
        if self._breaker is not None and self._breaker._on_transition is None:
            self._breaker._on_transition = self._on_breaker_transition

        self._closed = False
        self._close_lock = threading.Lock()
        self._inflight: set[_Request] = set()
        self._inflight_lock = threading.Lock()

        # One worker per rung ("serve-<name>"); the last rung gets the
        # host thread pool ("serve-host-<i>").  The table above is
        # complete, so a worker may route into the next row at once.
        for rung in self._rungs:
            thread_names = (
                [f"serve-{rung.name}-{i}" for i in range(num_host_workers)]
                if rung.dmu is None else [f"serve-{rung.name}"]
            )
            for name in thread_names:
                thread = threading.Thread(
                    target=self._rung_loop, args=(rung,), name=name, daemon=True
                )
                rung.threads.append(thread)
                thread.start()

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
        return self._rungs[:-1][hop].threshold

    @property
    def controllers(self) -> tuple[AdaptiveThresholdController, ...]:
        """The adaptive threshold knobs, in hop order (static hops have none)."""
        return tuple(r.controller for r in self._rungs if r.controller is not None)

    @property
    def num_stages(self) -> int:
        """Rung count including the BNN and the host (2 = paper cascade)."""
        return len(self._rungs)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self._rungs)

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
        return self._enqueue(image, block=True)

    def try_submit(self, image: np.ndarray) -> Future | None:
        """:meth:`submit` without the wait: ``None`` while the front buffer
        is full (nothing is enqueued or counted), else the same future.

        For callers that must never block, such as an event loop; they
        fall back to :meth:`submit` off-thread when refused.
        """
        return self._enqueue(image, block=False)

    def _enqueue(self, image: np.ndarray, block: bool) -> Future | None:
        """Register one request and put it on rung 0's inbox."""
        if self._closed:
            raise ServerClosed("server is closed")
        now = self._clock()
        deadline = now + self._deadline_s if self._deadline_s is not None else None
        request = _Request(np.asarray(image), now, deadline)
        with self._inflight_lock:
            self._inflight.add(request)
        self.metrics.add(submitted=1)
        if self._rungs[0].inbox.put(request, block):
            return request.future
        if self._closed:
            # Closed between our check and the put (or while it blocked):
            # fail the request we registered rather than stranding it.
            if self._claim(request):
                self.metrics.add(failed=1)
                request.future.set_exception(ServerClosed("server is closed"))
            raise ServerClosed("server is closed")
        # Counted above like a submit blocked on backpressure; a refused
        # try never entered, so take it back out.
        with self._inflight_lock:
            self._inflight.discard(request)
        self.metrics.add(submitted=-1)
        return None

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
        :class:`ServerClosed` instead of hanging their waiters.  *timeout*
        bounds the whole call, however many workers hang.  The call is
        idempotent.
        """
        with self._close_lock:
            first = not self._closed
            self._closed = True
        left = time_left(timeout)
        # Drain the table top-down: a rung's inbox closes only once every
        # producer above it has exited (or the deadline passed), so a
        # forward is refused only when its rung could not drain in time —
        # and then it degrades, as a full inbox does.  A repeated or
        # concurrent close() walks the same order.
        for rung in self._rungs:
            rung.inbox.close()
            for thread in rung.threads:
                thread.join(left())
        if first and self._owns_host_runner and self._host_runner is not None:
            self._host_runner.close(left())
        # Anything still unresolved is stuck behind a dead/hung stage (or
        # the joins timed out): fail it now so no caller waits forever.
        with self._inflight_lock:
            stranded = list(self._inflight)
            self._inflight.clear()
        if stranded:
            self.metrics.add(failed=len(stranded))
            for request in stranded:
                request.future.set_exception(ServerClosed("server closed mid-flight"))

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
            self.metrics.add(accepted=1)
        elif source == "degraded":
            self.metrics.add(degraded=1)
        else:
            # Any rung above 0 — "host" or a middle-stage name.  The
            # top-line ``rerun`` counter keeps the 2-stage books
            # invariant; the per-rung split rides in the same add.
            self.metrics.add(source, rerun=1, rerun_stages=1)
        latency = self._clock() - request.submit_ts
        self.metrics.latencies.append(latency)
        prediction, bnn = int(prediction), request.bnn_prediction
        request.future.set_result(
            ServeResult(
                prediction=prediction,
                # Nothing forwarded it yet: this answer *is* rung 0's.
                bnn_prediction=prediction if bnn < 0 else bnn,
                confidence=float(request.confidence),
                source=source,
                latency_seconds=latency,
            )
        )

    def _fail(self, request: _Request, exc: BaseException) -> None:
        if not self._claim(request):
            return
        self.metrics.add(failed=1)
        request.future.set_exception(exc)

    def _past_deadline(self, request: _Request) -> bool:
        return request.deadline_ts is not None and self._clock() > request.deadline_ts

    def _fall_back(self, request: _Request, exc: BaseException) -> None:
        """Terminal state of a request its rung cannot serve.

        A request that already carries an answer degrades to it — the
        fallback equals a cheaper rung's prediction (CascadeCNN's
        guarantee); one that does not (no rung has forwarded it yet)
        fails with the typed *exc*.
        """
        if request.last_prediction >= 0:
            self._resolve(request, request.last_prediction, "degraded")
        else:
            self._fail(request, exc)

    # -- internal: the one worker loop ---------------------------------------
    def _rung_loop(self, rung: _Rung) -> None:
        while True:
            requests = self._take(rung)
            if requests is None:
                return
            try:
                self._run_rung(rung, requests)
            except Exception as exc:  # containment: never kill the worker
                for request in requests:
                    self._fall_back(request, StageFailure(rung.name, exc))

    def _take(self, rung: _Rung) -> list[_Request] | None:
        """Next batch for *rung*; ``None`` once its inbox is closed and drained."""
        requests = rung.inbox.take(rung.batch)
        if requests is not None:
            depth = len(rung.inbox)
            self.metrics.set(rung.name, queue_depth=depth)
            tracer = obs.active()
            if tracer is not None:
                # Oldest request's wait, moved onto the tracer's clock.
                end = tracer.now()
                start = end - (self._clock() - requests[0].enqueue_ts)
                tracer.add_span(rung.wait_span, start, end, items=len(requests),
                                pending=depth)
        return requests

    def _run_rung(self, rung: _Rung, requests: list[_Request]) -> None:
        """Gate → score → DMU → resolve | forward | degrade, for any rung."""
        last = rung.dmu is None  # nothing to forward to: answers all it scores
        live: list[_Request] = []
        for request in requests:
            if self._past_deadline(request):
                self.metrics.add(deadline_missed=1)
                self._fall_back(
                    request, DeadlineExceeded("deadline passed before BNN stage")
                )
            else:
                live.append(request)
        if not live:
            return
        if last:
            self.metrics.add(rung.name, stage_arrived=len(live))
        # Queue-wait vs pure-inference split: the stage timer below covers
        # only the scoring call, so time parked in the inbox is booked
        # separately or throughput reports blur dispatch latency into
        # compute cost.
        now = self._clock()
        self.metrics.observe_stage(
            rung.wait_stage, sum(now - r.enqueue_ts for r in live), count=len(live)
        )
        self._score(rung, live)

    def _score(self, rung: _Rung, live: list[_Request]) -> None:
        """Score one batch on *rung*, then resolve | forward | degrade it."""
        last = rung.dmu is None
        retries = 0
        while True:
            start = self._clock()
            try:
                with obs.trace_span(rung.span, batch=len(live)):
                    images = np.stack([r.image for r in live])
                    out = np.asarray(rung.score_fn(images))
                    # Class scores below the last rung, labels on it.
                    predictions = out.reshape(-1) if last else out.argmax(axis=1)
                if len(predictions) != len(live):
                    raise ValueError(
                        f"{rung.name} returned {len(predictions)} predictions "
                        f"for {len(live)} images"
                    )
                break
            except Exception as exc:
                groups: dict[tuple, list[_Request]] = {}
                for request in live:
                    groups.setdefault(np.shape(request.image), []).append(request)
                if len(groups) > 1:
                    # Mixed image shapes (a wire request may carry any) fail
                    # the stack: score each shape group alone, so only the
                    # odd images fail and their batch-mates are answered.
                    for group in groups.values():
                        self._score(rung, group)
                    return
                self.metrics.add(rung.name, faults=1)
                if last:
                    # Only the last rung retries and feeds the breaker: the
                    # rungs below it have a cheaper fallback one hop away.
                    tripped = False
                    if self._breaker is not None:
                        self._breaker.record_failure()
                        tripped = self._breaker.state == CircuitBreaker.OPEN
                    if retries < self._retry.max_retries and not (tripped or self._closed):
                        self.metrics.add(retries=1)
                        time.sleep(self._retry.backoff_s(retries, self._retry_rng))
                        retries += 1
                        continue
                # Stage down (retries exhausted or pointless): every request
                # falls back to the answer it arrived with, if it has one.
                for request in live:
                    self._fall_back(request, StageFailure(rung.name, exc))
                return

        if last:
            if self._breaker is not None:
                self._breaker.record_success()
            self.metrics.observe_stage(rung.name, self._clock() - start, count=len(live))
            for request, prediction in zip(live, predictions):
                self._resolve(request, prediction, rung.name)
            return

        try:
            with obs.trace_span(rung.dmu_span, batch=len(live)):
                confidence = np.atleast_1d(rung.dmu.confidence(out))
                accept = confidence >= rung.threshold
        except Exception:
            accept = None
        # Booked on the DMU-fault path too: the scoring compute happened.
        self.metrics.observe_stage(rung.name, self._clock() - start, count=len(live))
        if accept is None:
            # DMU down but the rung answered: CascadeCNN fall-back — keep
            # this rung's answer as a degraded result (Eq. (2) floor).
            self.metrics.add(rung.dmu_fault, faults=1)
            for request, answer in zip(live, predictions):
                self._resolve(request, answer, "degraded")
            return

        accepted, forwarded, degraded = self._route(
            rung, live, predictions.tolist(), confidence, accept
        )
        self.metrics.add(rung.name, stage_arrived=len(live), stage_forwarded=forwarded)
        ctrl = rung.controller
        if ctrl is not None:
            new_threshold = ctrl.observe(
                total=len(live), rerun=len(live) - accepted, degraded=degraded
            )
            if rung.hop == 0:
                # snapshot().threshold tracks the public `threshold` (hop 0).
                self.metrics.set_threshold(new_threshold)
                obs.gauge("serve.threshold", new_threshold)

    def _route(
        self, rung: _Rung, live: list[_Request], answers: list[int], confidence, accept
    ) -> tuple[int, int, int]:
        """Resolve accepted requests, forward the residue one rung up.

        A request takes this rung's answer with it only when it leaves
        for the next rung, so until then every fall-back — including a
        crash in this worker — still means the previous rung's answer.
        The breaker gates only the hop *into* the last rung: the rungs
        below it have their own fallback and must not consume half-open
        probes.  Returns ``(accepted, forwarded, degraded)``.
        """
        nxt = self._rungs[rung.hop + 1]
        guarded = nxt.dmu is None
        # Lazy so a fully-accepted batch never consumes a half-open probe.
        skip_next: bool | None = None
        accepted = forwarded = degraded = 0
        for i, request in enumerate(live):
            request.confidence = float(confidence[i])
            if accept[i]:
                self._resolve(request, answers[i], rung.name)
                accepted += 1
                continue
            if self._past_deadline(request):
                self.metrics.add(deadline_missed=1)
            else:
                if guarded and skip_next is None:
                    skip_next = self._breaker is not None and not self._breaker.allow()
                if not skip_next:
                    if request.last_prediction < 0:
                        request.bnn_prediction = answers[i]
                    request.last_prediction = answers[i]
                    request.enqueue_ts = self._clock()
                    if nxt.inbox.put(request):
                        forwarded += 1
                        self.metrics.set(nxt.name, queue_depth=len(nxt.inbox))
                        continue
            # Late, breaker open ("accept current result, skip host"), or
            # the next rung saturated or closed: an answer exists at this
            # precision, so degrade to it instead of erroring or stalling
            # the fast stages (Eq. (1N)'s slow-rung-bound regime).
            self._resolve(request, answers[i], "degraded")
            degraded += 1
        return accepted, forwarded, degraded

    # -- internal: breaker bridge --------------------------------------------
    def _on_breaker_transition(self, state: str) -> None:
        self.metrics.set_breaker_state(state)
        if obs.enabled():
            obs.instant("serve.breaker", state=state)
