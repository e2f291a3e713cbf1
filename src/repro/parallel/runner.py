"""Process-parallel host inference: shard batches across warm workers.

:class:`ParallelHostRunner` is a drop-in replacement for the host
callable of :class:`repro.serve.CascadeServer`: it is a plain
``(N, ...) images -> (N,) labels`` callable, but internally it shards
each batch across ``n_workers`` *processes* — side-stepping the GIL that
serializes the server's ``serve-host-*`` threads.  Each worker is a
:class:`~repro.parallel.child.Child`: a shard goes out as a ``run``
request with its pixels as raw bytes (never a pickle), and the logits or
labels come back in the reply (the message table is in
:mod:`repro.parallel.child`).

Two modes share the machinery:

* **model mode** (``model=Sequential``): each worker compiles the
  network into a :class:`repro.nn.InferenceEngine` once at spawn and
  serves logits.  Shards are cut on the engine's micro-batch boundaries,
  so logits are **bit-identical to the serial engine for any worker
  count** (see the engine's determinism contract).
* **callable mode** (``predict_fn=...``): each worker runs an arbitrary
  host callable on its shard and returns int64 labels.  Used by
  ``serve-bench`` to shard its synthetic host stage, and by the server
  to wrap whatever host callable it was given (``host_workers=N``).

Fault containment and lifecycle
-------------------------------
An exception *inside* a worker's compute fails only that worker's shard:
:meth:`run_sharded` marks those images with a
:class:`~repro.serve.resilience.StageFailure` and every other shard still
resolves.  A *dead* worker (crash, ``kill -9``) is detected at collect
time, its shard fails the same way, and the pool **crash-replaces** the
worker — fresh process, fresh pipe, weights re-broadcast — before the
next call, so the pool self-heals.  The strict ``__call__`` facade used
by the server raises the first ``StageFailure`` for the whole batch,
which plugs into the PR 4 retry-with-backoff / degrade-to-BNN contract
unchanged.

Observability: with a :mod:`repro.obs` tracer installed the runner emits
``parallel.shard`` spans (dispatch -> response, per worker),
re-materialized ``parallel.worker.infer`` spans from worker-reported
durations, a ``parallel.inflight`` gauge and ``parallel.images`` /
``parallel.shard_failures`` counters.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..serve.resilience import StageFailure
from ..util.deadline import time_left
from .child import Child

__all__ = [
    "ParallelHostRunner",
    "ShardOutcome",
    "ShardReport",
    "default_start_method",
    "resolve_host_workers",
]


def resolve_host_workers(explicit: int | None = None) -> int | None:
    """Worker count from an explicit value or ``REPRO_HOST_WORKERS``.

    Returns ``None`` when parallel host inference is not requested.
    """
    if explicit is not None:
        return int(explicit) if explicit > 0 else None
    env = os.environ.get("REPRO_HOST_WORKERS", "").strip()
    if env:
        value = int(env)
        return value if value > 0 else None
    return None


def default_start_method() -> str:
    """``REPRO_MP_START`` if set, else ``fork`` where the platform has it.

    The one rule for every child this package starts — host pool workers
    here, cascade replicas in :mod:`repro.net.router`.
    """
    env = os.environ.get("REPRO_MP_START", "").strip()
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ShardOutcome:
    """Result of one worker's shard within one batch."""

    __slots__ = ("worker", "start", "stop", "values", "error", "infer_seconds")

    def __init__(self, worker, start, stop, values=None, error=None, infer_seconds=0.0):
        self.worker = worker
        self.start = start
        self.stop = stop
        self.values = values          # logits (model mode) or labels (callable mode)
        self.error = error            # StageFailure | None
        self.infer_seconds = infer_seconds

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self.ok else f"error={self.error!r}"
        return f"ShardOutcome(worker={self.worker}, [{self.start}:{self.stop}], {state})"


class ShardReport:
    """All shard outcomes of one :meth:`ParallelHostRunner.run_sharded` call."""

    __slots__ = ("n", "outcomes")

    def __init__(self, n: int, outcomes: list[ShardOutcome]):
        self.n = n
        self.outcomes = outcomes

    @property
    def errors(self) -> list[ShardOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.errors

    def failed_indices(self) -> np.ndarray:
        """Global indices of images whose shard failed."""
        bad = [np.arange(o.start, o.stop) for o in self.errors]
        return np.concatenate(bad) if bad else np.empty(0, dtype=np.int64)

    def assemble(self) -> np.ndarray:
        """Stitch shard values back into batch order (all shards must be ok)."""
        first_err = next((o.error for o in self.outcomes if not o.ok), None)
        if first_err is not None:
            raise first_err
        parts = [o.values for o in sorted(self.outcomes, key=lambda o: o.start)]
        return np.concatenate(parts, axis=0)


def _shard_handler(worker_id: int, payload):
    """Build a worker's handler in the child (see :class:`repro.parallel.child.Child`).

    Model mode compiles the :class:`repro.nn.InferenceEngine` here,
    before the worker reports ready, so the first real batch never pays
    compilation.  A ``run`` answers ``(values, seconds)``: logits (model
    mode) or int64 labels (callable mode), and the compute time.
    """
    mode, target, options = payload
    if mode == "model":
        compute = target.compile_inference(
            dtype=np.dtype(options["dtype"]), micro_batch=options["micro_batch"]
        ).predict_scores
    else:
        def compute(images: np.ndarray) -> np.ndarray:
            return np.asarray(target(images)).reshape(len(images)).astype(np.int64)

    def run(kind: str, array: np.ndarray):
        n = len(array)
        start = time.perf_counter()
        with obs.trace_span("parallel.worker.infer", worker=worker_id, images=n):
            values = np.asarray(compute(array))
        if values.shape[0] != n:
            raise ValueError(f"compute returned {values.shape[0]} results for {n} images")
        return values, time.perf_counter() - start

    return run, None, None


@dataclass(eq=False)
class _Worker:
    index: int
    child: Child
    images: int = 0
    infer_seconds: float = 0.0
    replacements: int = 0


class ParallelHostRunner:
    """Multiprocess host-inference pool (see module docs).

    Parameters
    ----------
    model:
        A :class:`repro.nn.Sequential` host network (model mode).
    predict_fn:
        An arbitrary ``images -> labels`` host callable (callable mode).
        Exactly one of *model* / *predict_fn* must be given.  Under the
        default ``fork`` start method closures work; ``spawn`` requires
        a picklable callable.
    n_workers:
        Pool size; defaults to ``REPRO_HOST_WORKERS`` or ``os.cpu_count()``.
    dtype, micro_batch:
        Engine precision and micro-batch (model mode; see
        :class:`repro.nn.InferenceEngine`).  float32 is the paper host's
        inference precision.
    start_method:
        ``fork`` (default on POSIX; zero-copy weight broadcast) or
        ``spawn`` (portable; weights pickled once).  ``REPRO_MP_START``
        overrides the default.
    shard_timeout_s:
        Per-shard collect timeout.  ``None`` (default) waits for the
        response or worker death; set it to bound hung-worker stalls —
        a timed-out worker is killed and crash-replaced.  That kill is
        also what keeps dispatch safe: a send blocks until the
        worker reads a shard larger than the pipe buffer, and every
        worker that survives a call is back in its receive loop.
    spawn_timeout_s:
        Deadline for a worker to report ready at (re)spawn.
    """

    def __init__(
        self,
        model=None,
        predict_fn=None,
        n_workers: int | None = None,
        dtype=np.float32,
        micro_batch: int = 16,
        start_method: str | None = None,
        shard_timeout_s: float | None = None,
        spawn_timeout_s: float = 60.0,
    ):
        if (model is None) == (predict_fn is None):
            raise ValueError("pass exactly one of model= or predict_fn=")
        resolved = resolve_host_workers(n_workers)
        self.n_workers = resolved if resolved is not None else max(1, os.cpu_count() or 1)
        self.mode = "model" if model is not None else "callable"
        self.dtype = np.dtype(dtype)
        self.micro_batch = int(micro_batch)
        if self.micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        self.start_method = start_method or default_start_method()
        self.shard_timeout_s = shard_timeout_s
        self.spawn_timeout_s = spawn_timeout_s
        self._model = model
        if self.mode == "model":
            self._payload = ("model", model, {"dtype": self.dtype.str, "micro_batch": self.micro_batch})
        else:
            self._payload = ("callable", predict_fn, {})
        self._lock = threading.Lock()
        self._metrics = None
        self._closed = False
        self._workers: list[_Worker] = []
        # Worker indices are never reused across resize(): per-worker
        # metrics/stats keys stay unambiguous for the whole pool lifetime.
        self._next_index = 0
        try:
            self.resize(self.n_workers)
        except Exception:
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, index: int) -> Child:
        return Child(
            functools.partial(_shard_handler, index, self._payload),
            name=f"repro-host-{index}",
            start_method=self.start_method,
            spawn_timeout_s=self.spawn_timeout_s,
            error=lambda detail: RuntimeError(f"parallel host worker {index} failed: {detail}"),
            reader_thread=False,  # run_sharded waits on every shard it sends
        )

    def _respawn(self, worker: _Worker) -> None:
        """Crash-replace: fresh process + fresh pipe, weights re-broadcast."""
        self._require_open()
        worker.child.kill()
        worker.replacements += 1
        worker.child = self._spawn(worker.index)
        obs.count("parallel.worker_replacements", 1)

    def resize(self, n: int) -> int:
        """Grow or shrink the pool to *n* workers; returns the new size.

        Shrinking stops and reaps the highest-numbered workers; growing
        spawns fresh processes.  The pool lock serializes this against
        :meth:`run_sharded`, so a resize only ever lands *between*
        batches — shards are re-cut on the next call and, in model mode,
        stay on micro-batch boundaries, preserving bit-identity across
        the resize.  Crash-safe: ``n_workers`` is re-derived from the
        live worker list even if a spawn fails partway.
        """
        n = int(n)
        if n < 1:
            raise ValueError("n_workers must be >= 1")
        with self._lock:
            self._require_open()
            if n == len(self._workers):
                return self.n_workers
            try:
                while len(self._workers) > n:
                    self._workers.pop().child.close(timeout=5.0)
                while len(self._workers) < n:
                    self._workers.append(_Worker(self._next_index, self._spawn(self._next_index)))
                    self._next_index += 1
            finally:
                self.n_workers = len(self._workers)
                if self._metrics is not None:
                    self._metrics.set(host_parallel_workers=self.n_workers)
            obs.gauge("parallel.pool_size", self.n_workers)
            return self.n_workers

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop and reap all workers (idempotent).

        Does not wait for a running call first: closing its workers
        fails that call's pending shards, so a call stuck on a hung
        worker returns :class:`StageFailure` instead of blocking close
        forever.  *timeout* bounds the whole call, however many workers
        hang.
        """
        if self._closed:
            return
        self._closed = True
        left = time_left(timeout)  # one deadline across both passes
        self._close_workers(left)
        with self._lock:  # the running call is done: reap what it respawned
            self._close_workers(left)

    def _close_workers(self, left) -> None:
        children = [w.child for w in self._workers]
        for child in children:
            child.stop()
        for child in children:
            child.close(left())

    def __enter__(self) -> "ParallelHostRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _shards(self, n: int) -> list[tuple[int, int]]:
        """Contiguous (start, stop) per worker, cut on micro-batch boundaries.

        Model mode splits whole micro-batches so every chunk a worker
        processes is exactly a chunk the serial engine would process —
        the bit-identity invariant.  Callable mode splits plain images.
        """
        unit = self.micro_batch if self.mode == "model" else 1
        n_units = math.ceil(n / unit)
        per, extra = divmod(n_units, self.n_workers)
        shards = []
        unit_start = 0
        for i in range(self.n_workers):
            take = per + (1 if i < extra else 0)
            if take == 0:
                continue
            start = unit_start * unit
            stop = min(n, (unit_start + take) * unit)
            shards.append((start, stop))
            unit_start += take
        return shards

    # -- health ---------------------------------------------------------------
    def ping(self, timeout: float = 5.0) -> list[bool]:
        """Round-trip health check; ``True`` per worker that answered."""
        with self._lock:
            self._require_open()
            return [w.child.ping(timeout) for w in self._workers]

    def ensure_healthy(self, timeout: float = 5.0) -> int:
        """Ping all workers, crash-replace the dead; returns replacements."""
        alive = self.ping(timeout=timeout)
        replaced = 0
        with self._lock:
            self._require_open()
            for w, ok in zip(self._workers, alive):
                if not ok:
                    self._respawn(w)
                    replaced += 1
        return replaced

    def worker_stats(self) -> list[dict]:
        """Per-worker counters (images served, inference seconds, restarts)."""
        return [
            {
                "worker": w.index,
                "pid": w.child.pid,
                "alive": w.child.alive(),
                "images": w.images,
                "infer_seconds": w.infer_seconds,
                "replacements": w.replacements,
            }
            for w in self._workers
        ]

    def set_metrics(self, metrics) -> None:
        """Attach a :class:`repro.serve.metrics.ServerMetrics` bridge."""
        self._metrics = metrics
        if metrics is not None:
            metrics.set(host_parallel_workers=self.n_workers)

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("ParallelHostRunner is closed")

    # -- inference ------------------------------------------------------------
    def run_sharded(self, images: np.ndarray) -> ShardReport:
        """Shard one batch across the pool; per-shard failure containment."""
        images = np.asarray(images)
        n = images.shape[0]
        with self._lock:
            self._require_open()
            if n == 0:
                return ShardReport(0, [])
            # Model mode casts to the engine dtype here, once per shard.
            dtype = self.dtype if self.mode == "model" else images.dtype
            if dtype.hasobject:
                raise TypeError("object arrays cannot cross the worker pipe")
            tracer = obs.active()
            pending = []  # (worker, start, stop, future or dispatch error, t_dispatch)
            for (start, stop), worker in zip(self._shards(n), self._workers):
                try:
                    if not worker.child.alive():
                        self._respawn(worker)
                    shard = np.ascontiguousarray(images[start:stop], dtype=dtype)
                    sent = worker.child.request("run", array=shard)
                except Exception as exc:
                    sent = exc
                pending.append((worker, start, stop, sent, None if tracer is None else tracer.now()))
            obs.gauge("parallel.inflight", len(pending))

            outcomes = [self._collect(*entry, tracer) for entry in pending]
            # Crash-replace *now* so the pool is healthy for the next call.
            for worker, *_ in pending:
                if not worker.child.alive():
                    try:
                        self._respawn(worker)
                    except Exception:  # replacement failed or pool closed; retried next call
                        pass

            report = ShardReport(n, outcomes)
            obs.count("parallel.images", sum(o.stop - o.start for o in outcomes if o.ok))
            if report.errors:
                obs.count("parallel.shard_failures", len(report.errors))
            obs.gauge("parallel.inflight", 0)
            return report

    def _collect(self, worker, start, stop, sent, t0, tracer) -> ShardOutcome:
        try:
            if isinstance(sent, BaseException):
                raise sent
            values, seconds = worker.child.result(sent, timeout=self.shard_timeout_s)
        except FutureTimeout:  # hung: kill so the replacement starts clean
            worker.child.kill()
            return ShardOutcome(
                worker.index, start, stop,
                error=StageFailure("host", RuntimeError(
                    f"parallel host worker {worker.index} hung (timeout)")),
            )
        except Exception as exc:
            return ShardOutcome(worker.index, start, stop, error=StageFailure("host", exc))
        count = stop - start
        worker.images += count
        worker.infer_seconds += seconds
        if tracer is not None:
            end = tracer.now()
            tracer.add_span("parallel.shard", t0, end,
                            category="parallel", worker=worker.index, images=count)
            # Re-materialized from the worker's reported duration (its
            # clock is unsynchronized; anchor on receipt).
            tracer.add_span("parallel.worker.infer", end - seconds, end,
                            category="parallel", worker=worker.index, images=count)
        if self._metrics is not None:
            self._metrics.add(
                worker.index, host_worker_images=count, host_worker_seconds=seconds
            )
        return ShardOutcome(worker.index, start, stop, values=values, infer_seconds=seconds)

    def predict_scores(self, images: np.ndarray) -> np.ndarray:
        """Logits ``(N, C)`` — model mode only; raises on any shard failure."""
        if self.mode != "model":
            raise RuntimeError("predict_scores requires model mode")
        images = np.asarray(images)
        report = self.run_sharded(images)
        if report.n == 0:
            resp_shape = tuple(self._model.output_shape(images.shape[1:]))
            return np.empty((0,) + resp_shape, self.dtype)
        return report.assemble()

    def predict_classes(self, images: np.ndarray) -> np.ndarray:
        """Labels ``(N,)`` — the strict host-callable facade.

        Any shard failure raises its :class:`StageFailure` (after every
        other shard finished and dead workers were replaced), which is
        exactly the whole-batch error contract the
        :class:`~repro.serve.server.CascadeServer` retry path expects.
        """
        images = np.asarray(images)
        if images.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        report = self.run_sharded(images)
        values = report.assemble()  # raises the first StageFailure, if any
        if self.mode == "model":
            return values.argmax(axis=1)
        return values

    __call__ = predict_classes
