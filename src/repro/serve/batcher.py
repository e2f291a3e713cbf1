"""Micro-batcher: coalesce request-at-a-time traffic into BNN batches.

The FPGA-style BNN path is efficient only on batches (the paper streams
batches through the fabric; per-image dispatch would waste it), but a
serving front door receives one image per request.  The batcher holds
requests in one pending buffer and the BNN worker *pulls* a batch from
it with :meth:`MicroBatcher.take` whenever it is free — so a batch is
cut at the last possible moment and is whatever arrived while the
previous batch was computing, like FINN's streaming engine.  A cut is
due when the buffer is *full* (``max_batch_size``) or *old* (the oldest
pending request has waited ``max_delay_s``) — the classic
size-or-deadline rule.  With the default ``max_delay_s = 0`` an idle
consumer never waits on a timer; under load the oldest request's age
accrues during the previous batch's compute, so batches form for free.

``submit`` applies front-door backpressure: when the pending buffer is at
capacity it blocks until the consumer takes a batch, so an open-loop
client can never grow memory without bound.  ``try_submit`` is the
non-blocking twin for callers that must not block (an event loop): it
refuses instead of waiting.

Paper anchor: the front door of Fig. 1's cascade — the batch dimension
is what the paper's FPGA streaming (and Eq. (5)'s per-batch overheads)
assume exists.  With a :mod:`repro.obs` tracer installed, each cut
emits a ``serve.batch`` span covering oldest-pending-item -> cut (the
batching latency cost), a pending-depth gauge and flush counters.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Generic, TypeVar

from .. import obs

__all__ = ["MicroBatcher"]

T = TypeVar("T")


class MicroBatcher(Generic[T]):
    """Size/deadline-bounded pending buffer whose consumer pulls batches.

    Parameters
    ----------
    max_batch_size:
        A cut is due as soon as this many items are pending, and no cut
        returns more.
    max_delay_s:
        A cut is due once the *oldest* pending item has waited this
        long, regardless of batch size.  ``0`` (default) makes any
        pending item due at once.  The remainder of a full cut restarts
        its age at the cut.
    max_pending:
        Capacity of the pending buffer; ``submit`` blocks when reached.
        Defaults to ``6 * max_batch_size``.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        max_delay_s: float = 0.0,
        max_pending: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.max_pending = int(max_pending) if max_pending is not None else 6 * max_batch_size
        if self.max_pending < self.max_batch_size:
            raise ValueError("max_pending must be >= max_batch_size")
        self._clock = clock
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_room = threading.Condition(self._lock)
        self._pending: list[T] = []
        self._oldest_ts: float | None = None
        #: Same instant as ``_oldest_ts`` but on the tracer's clock, so the
        #: "serve.batch" span is consistent with spans the tracer times.
        self._oldest_trace_ts: float | None = None
        self._closed = False

    # -- producer side ------------------------------------------------------
    def submit(self, item: T) -> None:
        """Enqueue one item; blocks while the pending buffer is full."""
        with self._lock:
            while len(self._pending) >= self.max_pending and not self._closed:
                self._has_room.wait()
            self._append(item)

    def try_submit(self, item: T) -> bool:
        """Enqueue one item unless the pending buffer is full; never blocks.

        Returns ``False`` (and enqueues nothing) where :meth:`submit`
        would block.
        """
        with self._lock:
            if len(self._pending) >= self.max_pending and not self._closed:
                return False
            self._append(item)
            return True

    def _append(self, item: T) -> None:
        """Enqueue under the lock (the caller has made room)."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        if not self._pending:
            self._oldest_ts = self._clock()
            tracer = obs.active()
            self._oldest_trace_ts = tracer.now() if tracer is not None else None
        self._pending.append(item)
        self._has_work.notify()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- consumer side ------------------------------------------------------
    def take(self) -> list[T] | None:
        """Block until a cut is due; return up to ``max_batch_size`` items.

        Items come out in submit order.  Returns ``None`` once the
        batcher is closed and drained.
        """
        with self._lock:
            while True:
                if self._pending:
                    if len(self._pending) >= self.max_batch_size or self._closed:
                        break
                    remaining = self._oldest_ts + self.max_delay_s - self._clock()
                    if remaining <= 0:
                        break
                    self._has_work.wait(timeout=remaining)
                elif self._closed:
                    return None
                else:
                    self._has_work.wait()
            batch = self._pending[: self.max_batch_size]
            del self._pending[: self.max_batch_size]
            tracer = obs.active()
            if tracer is not None:
                now = tracer.now()
                start = self._oldest_trace_ts if self._oldest_trace_ts is not None else now
                tracer.add_span("serve.batch", start, now, items=len(batch),
                                pending=len(self._pending))
                tracer.gauge("batcher.pending", len(self._pending))
                tracer.count("batcher.flushed", len(batch))
                self._oldest_trace_ts = now if self._pending else None
            self._oldest_ts = self._clock() if self._pending else None
            self._has_room.notify_all()
            return batch

    def close(self) -> None:
        """Refuse new items; ``take`` drains what is pending, then yields ``None``."""
        with self._lock:
            self._closed = True
            self._has_work.notify_all()
            self._has_room.notify_all()
