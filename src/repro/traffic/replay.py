"""Open-loop trace replay against any ``submit() -> Future`` backend.

``serve-bench``'s client fleet is *closed-loop*: a client submits, then
paces itself, so when the server slows down the offered load politely
slows with it — queueing collapse is unobservable by construction.
:class:`TraceReplayer` is the open-loop opposite: it walks an
:class:`~repro.traffic.trace.ArrivalTrace` on its own clock, submitting
each event at its scheduled instant *without ever waiting on a
response*.  If the server falls behind, requests pile into its queues
exactly as a real camera feed would pile them into a socket buffer.

The backend is anything with the cascade's front-door shape —
``submit(payload) -> concurrent.futures.Future`` — which covers the
in-process :class:`repro.serve.CascadeServer`, the socket
:class:`repro.net.NetClient`, and the mock backends ``tests/traffic``
replays against.  Payloads are bound at replay time from a bank indexed
by each event's ``payload_ref``.

The clock is injectable (``clock``/``sleep``) and the schedule can be
compressed via ``time_scale``, so CI replays a "10 second" trace in a
fraction of a second without touching the trace file — determinism of
the *submission order* is preserved either way, because order is defined
by the trace, not by timing.

One intentional wrinkle: ``CascadeServer.submit`` *blocks* while the
BNN's inbox is full (backpressure).  The replayer does not fight this —
the block simply makes later submissions late, and the per-event
``lag_seconds`` it records is exactly the schedule slip an SLO report
needs to see.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Sequence

from .. import obs
from .trace import ArrivalTrace

__all__ = ["ReplayedRequest", "ReplayResult", "TraceReplayer"]


class ReplayedRequest:
    """One submitted (or refused) arrival, with its schedule bookkeeping."""

    __slots__ = ("index", "payload_ref", "scheduled_s", "submitted_s", "future", "error")

    def __init__(self, index, payload_ref, scheduled_s, submitted_s, future, error):
        self.index = index
        self.payload_ref = payload_ref
        self.scheduled_s = scheduled_s      # trace offset, after time scaling
        self.submitted_s = submitted_s      # actual submit instant (clock-relative)
        self.future: Future | None = future
        self.error: BaseException | None = error

    @property
    def accepted(self) -> bool:
        """True when the backend accepted the submission."""
        return self.future is not None

    @property
    def lag_seconds(self) -> float:
        """Schedule slip: how late the submission left the replayer."""
        return self.submitted_s - self.scheduled_s


class ReplayResult:
    """Everything one :meth:`TraceReplayer.replay` run produced."""

    def __init__(self, trace: ArrivalTrace, requests: list[ReplayedRequest],
                 wall_seconds: float, time_scale: float):
        self.trace = trace
        self.requests = requests
        self.wall_seconds = wall_seconds
        self.time_scale = time_scale

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def accepted(self) -> int:
        return sum(1 for r in self.requests if r.accepted)

    @property
    def refused(self) -> int:
        """Submissions the backend rejected with an exception at the door."""
        return self.attempted - self.accepted

    @property
    def futures(self) -> list[Future]:
        return [r.future for r in self.requests if r.future is not None]

    @property
    def max_lag_seconds(self) -> float:
        return max((r.lag_seconds for r in self.requests), default=0.0)

    def settle(self, timeout: float | None = None) -> tuple[list, list]:
        """Wait for every accepted future; returns ``(results, errors)``.

        Requests refused at the door are included in *errors* — every
        attempted arrival lands in exactly one of the two lists, which is
        what lets chaos-under-load tests assert terminal coverage.
        """
        results, errors = [], []
        for request in self.requests:
            if request.future is None:
                errors.append(request.error)
                continue
            try:
                results.append(request.future.result(timeout=timeout))
            except Exception as exc:
                errors.append(exc)
        return results, errors


class TraceReplayer:
    """Replay :class:`ArrivalTrace` s open-loop against a submit backend.

    Parameters
    ----------
    submit:
        ``payload -> Future`` front door (e.g. ``server.submit`` or
        ``client.submit``).  Exceptions it raises refuse that single
        arrival (recorded, counted) without stopping the replay — except
        for backend-closed errors, which end the run since every later
        submission would fail identically.
    payloads:
        Payload bank indexed by each event's ``payload_ref``.
    time_scale:
        Playback speed multiplier: 10.0 replays a 10 s trace in ~1 s.
    clock / sleep:
        Injectable time sources (tests replay on a fake clock and a
        no-op sleep; the submission count and order are unaffected).
    stop_on:
        Exception types that abort the replay (default:
        ``RuntimeError`` — which covers ``ServerClosed`` and a closed
        ``NetClient`` — remaining events are *not* recorded).
    """

    def __init__(
        self,
        submit: Callable[[object], Future],
        payloads: Sequence,
        time_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        stop_on: tuple[type[BaseException], ...] = (RuntimeError,),
    ):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if len(payloads) == 0:
            raise ValueError("payload bank must not be empty")
        self._submit = submit
        self._payloads = payloads
        self._time_scale = float(time_scale)
        self._clock = clock
        self._sleep = sleep
        self._stop_on = stop_on
        self._lock = threading.Lock()
        self._attempted = 0
        self._accepted = 0

    @property
    def attempted(self) -> int:
        """Submissions started so far (thread-safe live counter)."""
        with self._lock:
            return self._attempted

    @property
    def accepted(self) -> int:
        """Submissions the backend accepted so far (thread-safe)."""
        with self._lock:
            return self._accepted

    def replay(self, trace: ArrivalTrace) -> ReplayResult:
        """Submit every event at its (scaled) offset; never await responses."""
        bank_size = len(self._payloads)
        overflow = trace.max_payload_ref()
        if overflow >= bank_size:
            raise ValueError(
                f"trace references payload {overflow} but the bank holds "
                f"only {bank_size} payloads"
            )
        start = self._clock()
        requests: list[ReplayedRequest] = []
        for index, event in enumerate(trace):
            scheduled = event.t_offset / self._time_scale
            wait = start + scheduled - self._clock()
            if wait > 0:
                self._sleep(wait)
            payload = self._payloads[event.payload_ref]
            with self._lock:
                self._attempted += 1
            submitted_s = self._clock() - start
            future: Future | None = None
            error: BaseException | None = None
            try:
                future = self._submit(payload)
                with self._lock:
                    self._accepted += 1
            except Exception as exc:
                error = exc
                obs.count("traffic.refused", 1)
                if isinstance(exc, self._stop_on):
                    requests.append(ReplayedRequest(
                        index, event.payload_ref, scheduled, submitted_s, None, exc
                    ))
                    break
            requests.append(ReplayedRequest(
                index, event.payload_ref, scheduled, submitted_s, future, error
            ))
        wall = self._clock() - start
        obs.count("traffic.submitted", sum(1 for r in requests if r.accepted))
        return ReplayResult(trace, requests, wall, self._time_scale)

    def replay_in_thread(
        self, trace: ArrivalTrace, name: str = "trace-replay"
    ) -> "ReplayHandle":
        """Run :meth:`replay` on a daemon thread; join via the handle."""
        handle = ReplayHandle()

        def run() -> None:
            try:
                handle._result = self.replay(trace)
            except BaseException as exc:  # surfaced on join(), never swallowed
                handle._error = exc

        handle._thread = threading.Thread(target=run, name=name, daemon=True)
        handle._thread.start()
        return handle


class ReplayHandle:
    """Join handle of a background replay (see ``replay_in_thread``)."""

    def __init__(self):
        self._thread: threading.Thread | None = None
        self._result: ReplayResult | None = None
        self._error: BaseException | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def join(self, timeout: float | None = None) -> ReplayResult:
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError("trace replay still running")
        if self._error is not None:
            raise self._error
        return self._result
