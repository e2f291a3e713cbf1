"""Thread-safe span tracer for the cascade's hot paths.

The paper's headline claim, Eq. (1) ``t_multi ≈ max(t_fp * R_rerun,
t_bnn)``, is a statement about *overlap*: it holds only while the BNN
stage and the host re-inference genuinely run in parallel.  This module
records *where wall-clock time goes* so that claim becomes visible
instead of assumed — every instrumented region becomes a :class:`Span`
(monotonic-clock start/duration, thread, nesting depth), and counters /
gauges capture queue depths and R_rerun decisions alongside.

Design constraints (stdlib-only, no third-party imports):

* **Near-zero overhead when disabled.**  No tracer installed means
  :func:`trace_span` returns one shared no-op context manager and the
  ``count``/``gauge``/``instant`` helpers return after a single global
  read.  No dict, no object, no lock is touched.
* **Thread-safe when enabled.**  Every worker thread of a
  :class:`repro.serve.CascadeServer` records into the same tracer; a
  single lock guards the event lists and a ``threading.local`` stack
  tracks per-thread span nesting.
* **Bounded memory.**  ``max_events`` caps retained spans; overflow
  increments ``dropped`` instead of growing without bound.

Use :func:`tracing` (context manager, restoring the previous tracer on
exit) or :func:`install` to activate a tracer process-wide, then export via
:mod:`repro.obs.export` and summarize via :mod:`repro.obs.stats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "install",
    "active",
    "enabled",
    "tracing",
    "trace_span",
    "count",
    "gauge",
    "instant",
]


@dataclass(frozen=True)
class Span:
    """One completed timed region (times in seconds since the tracer epoch)."""

    name: str
    start: float
    end: float
    thread_id: int
    thread_name: str
    depth: int                   # 0 = top-level within its thread
    parent: str | None           # enclosing span's name, if any
    category: str = ""
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counters, gauges and instant events.

    Parameters
    ----------
    max_events:
        Cap on retained spans + instants (counter/gauge samples share a
        separate cap of the same size).  Overflow is counted in
        :attr:`dropped`, never raised.
    clock:
        Monotonic clock; ``time.perf_counter`` by default.  Injectable
        for deterministic tests and golden files.
    """

    def __init__(self, max_events: int = 1_000_000, clock=time.perf_counter):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = int(max_events)
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._instants: list[tuple[str, float, int, dict]] = []
        #: name -> cumulative value; samples as (ts, cumulative) pairs.
        self._counters: dict[str, float] = {}
        self._counter_samples: dict[str, list[tuple[float, float]]] = {}
        self._gauge_samples: dict[str, list[tuple[float, float]]] = {}
        self._sample_count = 0
        self._tls = threading.local()
        self.dropped = 0

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return self._clock() - self._epoch

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, category: str = "", **args) -> "_SpanContext":
        """Context manager timing a region; records a :class:`Span` on exit."""
        return _SpanContext(self, name, category, args)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        thread_id: int | None = None,
        thread_name: str | None = None,
        depth: int = 0,
        parent: str | None = None,
        **args,
    ) -> None:
        """Record a span retrospectively (e.g. from pre-measured intervals)."""
        if thread_id is None:
            thread_id = threading.get_ident()
        if thread_name is None:
            thread_name = threading.current_thread().name
        span = Span(
            name=name, start=start, end=end, thread_id=thread_id,
            thread_name=thread_name, depth=depth, parent=parent,
            category=category, args=args,
        )
        with self._lock:
            if len(self._spans) + len(self._instants) >= self.max_events:
                self.dropped += 1
                return
            self._spans.append(span)

    # -- counters / gauges / instants ---------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        """Add to a cumulative counter and sample its new value."""
        ts = self.now()
        with self._lock:
            value = self._counters.get(name, 0) + delta
            self._counters[name] = value
            self._record_sample(self._counter_samples, name, ts, value)

    def gauge(self, name: str, value: float) -> None:
        """Sample an instantaneous level (queue depth, threshold, ...)."""
        with self._lock:
            self._record_sample(self._gauge_samples, name, self.now(), float(value))

    def _record_sample(self, table, name, ts, value) -> None:
        if self._sample_count >= self.max_events:
            self.dropped += 1
            return
        table.setdefault(name, []).append((ts, value))
        self._sample_count += 1

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker event."""
        ts = self.now()
        tid = threading.get_ident()
        with self._lock:
            if len(self._spans) + len(self._instants) >= self.max_events:
                self.dropped += 1
                return
            self._instants.append((name, ts, tid, args))

    # -- reading -------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def instants(self) -> list[tuple[str, float, int, dict]]:
        with self._lock:
            return list(self._instants)

    def counters(self) -> dict[str, float]:
        """Final cumulative counter values."""
        with self._lock:
            return dict(self._counters)

    def counter_samples(self) -> dict[str, list[tuple[float, float]]]:
        with self._lock:
            return {k: list(v) for k, v in self._counter_samples.items()}

    def gauge_samples(self) -> dict[str, list[tuple[float, float]]]:
        with self._lock:
            return {k: list(v) for k, v in self._gauge_samples.items()}


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start", "_parent", "_depth")

    def __init__(self, tracer: Tracer, name: str, category: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_SpanContext":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._name)
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc) -> None:
        end = self._tracer.now()
        stack = self._tracer._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._tracer.add_span(
            self._name,
            self._start,
            end,
            category=self._category,
            depth=self._depth,
            parent=self._parent,
            **self._args,
        )


class _NullContext:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_CONTEXT = _NullContext()

#: The process-wide tracer; ``None`` means tracing is disabled.
_ACTIVE: Tracer | None = None


def install(tracer: Tracer | None = None) -> Tracer:
    """Activate *tracer* (a fresh one when omitted) process-wide."""
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    _ACTIVE = tracer
    return tracer


def active() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def enabled() -> bool:
    """True when a tracer is installed (the cheap hot-path check)."""
    return _ACTIVE is not None


class tracing:
    """``with tracing() as tracer:`` — install for the block, then restore.

    Restores whatever tracer (or absence of one) was active before, so
    nested/overlapping uses compose.
    """

    def __init__(self, tracer: Tracer | None = None):
        self._tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


def trace_span(name: str, category: str = "", **args):
    """Span context manager against the installed tracer; no-op when disabled.

    The disabled path returns one shared, stateless object — safe to use
    in the tightest loops of the folded BNN.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, category, **args)


def count(name: str, delta: float = 1) -> None:
    """Counter increment against the installed tracer; no-op when disabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, delta)


def gauge(name: str, value: float) -> None:
    """Gauge sample against the installed tracer; no-op when disabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.gauge(name, value)


def instant(name: str, **args) -> None:
    """Instant marker against the installed tracer; no-op when disabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, **args)
