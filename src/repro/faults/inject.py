"""Deterministic fault injection around the cascade's stage callables.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into wrappers for the three stage callables the serving layer consumes
(``bnn_scores_fn``, ``dmu.confidence``, ``host_predict_fn``).  Each
stage gets its own seeded random stream, and fault decisions are drawn
strictly in call order under a per-stage lock, so the decision sequence
for a stage depends only on ``(plan.seed, stage, call_index)`` — never
on thread timing.  Two runs that make the same stage calls therefore see
*identical* fault sequences, which is what lets ``tests/faults`` replay
any chaos scenario bit-for-bit.

Every injected fault is appended to a :class:`FaultLog` as a
:class:`FaultEvent`; tests compare per-stage event sequences across runs
and reconcile them against :class:`repro.serve.ServerMetrics` counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .plan import STAGES, FaultPlan, FaultSpec

__all__ = [
    "InjectedFault",
    "FaultEvent",
    "FaultLog",
    "FaultInjector",
    "wrap_stack",
]


class InjectedFault(RuntimeError):
    """Raised by a wrapped stage when an ``exception`` fault fires."""

    def __init__(self, stage: str, call_index: int, spec_index: int):
        super().__init__(
            f"injected fault: stage={stage!r} call={call_index} spec={spec_index}"
        )
        self.stage = stage
        self.call_index = call_index
        self.spec_index = spec_index


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the unit of replay comparison)."""

    stage: str
    call_index: int
    kind: str
    spec_index: int


class FaultLog:
    """Thread-safe append-only record of injected faults."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[FaultEvent] = []

    def append(self, event: FaultEvent) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def for_stage(self, stage: str) -> tuple[FaultEvent, ...]:
        """Events of one stage, ordered by call index (the replayable view)."""
        return tuple(
            sorted(
                (e for e in self.events if e.stage == stage),
                key=lambda e: (e.call_index, e.spec_index),
            )
        )

    def counts(self) -> dict[str, int]:
        """``{stage: fired_faults}`` including delay/corrupt kinds."""
        totals = dict.fromkeys(STAGES, 0)
        for event in self.events:
            totals[event.stage] += 1
        return totals

    def counts_by_kind(self, stage: str) -> dict[str, int]:
        totals: dict[str, int] = {}
        for event in self.for_stage(stage):
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals


class _StageState:
    """Per-stage call counter + seeded stream + per-spec fire budget."""

    __slots__ = ("lock", "rng", "calls", "fired")

    def __init__(self, seed: int, stage_index: int, num_specs: int):
        self.lock = threading.Lock()
        self.rng = np.random.default_rng([seed, stage_index])
        self.calls = 0
        self.fired = [0] * num_specs


class FaultInjector:
    """Apply a :class:`FaultPlan` to stage callables.

    Usage::

        injector = FaultInjector(plan)
        bnn_fn = injector.wrap("bnn", bnn_fn)
        dmu = injector.wrap_dmu(dmu)
        host_fn = injector.wrap("host", host_fn)
        ...
        injector.log.for_stage("host")   # replayable fault sequence

    The ``sleep`` parameter is injectable so tests can fake time.
    """

    def __init__(self, plan: FaultPlan, sleep: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.log = FaultLog()
        self._sleep = sleep
        self._specs: dict[str, tuple[tuple[int, FaultSpec], ...]] = {}
        self._state: dict[str, _StageState] = {}
        for stage_index, stage in enumerate(STAGES):
            indexed = tuple(
                (i, spec) for i, spec in enumerate(plan.specs) if spec.stage == stage
            )
            self._specs[stage] = indexed
            self._state[stage] = _StageState(plan.seed, stage_index, len(indexed))

    # -- decision core -------------------------------------------------------
    def decide(self, stage: str) -> list[FaultEvent]:
        """Draw this call's fault decisions (in plan order) for *stage*.

        One uniform variate is consumed per armed spec per call, in plan
        order, under the stage lock — the stream is a pure function of
        ``(seed, stage, call_index)``.  Returns the events that fire this
        call (usually zero or one; multiple specs may fire together).

        At most one ``exception`` event fires per call: the wrapped
        callable can only raise once, so letting a second exception spec
        "fire" would log an event with no observable fault and desync the
        log from :class:`repro.serve.ServerMetrics` fault counters.  The
        losing spec's variate is still drawn (stream position is call-
        indexed) and its fire budget is not consumed.
        """
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
        state = self._state[stage]
        events: list[FaultEvent] = []
        with state.lock:
            call_index = state.calls
            state.calls += 1
            for slot, (spec_index, spec) in enumerate(self._specs[stage]):
                # Draw unconditionally so the stream position never depends
                # on arming windows or budgets, only on the call index.
                u = float(state.rng.random())
                if call_index < spec.start_call:
                    continue
                if spec.max_faults is not None and state.fired[slot] >= spec.max_faults:
                    continue
                if spec.kind == "exception" and any(
                    e.kind == "exception" for e in events
                ):
                    continue
                if u < spec.probability:
                    state.fired[slot] += 1
                    events.append(
                        FaultEvent(stage, call_index, spec.kind, spec_index)
                    )
        for event in events:
            self.log.append(event)
        return events

    def calls(self, stage: str) -> int:
        state = self._state[stage]
        with state.lock:
            return state.calls

    # -- wrappers ------------------------------------------------------------
    def _apply(self, stage: str, fn: Callable, args, kwargs):
        events = self.decide(stage)
        delay = 0.0
        corrupt = False
        raiser: FaultEvent | None = None
        for event in events:
            if event.kind in ("latency", "hang"):
                delay += self.plan.specs[event.spec_index].effective_delay_s
            elif event.kind == "corrupt":
                corrupt = True
            elif event.kind == "exception":
                raiser = event
        if delay:
            self._sleep(delay)
        if raiser is not None:
            raise InjectedFault(stage, raiser.call_index, raiser.spec_index)
        out = fn(*args, **kwargs)
        if corrupt:
            out = np.roll(np.asarray(out), 1, axis=-1)
        return out

    def wrap(self, stage: str, fn: Callable) -> Callable:
        """Wrap a stage callable; faults fire per invocation."""
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")

        def wrapped(*args, **kwargs):
            return self._apply(stage, fn, args, kwargs)

        wrapped.__name__ = f"faulty_{stage}"
        wrapped.__qualname__ = f"FaultInjector.<{stage}>"
        return wrapped

    def wrap_dmu(self, dmu):
        """Proxy a DMU whose ``confidence`` is fault-wrapped.

        Every other attribute (``threshold``, training metadata, ...)
        delegates to the wrapped unit unchanged.
        """
        return _FaultyDMU(dmu, self)


class _FaultyDMU:
    """Attribute-delegating DMU proxy with an injected ``confidence``."""

    def __init__(self, dmu, injector: FaultInjector):
        object.__setattr__(self, "_dmu", dmu)
        object.__setattr__(self, "_confidence", injector.wrap("dmu", dmu.confidence))

    def confidence(self, scores):
        return self._confidence(scores)

    def __getattr__(self, name):
        return getattr(self._dmu, name)


def wrap_stack(plan: FaultPlan, bnn_scores_fn, dmu, host_predict_fn, *,
               sleep: Callable[[float], None] = time.sleep):
    """Convenience: wrap all three cascade stages under one injector.

    Returns ``(bnn_scores_fn, dmu, host_predict_fn, injector)`` ready to
    hand to :class:`repro.serve.CascadeServer`.
    """
    injector = FaultInjector(plan, sleep=sleep)
    return (
        injector.wrap("bnn", bnn_scores_fn),
        injector.wrap_dmu(dmu),
        injector.wrap("host", host_predict_fn),
        injector,
    )
