"""SLO autoscaler: hold a p99 latency target under open-loop load.

:class:`AdaptiveThresholdController` (PR 4) regulates an *internal*
quantity — the rerun ratio — which keeps Eq. (1) honest but says nothing
a user can feel.  :class:`SLOAutoscaler` closes the loop on the quantity
users do feel: windowed p99 end-to-end latency, sampled from
:meth:`repro.serve.metrics.ServerMetrics.drain_latencies`.

Two actuators, engaged in a fixed escalation order:

1. **capacity** — grow the parallel host pool one worker at a time
   (:meth:`repro.parallel.ParallelHostRunner.resize` via
   :meth:`CascadeServer.resize_host_workers`), up to ``max_workers``;
2. **admission** — once capacity is exhausted, tighten the cascade's
   routing knobs: every attached
   :class:`~repro.serve.controller.AdaptiveThresholdController` (hop 0's
   DMU and any ladder knob) gets its ``target_rerun_ratio`` multiplied
   by ``tighten_factor``, shedding host-bound work so the queues drain.
   By Eq. (1) this trades a little accuracy for bounded latency — the
   CascadeCNN-style confidence/throughput trade, driven by load.

De-escalation mirrors it: after ``clear_windows`` consecutive healthy
windows the scaler first relaxes thresholds back toward their original
targets, then releases workers down to ``min_workers``.  At most one
action per ``cooldown_windows`` control windows, in either direction —
the anti-thrash bound ``tests/serve/test_autoscaler.py`` pins.

The scaler is deliberately *tick-driven*: no internal thread, no wall
clock of its own.  Call :meth:`observe_window` once per control window
(the ``repro serve-load`` harness does; tests drive it with a fake
clock), and every decision lands in :mod:`repro.obs` as the
``slo.workers`` gauge, a ``slo.decision`` instant, and the cumulative
``slo.violation_seconds`` counter.  The actuators never touch the books:
``accepted + Σ rerun_i + degraded + failed == submitted`` holds across
any action sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .. import obs
from ..obs import percentile
from .controller import AdaptiveThresholdController
from .metrics import ServerMetrics

__all__ = ["ScalerDecision", "SLOAutoscaler"]


@dataclass(frozen=True)
class ScalerDecision:
    """One control window's reading and the action taken on it."""

    window: int                 # 0-based control-window index
    samples: int                # latency samples drained this window
    p50_ms: float               # 0 when the window is empty
    p99_ms: float
    violating: bool
    action: str                 # see SLOAutoscaler.ACTIONS
    workers: int                # pool size *after* the action
    tighten_depth: int          # threshold-tightening level after the action
    window_seconds: float       # wall span the window covered
    violation_seconds: float    # portion counted toward the SLO violation total


class SLOAutoscaler:
    """Windowed p99-latency SLO controller (see module docs).

    Parameters
    ----------
    metrics:
        The served stack's :class:`ServerMetrics`; each tick drains its
        latency buffer, so one scaler instance owns one server's samples.
    slo_p99_ms:
        The target: windowed p99 end-to-end latency, milliseconds.
    scale_fn:
        ``n -> new_n`` pool actuator (``server.resize_host_workers``).
        ``None`` disables the capacity actuator (threshold-only mode,
        used when the server runs a serial host).
    current_workers:
        Pool size at attach time (``server.host_pool_size``).
    min_workers / max_workers:
        Capacity actuator range.
    controllers:
        The admission knobs to tighten — any mix of hop-0 and ladder
        :class:`AdaptiveThresholdController` s.
    tighten_factor:
        Multiplier applied to each knob's ``target_rerun_ratio`` per
        tightening step (< 1).
    max_tighten_depth:
        Tightening steps allowed before the scaler reports saturation.
    cooldown_windows:
        Minimum control windows between consecutive actions.
    clear_windows:
        Consecutive healthy windows required before de-escalating.
    clock:
        Injectable time source for window spans (tests pass a fake).
    """

    #: Every action :meth:`observe_window` can report.
    ACTIONS = (
        "hold",          # healthy, nothing to undo
        "observe",       # violating, but in cooldown / waiting
        "scale_up",
        "tighten",
        "saturated",     # violating with every actuator exhausted
        "relax",
        "scale_down",
    )

    def __init__(
        self,
        metrics: ServerMetrics,
        slo_p99_ms: float,
        scale_fn: Callable[[int], int] | None = None,
        current_workers: int = 0,
        min_workers: int = 1,
        max_workers: int = 4,
        controllers: Sequence[AdaptiveThresholdController] = (),
        tighten_factor: float = 0.5,
        max_tighten_depth: int = 3,
        cooldown_windows: int = 2,
        clear_windows: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ):
        if slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be positive")
        if not 0 < tighten_factor < 1:
            raise ValueError("tighten_factor must be in (0, 1)")
        if max_tighten_depth < 0:
            raise ValueError("max_tighten_depth must be >= 0")
        if cooldown_windows < 1 or clear_windows < 1:
            raise ValueError("cooldown_windows and clear_windows must be >= 1")
        if scale_fn is not None and not 1 <= min_workers <= max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        self.metrics = metrics
        self.slo_p99_ms = float(slo_p99_ms)
        self.scale_fn = scale_fn
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.controllers = tuple(controllers)
        self.tighten_factor = float(tighten_factor)
        self.max_tighten_depth = int(max_tighten_depth)
        self.cooldown_windows = int(cooldown_windows)
        self.clear_windows = int(clear_windows)
        self._clock = clock
        self.workers = int(current_workers) if scale_fn is not None else 0
        self._original_targets = tuple(c.target_rerun_ratio for c in self.controllers)
        self._tighten_depth = 0
        self._window = 0
        self._windows_since_action = cooldown_windows  # first window may act
        self._healthy_streak = 0
        self._last_tick = clock()
        self.violation_seconds = 0.0
        self.decisions: list[ScalerDecision] = []

    @classmethod
    def for_server(cls, server, slo_p99_ms: float, **kwargs) -> "SLOAutoscaler":
        """Attach to a :class:`repro.serve.CascadeServer`.

        Wires the capacity actuator to ``server.resize_host_workers``
        when the server runs a parallel host pool (threshold-only mode
        otherwise) and collects every adaptive knob on the server's hops.
        """
        pool = server.host_pool_size
        scale_fn = server.resize_host_workers if pool else None
        if pool:
            kwargs.setdefault("min_workers", min(pool, kwargs.get("max_workers", 4)))
            kwargs.setdefault("max_workers", max(pool, 4))
        return cls(
            metrics=server.metrics,
            slo_p99_ms=slo_p99_ms,
            scale_fn=scale_fn,
            current_workers=pool,
            controllers=server.controllers,
            **kwargs,
        )

    # -- state ---------------------------------------------------------------
    @property
    def tighten_depth(self) -> int:
        """Current admission-tightening level (0 = original targets)."""
        return self._tighten_depth

    @property
    def actions_taken(self) -> int:
        """Windows on which the scaler actually moved an actuator."""
        return sum(
            1 for d in self.decisions
            if d.action in ("scale_up", "tighten", "relax", "scale_down")
        )

    # -- control loop --------------------------------------------------------
    def observe_window(self) -> ScalerDecision:
        """Close one control window: read p99, maybe act, record obs."""
        now = self._clock()
        window_seconds = max(0.0, now - self._last_tick)
        self._last_tick = now
        samples = self.metrics.drain_latencies()
        if samples:
            p50_ms = percentile(samples, 50) * 1e3
            p99_ms = percentile(samples, 99) * 1e3
        else:
            # An empty window has no latency to violate: it counts as
            # healthy so a drained server walks back down to min workers.
            p50_ms = p99_ms = 0.0
        violating = p99_ms > self.slo_p99_ms
        violation_seconds = window_seconds if violating else 0.0
        self._window += 1
        self._windows_since_action += 1

        if violating:
            self._healthy_streak = 0
            if self._windows_since_action >= self.cooldown_windows:
                action = self._escalate()
            else:
                action = "observe"
        else:
            self._healthy_streak += 1
            if (
                self._healthy_streak >= self.clear_windows
                and self._windows_since_action >= self.cooldown_windows
            ):
                action = self._deescalate()
            else:
                action = "hold"
        if action in ("scale_up", "tighten", "relax", "scale_down"):
            self._windows_since_action = 0

        decision = ScalerDecision(
            window=self._window - 1,
            samples=len(samples),
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            violating=violating,
            action=action,
            workers=self.workers,
            tighten_depth=self._tighten_depth,
            window_seconds=window_seconds,
            violation_seconds=violation_seconds,
        )
        self.decisions.append(decision)
        if violation_seconds:
            self.violation_seconds += violation_seconds
            obs.count("slo.violation_seconds", violation_seconds)
        obs.gauge("slo.workers", self.workers)
        obs.instant(
            "slo.decision",
            window=decision.window,
            action=action,
            p99_ms=round(p99_ms, 3),
            slo_p99_ms=self.slo_p99_ms,
            workers=self.workers,
            tighten_depth=self._tighten_depth,
            samples=len(samples),
        )
        return decision

    # -- actuators -----------------------------------------------------------
    def _escalate(self) -> str:
        if self.scale_fn is not None and self.workers < self.max_workers:
            self.workers = self.scale_fn(self.workers + 1)
            return "scale_up"
        if self.controllers and self._tighten_depth < self.max_tighten_depth:
            self._tighten_depth += 1
            self._apply_targets()
            return "tighten"
        return "saturated"

    def _deescalate(self) -> str:
        if self._tighten_depth > 0:
            self._tighten_depth -= 1
            self._apply_targets()
            return "relax"
        if self.scale_fn is not None and self.workers > self.min_workers:
            self.workers = self.scale_fn(self.workers - 1)
            return "scale_down"
        return "hold"

    def _apply_targets(self) -> None:
        factor = self.tighten_factor ** self._tighten_depth
        for controller, original in zip(self.controllers, self._original_targets):
            controller.target_rerun_ratio = original * factor
