"""Seeded fault plans: *what* goes wrong, *where*, and *how often*.

The cascade of Fig. 1 only achieves Eq. (1)'s ``t_multi = max(t_fp *
R_rerun, t_bnn)`` if the two precision domains tolerate each other's
stalls and failures.  A :class:`FaultPlan` describes a reproducible
chaos scenario against the serving layer: a seed plus a list of
:class:`FaultSpec` entries, each naming a pipeline stage (``bnn`` /
``dmu`` / ``host``), a fault kind, and a per-call probability.

Determinism is the point — the same plan produces the same per-stage
fault decision stream on every run (see
:class:`repro.faults.inject.FaultInjector`), so any chaos test failure
can be replayed bit-for-bit from its seed.

Plans round-trip through JSON (``to_json`` / ``from_json`` /
:func:`load_fault_plan`) so scenarios can live in version control, e.g.
``examples/faultplan_host_flaky.json`` for ``repro serve-bench
--fault-plan``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "STAGES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "load_fault_plan",
]

#: Pipeline stages a fault can target (the three cascade callables).
STAGES = ("bnn", "dmu", "host")

#: Supported fault kinds:
#:
#: * ``exception``  — the stage callable raises :class:`~repro.faults.inject.InjectedFault`.
#: * ``latency``    — the call is delayed by ``delay_s`` (default 50 ms) before running.
#: * ``hang``       — like ``latency`` but long (default 2 s): a stall that
#:   should trip per-request deadlines, not merely slow a batch down.
#: * ``corrupt``    — the call runs, then its output array is rolled by one
#:   along the last axis (scores: argmax moves; labels: answers shift).
FAULT_KINDS = ("exception", "latency", "hang", "corrupt")

_DEFAULT_DELAYS = {"latency": 0.05, "hang": 2.0}


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: *stage* misbehaves with *probability* per call.

    Parameters
    ----------
    stage:
        Which cascade callable to afflict: ``"bnn"``, ``"dmu"`` or ``"host"``.
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance, per stage invocation, that this spec fires (decided from
        the plan's seeded per-stage random stream).
    delay_s:
        Sleep injected by ``latency``/``hang`` faults.  ``None`` picks the
        kind's default (50 ms / 2 s); ignored by other kinds.
    start_call:
        First stage invocation index (0-based) at which this spec is
        armed — lets a scenario hold fire through warm-up.
    max_faults:
        Cap on how many times this spec may fire (``None`` = unlimited),
        e.g. a crash-loop that eventually "recovers".
    """

    stage: str
    kind: str
    probability: float = 1.0
    delay_s: float | None = None
    start_call: int = 0
    max_faults: int | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s is not None and self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.start_call < 0:
            raise ValueError("start_call must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0")

    @property
    def effective_delay_s(self) -> float:
        """The sleep this spec injects when it fires (0 for non-delay kinds)."""
        if self.delay_s is not None:
            return self.delay_s
        return _DEFAULT_DELAYS.get(self.kind, 0.0)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus fault specs: one complete, replayable chaos scenario."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # Accept any iterable of specs / dicts, normalize to a tuple.
        normalized = tuple(
            s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in self.specs
        )
        object.__setattr__(self, "specs", normalized)

    def for_stage(self, stage: str) -> tuple[FaultSpec, ...]:
        """The specs targeting *stage*, in plan order."""
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
        return tuple(s for s in self.specs if s.stage == stage)

    # -- JSON round-trip -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [asdict(s) for s in self.specs]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from parsed JSON; any malformed input raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"a FaultPlan must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise ValueError(f"unknown FaultPlan keys: {sorted(unknown)}")
        specs = data.get("specs", [])
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ValueError("FaultPlan 'specs' must be a list of objects")
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                specs=tuple(FaultSpec(**spec) for spec in specs),
            )
        except (TypeError, OverflowError) as exc:  # a mistyped field or value
            raise ValueError(f"malformed FaultPlan: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("FaultPlan JSON nests too deeply") from exc
        return cls.from_dict(data)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file (``--fault-plan``)."""
    return FaultPlan.from_json(Path(path).read_text())
