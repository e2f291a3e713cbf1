"""Replayable open-loop arrival traces (the workload's ground truth).

An :class:`ArrivalTrace` is a seeded, fully materialized list of
:class:`ArrivalEvent` — ``(t_offset, payload_ref)`` pairs — describing
*when* requests arrive and *which* payload each one carries, completely
decoupled from what serves them.  ``t_offset`` is seconds from the start
of the trace; ``payload_ref`` indexes a payload bank the replayer binds
at playback time (synthetic score vectors, video ROI crops, ...), so one
trace drives an in-process :class:`repro.serve.CascadeServer`, a
:class:`repro.net.NetClient` over sockets, or a bare mock identically.

The wire format is versioned JSON (mirroring
:class:`repro.faults.FaultPlan`) so traces live in version control and
benchmark results can name the exact workload that produced them:

.. code-block:: json

    {"version": 1, "name": "poisson", "seed": 7,
     "events": [[0.0013, 0], [0.0041, 1]]}

Determinism contract: construction validates that offsets are finite,
non-negative and time-sorted, serialization is canonical (sorted keys,
``repr``-exact floats), and every generator in
:mod:`repro.traffic.generators` derives all randomness from its seed —
so the same seed yields a *byte-identical* trace file and therefore an
identical submission order on replay.  Malformed files fail with a typed
:class:`TraceFormatError`, never a raw ``KeyError``/``JSONDecodeError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFormatError",
    "ArrivalEvent",
    "ArrivalTrace",
    "load_trace",
]

#: Serialized trace format version; bumped on incompatible changes.
TRACE_FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file/blob is corrupt, truncated, or a different version."""


@dataclass(frozen=True)
class ArrivalEvent:
    """One arrival: at *t_offset* seconds, submit payload *payload_ref*."""

    t_offset: float
    payload_ref: int

    def __post_init__(self):
        try:
            offset = float(self.t_offset)
        except (OverflowError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"t_offset must be a number, got {self.t_offset!r}") from exc
        if not math.isfinite(offset):
            raise TraceFormatError(f"t_offset must be finite, got {self.t_offset!r}")
        if offset < 0.0:
            raise TraceFormatError(f"t_offset must be >= 0, got {offset}")
        if int(self.payload_ref) != self.payload_ref or self.payload_ref < 0:
            raise TraceFormatError(
                f"payload_ref must be a non-negative int, got {self.payload_ref!r}"
            )
        object.__setattr__(self, "t_offset", offset)
        object.__setattr__(self, "payload_ref", int(self.payload_ref))


@dataclass(frozen=True)
class ArrivalTrace:
    """A named, seeded, time-sorted sequence of arrival events."""

    events: tuple[ArrivalEvent, ...]
    name: str = "trace"
    seed: int = 0

    def __post_init__(self):
        normalized = tuple(
            e if isinstance(e, ArrivalEvent) else ArrivalEvent(*e) for e in self.events
        )
        previous = 0.0
        for i, event in enumerate(normalized):
            if event.t_offset < previous:
                raise TraceFormatError(
                    f"events must be time-sorted: event {i} at t={event.t_offset} "
                    f"after t={previous}"
                )
            previous = event.t_offset
        object.__setattr__(self, "events", normalized)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ArrivalEvent]:
        return iter(self.events)

    @property
    def duration_seconds(self) -> float:
        """Offset of the last event (0 for an empty trace)."""
        return self.events[-1].t_offset if self.events else 0.0

    @property
    def mean_rate(self) -> float:
        """Events per second over the trace span (0 for degenerate traces)."""
        if len(self.events) < 2 or self.duration_seconds <= 0:
            return 0.0
        return len(self.events) / self.duration_seconds

    def max_payload_ref(self) -> int:
        """Largest payload index referenced (-1 for an empty trace)."""
        return max((e.payload_ref for e in self.events), default=-1)

    def scaled(self, time_scale: float) -> "ArrivalTrace":
        """The same arrivals compressed (scale > 1) or stretched in time."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        return ArrivalTrace(
            events=tuple(
                ArrivalEvent(e.t_offset / time_scale, e.payload_ref)
                for e in self.events
            ),
            name=self.name,
            seed=self.seed,
        )

    def rate_in_window(self, start: float, stop: float) -> float:
        """Offered rate (events/s) of the half-open window ``[start, stop)``."""
        if stop <= start:
            raise ValueError("need start < stop")
        n = sum(1 for e in self.events if start <= e.t_offset < stop)
        return n / (stop - start)

    # -- canonical JSON round-trip -------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": TRACE_FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "events": [[e.t_offset, e.payload_ref] for e in self.events],
        }

    def to_json(self) -> str:
        """Canonical serialization: same trace ⇒ byte-identical string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: object) -> "ArrivalTrace":
        if not isinstance(data, dict):
            raise TraceFormatError(
                f"trace must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"version", "name", "seed", "events"}
        if unknown:
            raise TraceFormatError(f"unknown trace keys: {sorted(unknown)}")
        version = data.get("version")
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {version!r} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        events = data.get("events")
        if not isinstance(events, list):
            raise TraceFormatError("trace 'events' must be a list")
        normalized = []
        for i, entry in enumerate(events):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise TraceFormatError(
                    f"event {i} must be a [t_offset, payload_ref] pair, got {entry!r}"
                )
            t_offset, payload_ref = entry
            if not isinstance(t_offset, (int, float)) or isinstance(t_offset, bool):
                raise TraceFormatError(f"event {i} t_offset must be a number")
            if not isinstance(payload_ref, int) or isinstance(payload_ref, bool):
                raise TraceFormatError(f"event {i} payload_ref must be an int")
            normalized.append(ArrivalEvent(t_offset, payload_ref))
        name = data.get("name", "trace")
        seed = data.get("seed", 0)
        if not isinstance(name, str):
            raise TraceFormatError("trace 'name' must be a string")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TraceFormatError("trace 'seed' must be an int")
        return cls(events=tuple(normalized), name=name, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an over-long integer literal, or nesting
            # deeper than the parser's recursion limit.
            raise TraceFormatError(f"trace is not valid JSON: {exc!r:.200}") from exc
        return cls.from_dict(data)


def load_trace(path: str | Path) -> ArrivalTrace:
    """Read an :class:`ArrivalTrace` from a JSON file (``--trace path``)."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    return ArrivalTrace.from_json(text)
