"""Aggregation of trace data: percentiles, span summaries, overlap.

Where :mod:`repro.obs.tracer` records raw events, this module turns them
into the numbers the paper's timing story is argued with: per-span-name
latency distributions (count/total/mean/percentiles), and the
BNN-vs-host *overlap* measurement that decides whether Eq. (1)'s
``max(t_fp * R_rerun, t_bnn)`` — rather than the sum — is the right
model of the cascade.  Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracer import Span

__all__ = [
    "SpanSummary",
    "percentile",
    "summarize_spans",
    "span_overlap_seconds",
    "format_span_summaries",
]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


@dataclass(frozen=True)
class SpanSummary:
    """Latency distribution of every span sharing one name."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    max_seconds: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "max_seconds": self.max_seconds,
        }


def summarize_spans(spans: list[Span]) -> dict[str, SpanSummary]:
    """Group spans by name; summaries sorted by descending total time."""
    groups: dict[str, list[float]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span.duration)
    summaries = {
        name: SpanSummary(
            name=name,
            count=len(durations),
            total_seconds=sum(durations),
            mean_seconds=sum(durations) / len(durations),
            p50_seconds=percentile(durations, 50),
            p95_seconds=percentile(durations, 95),
            max_seconds=max(durations),
        )
        for name, durations in groups.items()
    }
    return dict(
        sorted(summaries.items(), key=lambda kv: kv[1].total_seconds, reverse=True)
    )


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping (start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def span_overlap_seconds(spans: list[Span], name_a: str, name_b: str) -> float:
    """Wall-clock seconds during which *name_a* and *name_b* both ran.

    Spans of each name are unioned first (multiple worker threads count
    once), so the result is the true simultaneous-busy time — the
    quantity Eq. (1) assumes is ``min(t_fp * R_rerun, t_bnn)`` per image
    when the cascade overlaps perfectly.
    """
    a = _merge_intervals([(s.start, s.end) for s in spans if s.name == name_a])
    b = _merge_intervals([(s.start, s.end) for s in spans if s.name == name_b])
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def format_span_summaries(summaries: dict[str, SpanSummary], title: str = "span summary") -> str:
    """Plain-text table of span summaries (stdlib-only formatter)."""
    headers = ["span", "count", "total (ms)", "mean (ms)", "p50 (ms)", "p95 (ms)", "max (ms)"]
    rows = [
        [
            s.name,
            str(s.count),
            f"{s.total_seconds * 1e3:.2f}",
            f"{s.mean_seconds * 1e3:.3f}",
            f"{s.p50_seconds * 1e3:.3f}",
            f"{s.p95_seconds * 1e3:.3f}",
            f"{s.max_seconds * 1e3:.3f}",
        ]
        for s in summaries.values()
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip())
    lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    for r in rows:
        lines.append("  ".join(v.ljust(widths[c]) for c, v in enumerate(r)).rstrip())
    return "\n".join(lines)
