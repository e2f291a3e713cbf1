"""Observability: tracing & profiling for the multi-precision cascade.

The paper's claims are timing claims — Eq. (1) ``t_multi = max(t_fp *
R_rerun, t_bnn)`` asserts BNN/host *overlap*, and FINN's Eqs. (3)–(5)
predict where cycles go inside the BNN.  ``repro.obs`` makes both
checkable on a live run:

* :mod:`~repro.obs.tracer` — thread-safe span tracer
  (:func:`trace_span` context manager), counters / gauges / instants;
  near-zero overhead while no tracer is installed, which is the default.
* :mod:`~repro.obs.stats` — percentiles, per-span-name latency digests,
  and the BNN-vs-host overlap measurement.
* :mod:`~repro.obs.export` — Chrome ``chrome://tracing`` / Perfetto
  trace-event JSON, plain JSON summaries, and a converter for the
  simulated :mod:`repro.hetero` timeline.
* :mod:`~repro.obs.residuals` — Eq. (1)/(1N) and Eqs. (3)–(5)
  predicted-vs-measured residuals (2-stage and N-stage ladders).
* :mod:`~repro.obs.ledger` — the :class:`Ledger` every serving layer
  keeps its books in: declared counters and gauges, conservation laws
  (:class:`Law`) checked by one ``check()``, mirrored into the installed
  tracer's counters.

The serving layer (:mod:`repro.serve`), the folded BNN
(:class:`repro.bnn.FoldedBNN`), the kernel backends and the offline
cascade are pre-instrumented; ``python -m repro trace`` records a run
and writes the timeline.  See ``docs/OBSERVABILITY.md``.
"""

from .export import (
    chrome_trace_events,
    timeline_to_chrome,
    to_chrome_trace,
    trace_summary,
    write_chrome_trace,
)
from .ledger import Law, Ledger, Reading
from .residuals import eq345_layer_residuals, ladder_eq1_residual
from .stats import (
    SpanSummary,
    format_span_summaries,
    percentile,
    span_overlap_seconds,
    summarize_spans,
)
from .tracer import (
    Span,
    Tracer,
    active,
    count,
    enabled,
    gauge,
    install,
    instant,
    trace_span,
    tracing,
)

__all__ = [
    # tracer
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
    # stats
    "SpanSummary",
    "percentile",
    "summarize_spans",
    "span_overlap_seconds",
    "format_span_summaries",
    # export
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "trace_summary",
    "timeline_to_chrome",
    # ledger
    "Law",
    "Ledger",
    "Reading",
    # residuals
    "ladder_eq1_residual",
    "eq345_layer_residuals",
]
