"""Percentile math, span summaries, and the overlap measure."""

import pytest

from repro.obs import (
    percentile,
    span_overlap_seconds,
    summarize_spans,
)
from repro.obs.stats import _merge_intervals
from repro.obs.tracer import Span


def _span(name, start, end, tid=1):
    return Span(
        name=name, start=start, end=end, thread_id=tid,
        thread_name=f"t{tid}", depth=0, parent=None,
    )


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile([7.0], 90) == 7.0


def test_percentile_validates():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize_spans_groups_and_sorts():
    spans = [
        _span("a", 0.0, 1.0),
        _span("a", 1.0, 3.0),
        _span("b", 0.0, 0.5),
    ]
    summaries = summarize_spans(spans)
    assert list(summaries) == ["a", "b"]  # descending total time
    a = summaries["a"]
    assert a.count == 2
    assert a.total_seconds == pytest.approx(3.0)
    assert a.mean_seconds == pytest.approx(1.5)
    assert a.max_seconds == pytest.approx(2.0)


def test_merge_intervals_unions_overlaps():
    merged = _merge_intervals([(0, 2), (1, 3), (5, 6)])
    assert merged == [(0, 3), (5, 6)]
    assert _merge_intervals([]) == []


def test_overlap_basic():
    spans = [_span("bnn", 0.0, 2.0), _span("host", 1.0, 3.0, tid=2)]
    assert span_overlap_seconds(spans, "bnn", "host") == pytest.approx(1.0)


def test_overlap_unions_same_name_threads():
    # Two host workers overlapping each other must not double-count.
    spans = [
        _span("bnn", 0.0, 4.0),
        _span("host", 1.0, 3.0, tid=2),
        _span("host", 2.0, 3.5, tid=3),
    ]
    assert span_overlap_seconds(spans, "bnn", "host") == pytest.approx(2.5)


def test_overlap_disjoint_and_missing():
    spans = [_span("bnn", 0.0, 1.0), _span("host", 2.0, 3.0)]
    assert span_overlap_seconds(spans, "bnn", "host") == 0.0
    assert span_overlap_seconds(spans, "bnn", "absent") == 0.0
