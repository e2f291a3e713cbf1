"""Loaders of outside input raise only their typed error, whatever the bytes.

``ArrivalTrace.from_json`` / ``load_trace`` (``--trace``) may raise only
:class:`TraceFormatError`; ``FaultPlan.from_json`` (``--fault-plan``)
only ``ValueError``.  Two families of input: arbitrary text, and JSON of
the valid shape with one value replaced by something hostile (huge or
non-finite numbers, wrong types, deep nesting).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.traffic.trace import ArrivalTrace, TraceFormatError, load_trace

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: JSON values a careless loader chokes on.
HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.just("HUGE"),  # placeholder for an integer literal past the digit limit
    st.just("DEEP"),  # placeholder for nesting past the recursion limit
)


def dumps(data) -> str:
    """JSON text of *data*, with the two placeholders spliced in raw."""
    text = json.dumps(data)
    text = text.replace('"HUGE"', "1" + "0" * 5000)
    return text.replace('"DEEP"', "[" * 100_000 + "]" * 100_000)


def mutate(draw, document, path_choices):
    """Replace the value at one drawn path of *document* by a hostile one."""
    path = draw(st.sampled_from(path_choices))
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = draw(HOSTILE)
    return document


@st.composite
def mutated_traces(draw):
    document = {"version": 1, "name": "t", "seed": 3, "events": [[0.5, 0], [1.25, 1]]}
    paths = [("version",), ("name",), ("seed",), ("events",), ("events", 0),
             ("events", 1, 0), ("events", 1, 1)]
    return dumps(mutate(draw, document, paths))


@st.composite
def mutated_plans(draw):
    document = {
        "seed": 7,
        "specs": [{"stage": "host", "kind": "exception", "probability": 0.5,
                   "delay_s": None, "start_call": 0, "max_faults": None}],
    }
    paths = [("seed",), ("specs",), ("specs", 0)] + [
        ("specs", 0, key) for key in document["specs"][0]
    ]
    return dumps(mutate(draw, document, paths))


def load_trace_text(text: str):
    try:
        return ArrivalTrace.from_json(text)
    except TraceFormatError:
        return None


def load_plan_text(text: str):
    try:
        return FaultPlan.from_json(text)
    except ValueError:
        return None


@FUZZ
@given(st.text())
def test_trace_loader_on_arbitrary_text(text):
    load_trace_text(text)


@FUZZ
@given(mutated_traces())
def test_trace_loader_on_mutated_traces(text):
    trace = load_trace_text(text)
    if trace is not None:  # whatever it accepted round-trips
        assert ArrivalTrace.from_json(trace.to_json()) == trace


@FUZZ
@given(st.text())
def test_fault_plan_loader_on_arbitrary_text(text):
    load_plan_text(text)


@FUZZ
@given(mutated_plans())
def test_fault_plan_loader_on_mutated_plans(text):
    load_plan_text(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 1, "events": [[1' + "0" * 400 + ", 0]]}",
        "[" * 100_000,
    ],
    ids=["huge-int", "deep"],
)
def test_trace_loader_reported_inputs(text, tmp_path):
    with pytest.raises(TraceFormatError):
        ArrivalTrace.from_json(text)
    path = tmp_path / "trace.json"
    path.write_text(text)
    with pytest.raises(TraceFormatError):
        load_trace(path)


@pytest.mark.parametrize(
    "text", ["5", '{"specs": 7}', '{"specs": [1]}', '{"seed": [1]}', "[" * 100_000],
    ids=["scalar", "specs-int", "spec-int", "seed-list", "deep"],
)
def test_fault_plan_loader_reported_inputs(text):
    with pytest.raises(ValueError):
        FaultPlan.from_json(text)
