"""Chaos under open-loop load: same seed ⇒ same faults, ≥99% terminal.

Extends the ``tests/faults`` determinism contract to trace-driven load:
replaying one bursty trace twice against two servers wrapped in the same
seeded :class:`repro.faults.FaultPlan` must inject the *identical* fault
sequence both times, and (nearly) every attempted arrival must still
reach a terminal state — answer or typed error, never a hang.
"""

from pathlib import Path

import numpy as np

from repro.core.dmu import DecisionMakingUnit
from repro.faults import load_fault_plan, wrap_stack
from repro.serve import CascadeServer, RetryPolicy
from repro.traffic import TraceReplayer, make_trace

PLAN_PATH = Path(__file__).parents[2] / "examples" / "faultplan_host_flaky.json"


def _oracle_stack(seed=0, threshold=0.8):
    rng = np.random.default_rng(seed)
    payloads = rng.normal(0.0, 1.0, size=(32, 10))
    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0
    dmu = DecisionMakingUnit(weights, bias=0.0, threshold=threshold)
    return (lambda images: images), dmu, (lambda images: images.argmax(axis=1)), payloads


def _run_once():
    """One bursty replay under the flaky-host plan; returns (log, books)."""
    trace = make_trace("burst", rate=600.0, duration=2.0, seed=7, num_payloads=32)
    plan = load_fault_plan(PLAN_PATH)
    bnn_fn, dmu, host_fn, payloads = _oracle_stack()
    bnn_fn, dmu, host_fn, injector = wrap_stack(plan, bnn_fn, dmu, host_fn)
    # The host fault stream is keyed by host *call* index, so the log is
    # seed-deterministic only if the number of host calls is a function
    # of the trace and not of timing: a host queue that holds the whole
    # trace never sheds, one image per call takes batch composition out,
    # and no breaker means no wall-clock cool-down deciding which calls
    # are skipped (its trip/recovery is pinned in tests/faults).  Each
    # flagged image then costs 1-3 calls, read off the stream in order.
    server = CascadeServer(
        bnn_fn, dmu, host_fn,
        max_batch_size=16,
        host_queue_capacity=len(trace), host_batch_size=1, breaker=None,
        retry=RetryPolicy(base_delay_s=0.001, max_delay_s=0.004),
    )
    replayer = TraceReplayer(server.submit, payloads, time_scale=20.0)
    with server:
        result = replayer.replay(trace)
        ok, errs = result.settle(timeout=60.0)
    total = server.snapshot()
    fault_log = {
        stage: [
            (event.call_index, event.kind, event.spec_index)
            for event in injector.log.for_stage(stage)
        ]
        for stage in ("bnn", "dmu", "host")
    }
    return trace, result, ok, errs, total, fault_log


def test_chaos_under_load_is_seed_deterministic_and_terminal():
    runs = [_run_once(), _run_once()]

    # identical trace both times (the open-loop determinism contract) ...
    assert runs[0][0].to_json() == runs[1][0].to_json()
    # ... and identical injected fault sequences per stage (the fault
    # plan's own per-stage decision streams are position-keyed, so the
    # same submission order must consume them identically).
    assert runs[0][5] == runs[1][5]
    assert any(runs[0][5].values()), "plan injected nothing; test is vacuous"

    for trace, result, ok, errs, total, _ in runs:
        assert result.attempted == len(trace)
        # ≥99% of attempted arrivals reached a terminal state: an answer,
        # a typed error, or a front-door refusal (counted in attempted).
        terminal = len(ok) + len(errs) + result.refused
        assert terminal / result.attempted >= 0.99
        # books balance even under chaos
        answered = total.accepted + total.rerun + total.degraded + total.failed
        assert answered == total.submitted
