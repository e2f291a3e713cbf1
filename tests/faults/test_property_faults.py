"""Property tests: server invariants hold for ANY generated FaultPlan.

Hypothesis builds arbitrary fault plans (all stages, all kinds, arbitrary
probabilities/windows, small delays so examples stay fast) and drives a
real threaded CascadeServer.  Regardless of the plan:

* every submitted request reaches exactly one terminal state,
* the metrics books balance,
* retry and fault counters stay within their bounds and agree with the
  injector's own event log.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_KINDS, STAGES, FaultPlan, FaultSpec, wrap_stack
from repro.serve import CascadeServer, RetryPolicy

NUM_IMAGES = 48
MAX_RETRIES = 2


def spec_strategy():
    return st.builds(
        FaultSpec,
        stage=st.sampled_from(STAGES),
        kind=st.sampled_from(FAULT_KINDS),
        probability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        # Keep sleeps tiny so hang/latency faults don't slow the suite;
        # the hang *semantics* (deadline interplay) are covered elsewhere.
        delay_s=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
        start_call=st.integers(min_value=0, max_value=4),
        max_faults=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )


plan_strategy = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    specs=st.lists(spec_strategy(), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(plan=plan_strategy, data_seed=st.integers(min_value=0, max_value=999))
def test_any_fault_plan_yields_exactly_one_terminal_result_per_image(
    chaos, plan, data_seed
):
    # ``chaos`` is a stateless namespace, so reusing it across hypothesis
    # examples (the suppressed health check) is safe.
    images = chaos.make_images(NUM_IMAGES, seed=data_seed)
    bnn_fn, dmu, host_fn, injector = wrap_stack(
        plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
    )
    server = CascadeServer(
        bnn_fn, dmu, host_fn,
        max_batch_size=8,
        host_batch_size=4,
        retry=RetryPolicy(max_retries=MAX_RETRIES, base_delay_s=0.001,
                          max_delay_s=0.004),
    )
    try:
        futures = [server.submit(img) for img in images]
        results, errors = chaos.settle(futures, timeout=60.0)
    finally:
        server.close()

    # Exactly one terminal state per image, and every terminal state is
    # either a CascadeResult or a real exception.
    assert len(results) + len(errors) == NUM_IMAGES
    snapshot = server.snapshot()

    # The books balance.
    assert snapshot.submitted == NUM_IMAGES
    assert snapshot.accepted + snapshot.rerun + snapshot.degraded == snapshot.completed
    assert snapshot.completed + snapshot.failed == snapshot.submitted
    assert snapshot.completed == len(results)
    assert snapshot.failed == len(errors)
    assert snapshot.in_flight == 0

    # Counter bounds.
    assert 0 <= snapshot.retries <= MAX_RETRIES * snapshot.submitted
    assert snapshot.deadline_missed == 0  # no deadline configured here

    # Metrics fault counters agree with the injector's own exception log.
    for stage in STAGES:
        injected_exceptions = sum(
            1 for e in injector.log.for_stage(stage) if e.kind == "exception"
        )
        assert snapshot.faults.get(stage, 0) == injected_exceptions

    # Successful results carry sane payloads.
    for r in results:
        assert 0 <= r.prediction < 10
        assert r.source in ("bnn", "host", "degraded")
