"""Slow soak test: sustained mixed-fault load against a live server.

Marked ``slow`` — excluded from the default run (see ``pyproject.toml``),
executed by the dedicated CI chaos job.  Duration is tunable via
``REPRO_SOAK_SECONDS`` (default 30 s).
"""

import os
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec, wrap_stack
from repro.serve import CascadeServer, CircuitBreaker, RetryPolicy

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))

MIXED_PLAN = FaultPlan(
    seed=424242,
    specs=(
        FaultSpec(stage="host", kind="exception", probability=0.15),
        FaultSpec(stage="host", kind="latency", probability=0.10, delay_s=0.005),
        FaultSpec(stage="host", kind="corrupt", probability=0.05),
        FaultSpec(stage="dmu", kind="exception", probability=0.02),
        FaultSpec(stage="bnn", kind="latency", probability=0.05, delay_s=0.002),
        FaultSpec(stage="bnn", kind="exception", probability=0.01),
    ),
)


@pytest.mark.slow
def test_soak_mixed_faults(chaos):
    threads_before = set(threading.enumerate())
    images = chaos.make_images(256, seed=11)
    bnn_fn, dmu, host_fn, injector = wrap_stack(
        MIXED_PLAN, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
    )
    queue_capacity = 512
    server = CascadeServer(
        bnn_fn, dmu, host_fn,
        max_batch_size=16,
        host_batch_size=4,
        host_queue_capacity=queue_capacity,
        num_host_workers=2,
        deadline_s=5.0,
        retry=RetryPolicy(max_retries=2, base_delay_s=0.001, max_delay_s=0.01),
        breaker=CircuitBreaker(failure_threshold=8, cooldown_s=0.1),
    )

    futures = []
    deadline = time.monotonic() + SOAK_SECONDS
    i = 0
    try:
        while time.monotonic() < deadline:
            futures.append(server.submit(images[i % len(images)]))
            i += 1
            if i % 64 == 0:
                time.sleep(0.002)  # open-loop pacing; keeps queues bounded
        # Server must still be alive at the end of the soak window.
        assert not server._closed
        results, errors = chaos.settle(futures, timeout=60.0)
    finally:
        server.close(timeout=30.0)

    snapshot = server.snapshot()
    submitted = len(futures)
    assert submitted > 0

    # Every request reached exactly one terminal state; books balance.
    assert len(results) + len(errors) == submitted
    assert snapshot.submitted == submitted
    assert snapshot.accepted + snapshot.rerun + snapshot.degraded == snapshot.completed
    assert snapshot.completed + snapshot.failed == submitted
    assert snapshot.in_flight == 0

    # Queues stayed bounded (max observed depth never exceeded capacity).
    assert snapshot.queues
    for q in snapshot.queues.values():
        assert q.max_depth <= q.capacity

    # The mixed plan really exercised every stage.
    counts = injector.log.counts()
    assert counts.get("host", 0) > 0
    assert counts.get("bnn", 0) > 0

    # close() joined every worker: no thread leak.
    time.sleep(0.05)
    leaked = set(threading.enumerate()) - threads_before
    assert not leaked, f"leaked threads: {leaked}"
