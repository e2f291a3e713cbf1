"""Seeded chaos scenarios against the hardened CascadeServer.

Each scenario builds a :class:`repro.faults.FaultPlan`, injects it into
the conftest stack (scores + oracle host), and asserts the server's
robustness contract: no stranded futures, correct per-request error
results, books that balance (``accepted + rerun + degraded + failed ==
submitted``), and accuracy never below BNN-only while degraded.
"""

import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, wrap_stack
from repro.serve import (
    CascadeServer,
    CircuitBreaker,
    DeadlineExceeded,
    RetryPolicy,
    StageFailure,
)


def make_server(bnn_fn, dmu, host_fn, **kwargs):
    defaults = dict(host_queue_capacity=256)
    defaults.update(kwargs)
    return CascadeServer(bnn_fn, dmu, host_fn, **defaults)


def assert_books_balance(snapshot, submitted):
    assert snapshot.submitted == submitted
    assert snapshot.accepted + snapshot.rerun + snapshot.degraded == snapshot.completed
    assert snapshot.completed + snapshot.failed == submitted
    assert snapshot.in_flight == 0


def _run_rounds(server, images, round_size, settle):
    """Submit in awaited rounds of *round_size* (one BNN batch per round)."""
    results, errors = [], []
    for start in range(0, len(images), round_size):
        futures = [server.submit(img) for img in images[start:start + round_size]]
        r, e = settle(futures)
        results.extend(r)
        errors.extend(e)
    return results, errors


class TestHostCrashLoop:
    """Acceptance scenario: host raising on ~30% of calls."""

    PLAN = FaultPlan(
        seed=2018,
        specs=(FaultSpec(stage="host", kind="exception", probability=0.3),),
    )

    def _run(self, chaos, images):
        bnn_fn, dmu, host_fn, injector = wrap_stack(
            self.PLAN, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        with make_server(
            bnn_fn, dmu, host_fn,
            max_batch_size=8, host_batch_size=1,
            retry=RetryPolicy(max_retries=1, base_delay_s=0.001, max_delay_s=0.004),
            breaker=None,  # keep every flagged request on the host path
        ) as server:
            results, errors = _run_rounds(server, images, 8, chaos.settle)
            snapshot = server.snapshot()
        return results, errors, snapshot, injector

    def test_no_stranded_futures_and_99pct_answered(self, chaos):
        images = chaos.make_images(200, seed=1)
        results, errors, snapshot, injector = self._run(chaos, images)
        assert len(results) + len(errors) == len(images)  # all terminal
        assert not errors  # host faults degrade, never error
        assert len(results) >= 0.99 * len(images)
        assert_books_balance(snapshot, len(images))
        assert snapshot.faults.get("host", 0) == sum(
            1 for e in injector.log.for_stage("host") if e.kind == "exception"
        )
        assert snapshot.faults.get("host", 0) > 0, "plan must actually fire"

    def test_same_seed_reproduces_identical_fault_sequences(self, chaos):
        images = chaos.make_images(200, seed=1)
        _, _, snap_a, injector_a = self._run(chaos, images)
        _, _, snap_b, injector_b = self._run(chaos, images)
        for stage in ("bnn", "dmu", "host"):
            assert injector_a.log.for_stage(stage) == injector_b.log.for_stage(stage)
        assert snap_a.faults == snap_b.faults
        assert (snap_a.accepted, snap_a.rerun, snap_a.degraded, snap_a.failed) == (
            snap_b.accepted, snap_b.rerun, snap_b.degraded, snap_b.failed
        )

    def test_degraded_answers_are_the_bnn_answers(self, chaos):
        images = chaos.make_images(200, seed=1)
        results, _, snapshot, _ = self._run(chaos, images)
        degraded = [r for r in results if r.source == "degraded"]
        for r in degraded:
            assert r.prediction == r.bnn_prediction
        assert snapshot.degraded == len(degraded)


class TestBreakerDegradedMode:
    def test_host_down_trips_breaker_and_serves_bnn_only(self, chaos):
        plan = FaultPlan(
            seed=5, specs=(FaultSpec(stage="host", kind="exception", probability=1.0),)
        )
        bnn_fn, dmu, host_fn, _ = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(160, seed=2)
        with make_server(
            bnn_fn, dmu, host_fn,
            max_batch_size=8, host_batch_size=1,
            retry=RetryPolicy(max_retries=0),
            breaker=CircuitBreaker(failure_threshold=3, cooldown_s=60.0),
        ) as server:
            results, errors = _run_rounds(server, images, 8, chaos.settle)
            snapshot = server.snapshot()
            degraded_mode = server.degraded_mode
        assert not errors
        assert degraded_mode
        assert snapshot.breaker_trips >= 1
        assert snapshot.breaker_open_seconds > 0
        assert snapshot.rerun == 0  # host never succeeded
        assert snapshot.degraded > 0
        assert_books_balance(snapshot, len(images))
        # Eq. (2) floor: with the oracle host unavailable, every answer is
        # the BNN answer, so accuracy equals (never drops below) BNN-only.
        truth = chaos.true_labels(images)
        bnn_only = chaos.bnn_predictions(images)
        assert len(results) == len(images)
        predictions = np.array([r.prediction for r in results])
        # classify order == submit order per round, so compare sets per image
        accuracy = float(np.mean(predictions == truth))
        bnn_accuracy = float(np.mean(bnn_only == truth))
        assert accuracy == pytest.approx(bnn_accuracy)

    def test_breaker_recovers_after_cooldown(self, chaos):
        # The first 2 host calls fail; afterwards the host is healthy, so a
        # single half-open probe after the cooldown closes the breaker again.
        plan = FaultPlan(
            seed=6,
            specs=(
                FaultSpec(stage="host", kind="exception", probability=1.0, max_faults=2),
            ),
        )
        bnn_fn, dmu, host_fn, _ = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(320, seed=3)
        with make_server(
            bnn_fn, dmu, host_fn,
            max_batch_size=8, host_batch_size=1,
            retry=RetryPolicy(max_retries=0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.05),
        ) as server:
            results, errors = _run_rounds(server, images[:160], 8, chaos.settle)
            time.sleep(0.06)  # guarantee the cooldown elapses before the rest
            r2, e2 = _run_rounds(server, images[160:], 8, chaos.settle)
            results.extend(r2)
            errors.extend(e2)
            snapshot = server.snapshot()
            final_state = server._breaker.state
        assert not errors
        assert snapshot.breaker_trips >= 1
        assert final_state == CircuitBreaker.CLOSED
        assert snapshot.rerun > 0, "host answers must resume after recovery"
        assert_books_balance(snapshot, len(images))


class TestDmuFault:
    def test_dmu_exception_degrades_to_bnn_argmax(self, chaos):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(stage="dmu", kind="exception", probability=1.0),)
        )
        bnn_fn, dmu, host_fn, injector = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(64, seed=4)
        with make_server(bnn_fn, dmu, host_fn, max_batch_size=8) as server:
            results, errors = _run_rounds(server, images, 8, chaos.settle)
            snapshot = server.snapshot()
        assert not errors
        assert {r.source for r in results} == {"degraded"}
        expected = chaos.bnn_predictions(images)
        assert [r.prediction for r in results] == list(expected)
        assert snapshot.faults.get("dmu", 0) == len(injector.log.for_stage("dmu"))
        assert snapshot.accepted == snapshot.rerun == 0
        assert_books_balance(snapshot, len(images))


class TestBnnFaults:
    def test_bnn_exception_fails_only_the_affected_batch(self, chaos):
        # Exactly one BNN batch raises (the second).
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(stage="bnn", kind="exception", probability=1.0,
                          start_call=1, max_faults=1),
            ),
        )
        bnn_fn, dmu, host_fn, _ = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(32, seed=5)
        with make_server(bnn_fn, dmu, host_fn, max_batch_size=8) as server:
            all_results, all_errors = [], []
            for start in range(0, 32, 8):
                futures = [server.submit(img) for img in images[start:start + 8]]
                r, e = chaos.settle(futures)
                all_results.extend(r)
                all_errors.extend(e)
            snapshot = server.snapshot()
        assert len(all_errors) == 8, "exactly one batch of 8 fails"
        assert all(isinstance(e, StageFailure) and e.stage == "bnn" for e in all_errors)
        assert len(all_results) == 24
        assert snapshot.failed == 8
        assert snapshot.faults.get("bnn", 0) == 1
        assert_books_balance(snapshot, 32)

    def test_bnn_latency_spike_slows_but_answers_everything(self, chaos):
        plan = FaultPlan(
            seed=8,
            specs=(
                FaultSpec(stage="bnn", kind="latency", probability=0.5, delay_s=0.01),
            ),
        )
        bnn_fn, dmu, host_fn, injector = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(80, seed=6)
        with make_server(bnn_fn, dmu, host_fn, max_batch_size=8) as server:
            results, errors = _run_rounds(server, images, 8, chaos.settle)
            snapshot = server.snapshot()
        assert not errors
        assert len(results) == len(images)
        assert injector.log.counts()["bnn"] > 0, "spikes must actually fire"
        assert snapshot.faults == {}  # latency is not an exception
        assert_books_balance(snapshot, len(images))


class TestHangPlusDeadline:
    def test_host_hang_degrades_queued_requests_past_deadline(self, chaos):
        plan = FaultPlan(
            seed=2,
            specs=(
                FaultSpec(stage="host", kind="hang", probability=1.0,
                          delay_s=0.4, max_faults=1),
            ),
        )
        bnn_fn, dmu, host_fn, _ = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        # Flag everything to the host (threshold 1.0) so the hang matters.
        images = chaos.make_images(24, seed=7)
        with make_server(
            bnn_fn, dmu, host_fn,
            controller=1.0, max_batch_size=24, host_batch_size=1,
            deadline_s=0.15,
        ) as server:
            futures = [server.submit(img) for img in images]
            results, errors = chaos.settle(futures)
            snapshot = server.snapshot()
        assert not errors, "BNN answers exist, so lateness degrades, never errors"
        assert len(results) == len(images)
        assert snapshot.deadline_missed > 0
        degraded = [r for r in results if r.source == "degraded"]
        assert degraded
        for r in degraded:
            assert r.prediction == r.bnn_prediction
        assert_books_balance(snapshot, len(images))

    def test_bnn_hang_fails_waiting_batches_with_deadline_exceeded(self, chaos):
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(stage="bnn", kind="hang", probability=1.0,
                          delay_s=0.4, max_faults=1),
            ),
        )
        bnn_fn, dmu, host_fn, _ = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(32, seed=8)
        with make_server(
            bnn_fn, dmu, host_fn,
            max_batch_size=8, deadline_s=0.1,
        ) as server:
            futures = [server.submit(img) for img in images]
            results, errors = chaos.settle(futures)
            snapshot = server.snapshot()
        assert len(results) + len(errors) == len(images)
        assert errors, "batches queued behind the hang must miss the deadline"
        assert all(isinstance(e, DeadlineExceeded) for e in errors)
        assert snapshot.deadline_missed >= len(errors)
        assert_books_balance(snapshot, len(images))


class TestCorruptFaults:
    def test_corrupt_host_output_still_terminates_cleanly(self, chaos):
        plan = FaultPlan(
            seed=4,
            specs=(FaultSpec(stage="host", kind="corrupt", probability=0.5),),
        )
        bnn_fn, dmu, host_fn, injector = wrap_stack(
            plan, chaos.bnn_scores_fn, chaos.make_dmu(), chaos.host_predict_fn
        )
        images = chaos.make_images(80, seed=9)
        with make_server(
            bnn_fn, dmu, host_fn, controller=1.0, max_batch_size=8, host_batch_size=4,
        ) as server:
            results, errors = _run_rounds(server, images, 8, chaos.settle)
            snapshot = server.snapshot()
        assert not errors
        assert len(results) == len(images)
        assert injector.log.counts()["host"] > 0
        assert_books_balance(snapshot, len(images))
