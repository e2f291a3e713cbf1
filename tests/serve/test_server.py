"""Cascade server: semantics, backpressure, degradation, clean shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.core import DecisionMakingUnit, MultiPrecisionPipeline
from repro.serve import AdaptiveThresholdController, CascadeServer, StageFailure

NUM_CLASSES = 10


def make_dmu(threshold: float = 0.7) -> DecisionMakingUnit:
    weights = np.zeros(NUM_CLASSES)
    weights[0], weights[1] = 4.0, -4.0  # read the sorted top-2 margin
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def make_images(n: int, seed: int = 0) -> np.ndarray:
    """4-D images whose channels encode the BNN score vector directly."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, NUM_CLASSES, 1, 1))


def bnn_scores_fn(images: np.ndarray) -> np.ndarray:
    return images.reshape(len(images), NUM_CLASSES)


def host_predict_fn(images: np.ndarray) -> np.ndarray:
    # Deliberately different from the BNN's argmax so rerun is observable.
    return (images.reshape(len(images), NUM_CLASSES).argmax(axis=1) + 1) % NUM_CLASSES


class StubFoldedBNN:
    def class_scores(self, images, batch_size=128):
        return bnn_scores_fn(images)


class StubHostNet:
    def predict_classes(self, images, batch_size=256):
        return host_predict_fn(images)


def serve_all(server: CascadeServer, images: np.ndarray):
    return server.classify_many(list(images), timeout=10.0)


class TestCascadeSemantics:
    def test_matches_offline_pipeline(self):
        """The served answers are exactly the offline cascade's answers."""
        images = make_images(100)
        dmu = make_dmu(threshold=0.7)
        offline = MultiPrecisionPipeline(StubFoldedBNN(), dmu, StubHostNet()).classify(images)
        with CascadeServer(
            bnn_scores_fn, dmu, host_predict_fn,
            host_queue_capacity=256,
        ) as server:
            results = serve_all(server, images)

        assert [r.prediction for r in results] == offline.predictions.tolist()
        assert [r.bnn_prediction for r in results] == offline.bnn_predictions.tolist()
        assert [r.source == "host" for r in results] == offline.rerun_mask.tolist()
        np.testing.assert_allclose(
            [r.confidence for r in results], offline.confidence, rtol=1e-12
        )
        assert all(r.latency_seconds >= 0 for r in results)

    def test_all_accept_and_all_rerun_extremes(self):
        images = make_images(40)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            controller=0.0,
        ) as server:
            results = serve_all(server, images)
        assert {r.source for r in results} == {"bnn"}

        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            controller=1.0, host_queue_capacity=256,
        ) as server:
            results = serve_all(server, images)
        assert {r.source for r in results} == {"host"}
        assert all(r.rerun for r in results)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            CascadeServer(bnn_scores_fn, make_dmu(), host_predict_fn, controller=1.5)


class TestBackpressureAndDegradation:
    def _slow_host(self, images):
        time.sleep(0.002 * len(images))
        return host_predict_fn(images)

    def test_bounded_host_queue_never_exceeded(self):
        capacity = 4
        images = make_images(80)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), self._slow_host,
            controller=1.0,  # flag everything: worst case for the queue
            host_queue_capacity=capacity, host_batch_size=2,
        ) as server:
            results = serve_all(server, images)
            snapshot = server.snapshot()
        assert snapshot.queues["host"].max_depth <= capacity
        assert len(results) == len(images)

    def test_overload_degrades_to_bnn_answer(self):
        images = make_images(120)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), self._slow_host,
            controller=1.0,
            host_queue_capacity=2, host_batch_size=1,
        ) as server:
            results = serve_all(server, images)
            snapshot = server.snapshot()
        degraded = [r for r in results if r.source == "degraded"]
        assert degraded, "tiny queue + slow host must shed load"
        for r in degraded:
            assert r.prediction == r.bnn_prediction
        assert snapshot.degraded == len(degraded)
        assert snapshot.completed == len(images)

    def test_no_degradation_with_ample_capacity(self):
        images = make_images(60)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            host_queue_capacity=256,
        ) as server:
            results = serve_all(server, images)
        assert all(r.source != "degraded" for r in results)


class TestAdaptiveIntegration:
    def test_controller_drives_threshold_and_metrics_record_it(self):
        controller = AdaptiveThresholdController(
            initial_threshold=0.97, target_rerun_ratio=0.3, gain=0.1
        )
        images = make_images(600, seed=3)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            controller=controller, max_batch_size=32,
            host_queue_capacity=512,
        ) as server:
            serve_all(server, images)
            snapshot = server.snapshot()
        assert snapshot.threshold == controller.threshold
        assert len(snapshot.threshold_trajectory) > 10
        assert snapshot.threshold_trajectory[-1] < 0.97  # walked down from naive
        assert abs(controller.observed_rerun_ratio - 0.3) < 0.15


class TestShutdown:
    def test_close_leaves_no_dangling_threads(self):
        before = set(threading.enumerate())
        server = CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            num_host_workers=3,
        )
        futures = [server.submit(img) for img in make_images(50)]
        server.close()
        # Every request accepted before close() is answered.
        assert all(f.result(timeout=1.0) is not None for f in futures)
        leftovers = set(threading.enumerate()) - before
        assert not leftovers, f"dangling worker threads: {leftovers}"

    def test_close_idempotent_and_submit_rejected_after(self):
        server = CascadeServer(bnn_scores_fn, make_dmu(), host_predict_fn)
        server.close()
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(make_images(1)[0])

    def test_context_manager_closes(self):
        before = set(threading.enumerate())
        with CascadeServer(bnn_scores_fn, make_dmu(), host_predict_fn) as server:
            server.classify_many(list(make_images(10)))
        assert set(threading.enumerate()) - before == set()

    def test_close_with_inflight_requests_fails_their_futures(self):
        """Regression: close() used to leave in-flight futures unresolved
        forever.  Now stranded requests fail with ServerClosed."""
        from repro.serve import ServerClosed

        entered = threading.Event()
        release = threading.Event()

        def hanging_host(images):
            entered.set()
            release.wait(5.0)
            return host_predict_fn(images)

        server = CascadeServer(
            bnn_scores_fn, make_dmu(threshold=1.0), hanging_host,
            host_batch_size=1, num_host_workers=1,
            host_workers=0,  # events must fire in-process; pin the serial host
        )
        try:
            futures = [server.submit(img) for img in make_images(12)]
            assert entered.wait(5.0), "host worker never started"
            server.close(timeout=0.3)
        finally:
            release.set()
        # Every future is terminal: no stranded request can hang a caller.
        for f in futures:
            assert f.done(), "close() left a future unresolved"
        stranded = [f for f in futures if f.exception() is not None]
        for f in stranded:
            assert isinstance(f.exception(), ServerClosed)
        snapshot = server.snapshot()
        assert snapshot.failed == len(stranded)
        assert snapshot.completed + snapshot.failed == snapshot.submitted

    def test_close_timeout_bounds_the_whole_call(self):
        """Regression: every hung host thread used to get its own join
        timeout, so close(0.5) with four of them took over 2 s."""
        release = threading.Event()

        def hanging_host(images):
            release.wait(10.0)
            return host_predict_fn(images)

        server = CascadeServer(
            bnn_scores_fn, make_dmu(threshold=1.0), hanging_host,
            host_batch_size=1, num_host_workers=4, host_workers=0,
        )
        try:
            futures = [server.submit(img) for img in make_images(12)]
            start = time.monotonic()
            server.close(timeout=0.5)
            elapsed = time.monotonic() - start
        finally:
            release.set()
        assert elapsed < 1.25
        assert all(f.done() for f in futures)
        assert server.snapshot().check() == []


class TestWorkConservingBatching:
    """The BNN worker pulls its own batch: no timer, no frozen batches."""

    def test_lone_request_resolves_without_any_timer_expiring(self):
        # Frozen clock: if the answer depended on a linger deadline
        # passing, the future would never resolve.
        with CascadeServer(
            bnn_scores_fn, make_dmu(threshold=0.0), host_predict_fn,
            clock=lambda: 0.0,
        ) as server:
            result = server.submit(make_images(1)[0]).result(timeout=10.0)
        assert result.source == "bnn"

    def test_requests_arriving_during_a_batch_form_the_next_batch(self):
        entered = threading.Event()
        release = threading.Event()
        calls: list[np.ndarray] = []

        def gated_bnn(images):
            calls.append(images)
            if len(calls) == 1:
                entered.set()
                release.wait(10.0)
            return bnn_scores_fn(images)

        images = make_images(21)
        server = CascadeServer(gated_bnn, make_dmu(threshold=0.0), host_predict_fn)
        try:
            futures = [server.submit(images[0])]
            assert entered.wait(10.0), "BNN worker never started"
            futures += [server.submit(img) for img in images[1:]]
        finally:
            release.set()
        for f in futures:
            f.result(timeout=10.0)
        server.close()
        assert [len(c) for c in calls] == [1, 20]
        np.testing.assert_array_equal(calls[1], images[1:])  # submit order

    def test_odd_shaped_image_fails_alone(self):
        """Regression: one malformed image in a batch used to fail every
        batch-mate, because the stage stacks the batch into one array."""
        entered = threading.Event()
        release = threading.Event()
        calls: list[int] = []

        def gated_bnn(images):
            calls.append(len(images))
            if len(calls) == 1:
                entered.set()
                release.wait(10.0)
            return bnn_scores_fn(images)

        good = make_images(6)
        bad = np.zeros((3, 16, 16))
        server = CascadeServer(gated_bnn, make_dmu(threshold=0.0), host_predict_fn)
        try:
            first = server.submit(good[0])
            assert entered.wait(10.0), "BNN worker never started"
            # Queued while the worker is busy, so they form one batch.
            futures = [server.submit(img) for img in good[1:3]]
            odd = server.submit(bad)
            futures += [server.submit(img) for img in good[3:]]
        finally:
            release.set()
        assert first.result(timeout=10.0).source == "bnn"
        results = [f.result(timeout=10.0) for f in futures]
        with pytest.raises(StageFailure) as failure:
            odd.result(timeout=10.0)
        server.close()
        snapshot = server.snapshot()

        assert failure.value.stage == "bnn"
        expected = bnn_scores_fn(good[1:]).argmax(axis=1).tolist()
        assert [r.prediction for r in results] == expected
        assert all(r.source == "bnn" for r in results)
        assert calls[0] == 1 and sorted(calls[1:]) == [1, 5]
        assert (snapshot.submitted, snapshot.accepted, snapshot.failed) == (7, 6, 1)
        assert snapshot.check() == []

    def test_dmu_fault_still_books_the_bnn_stage_time(self):
        """Regression: a raising DMU used to leave the batch's BNN
        compute out of the ``bnn`` stage timer."""

        class RaisingDMU:
            threshold = 0.7

            def confidence(self, scores):
                raise RuntimeError("dmu down")

        images = make_images(24)
        with CascadeServer(bnn_scores_fn, RaisingDMU(), host_predict_fn) as server:
            results = serve_all(server, images)
            snapshot = server.snapshot()
        assert all(r.source == "degraded" for r in results)
        assert snapshot.faults["dmu"] >= 1
        assert snapshot.stages["bnn"].count == len(images)
