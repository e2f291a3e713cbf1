"""CascadeServer with the process-parallel host pool (host_workers=N)."""

import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import DecisionMakingUnit
from repro.parallel import ParallelHostRunner
from repro.serve import CascadeServer
from repro.serve.resilience import ServerClosed
from repro.serve.metrics import ServerMetrics

NUM_CLASSES = 10


def make_dmu(threshold: float = 0.7) -> DecisionMakingUnit:
    weights = np.zeros(NUM_CLASSES)
    weights[0], weights[1] = 4.0, -4.0
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def make_images(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, NUM_CLASSES, 1, 1))


def bnn_scores_fn(images: np.ndarray) -> np.ndarray:
    return images.reshape(len(images), NUM_CLASSES)


def host_predict_fn(images: np.ndarray) -> np.ndarray:
    return (images.reshape(len(images), NUM_CLASSES).argmax(axis=1) + 1) % NUM_CLASSES


def flaky_host(images: np.ndarray) -> np.ndarray:
    if float(images.max()) > 1e5:  # any shard carrying the poison image fails
        raise RuntimeError("injected host fault")
    return host_predict_fn(images)


def hang_host(flag: str, images: np.ndarray) -> np.ndarray:
    """Host callable that touches *flag*, then hangs: the test waits on the file."""
    Path(flag).touch()
    time.sleep(600)
    return host_predict_fn(images)


class TestParallelHostServer:
    def test_answers_match_serial_host_and_books_balance(self):
        images = make_images(80)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            host_workers=2,
        ) as server:
            results = server.classify_many(list(images), timeout=30.0)
        snap = server.snapshot()
        assert snap.submitted == 80
        assert snap.accepted + snap.rerun + snap.degraded + snap.failed == snap.submitted
        for image, result in zip(images, results):
            if result.source == "host":
                assert result.prediction == host_predict_fn(image[None])[0]

    def test_per_worker_counters_cover_all_reruns(self):
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            host_workers=2,
        ) as server:
            server.classify_many(list(make_images(80)), timeout=30.0)
            snap = server.snapshot()
        assert snap.host_parallel_workers == 2
        assert sum(snap.host_worker_images.values()) == snap.rerun
        assert set(snap.host_worker_images) <= {0, 1}

    def test_queue_wait_stage_is_split_from_inference(self):
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn,
            host_workers=2,
        ) as server:
            server.classify_many(list(make_images(80)), timeout=30.0)
            snap = server.snapshot()
        if snap.rerun:
            wait = snap.stages["host_queue_wait"]
            host = snap.stages["host"]
            assert wait.count == snap.rerun
            assert host.count == snap.rerun
            assert wait.total_seconds >= 0.0

    def test_env_var_selects_parallel_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn
        ) as server:
            assert server._host_runner is not None
            assert server._host_runner.n_workers == 2
            assert server._owns_host_runner
            server.classify_many(list(make_images(20)), timeout=30.0)
        assert server._host_runner._closed  # server owns + closes the pool

    def test_caller_owned_runner_is_not_closed_by_server(self):
        with ParallelHostRunner(predict_fn=host_predict_fn, n_workers=2) as pool:
            with CascadeServer(
                bnn_scores_fn, make_dmu(), pool
            ) as server:
                server.classify_many(list(make_images(40)), timeout=30.0)
                assert server._host_runner is pool
                assert not server._owns_host_runner
            assert not pool._closed  # still usable after the server is gone
            assert pool(make_images(4)).shape == (4,)

    def test_host_fault_in_pool_retries_then_degrades(self):
        """The pool's StageFailure plugs into the retry/degrade contract."""
        images = make_images(40)
        images[:, :] = np.abs(images)  # keep DMU flags plentiful
        images[0] = 1e6  # poison: every host call on a batch with image 0 raises
        metrics = ServerMetrics()
        with CascadeServer(
            bnn_scores_fn, make_dmu(threshold=0.99), flaky_host,
            host_workers=2, metrics=metrics,
        ) as server:
            results = server.classify_many(list(images), timeout=30.0)
        snap = metrics.snapshot()
        assert len(results) == 40  # nobody stranded, nobody errored out
        assert snap.accepted + snap.rerun + snap.degraded + snap.failed == snap.submitted
        assert snap.faults.get("host", 0) >= 1
        assert snap.degraded >= 1  # poisoned batch fell back to BNN answers

    def test_serial_default_has_no_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        with CascadeServer(
            bnn_scores_fn, make_dmu(), host_predict_fn
        ) as server:
            assert server._host_runner is None
            server.classify_many(list(make_images(10)), timeout=30.0)
            assert server.snapshot().host_parallel_workers == 0

    def test_close_with_a_hung_host_worker_strands_nothing(self, tmp_path):
        flag = tmp_path / "hung"
        server = CascadeServer(
            bnn_scores_fn, make_dmu(), partial(hang_host, str(flag)),
            host_workers=1,
        )
        # Equal top scores: confidence 0.5 < 0.7, so the host must rerun it.
        future = server.submit(np.zeros((NUM_CLASSES, 1, 1)))
        deadline = time.monotonic() + 60.0
        while not flag.exists():
            assert time.monotonic() < deadline, "the host worker never started"
            time.sleep(0.01)
        closer = threading.Thread(target=server.close, kwargs={"timeout": 1.0}, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert future.done()
        try:
            assert future.result(timeout=0).source == "degraded"
        except ServerClosed:
            pass
        snap = server.snapshot()
        assert snap.check() == [] and snap.submitted == 1
