"""ParallelHostRunner: bit-identical sharding, fault containment, self-heal."""

import os
import signal
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.host_models import build_model_a, build_model_b, build_model_c
from repro.parallel import ParallelHostRunner, resolve_host_workers
from repro.serve.resilience import StageFailure

BUILDERS = {"a": build_model_a, "b": build_model_b, "c": build_model_c}


def make_net(model: str = "a", scale: float = 0.25, seed: int = 0):
    net = BUILDERS[model](scale=scale, rng=np.random.default_rng(seed))
    net.eval_mode()
    return net


def make_images(n: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32))


def crashy_host(images: np.ndarray) -> np.ndarray:
    """Host callable that kills its own process mid-batch on a marker image."""
    if float(images[0].max()) > 1e5:
        os._exit(13)
    return np.full(len(images), 7, dtype=np.int64)


def sleepy_host(images: np.ndarray) -> np.ndarray:
    """Host callable that hangs on a marker image, else thresholds sums."""
    if float(images.max()) > 1e5:
        time.sleep(600)
    return (images.reshape(len(images), -1).sum(axis=1) > 0).astype(np.int64)


def byte_sum_host(images: np.ndarray) -> np.ndarray:
    """Host callable over any dtype: per-image element sum, mod 7."""
    return images.reshape(len(images), -1).astype(np.int64).sum(axis=1) % 7


def zeros_host(images: np.ndarray) -> np.ndarray:
    return np.zeros(len(images), dtype=np.int64)


def sign_host(images: np.ndarray) -> np.ndarray:
    return np.asarray([int(img.sum() > 0) for img in images])


def flaky_host(images: np.ndarray) -> np.ndarray:
    if float(images[0].max()) > 1e5:
        raise RuntimeError("boom")
    return np.zeros(len(images), dtype=np.int64)


def hang_host(flag: str, images: np.ndarray) -> np.ndarray:
    """Host callable that touches *flag*, then hangs: the test waits on the file."""
    Path(flag).touch()
    time.sleep(600)
    return np.zeros(len(images), dtype=np.int64)


def pipe_host(flags: str, fifo: str, images: np.ndarray) -> np.ndarray:
    """Host callable that touches a file in *flags*, then blocks opening
    the FIFO *fifo* for reading, which no writer ever opens."""
    Path(flags, str(os.getpid())).touch()
    with open(fifo, "rb") as pipe:
        pipe.read()
    return np.zeros(len(images), dtype=np.int64)


def wait_for(path: Path, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


class TestEquivalence:
    @pytest.mark.parametrize("model", ["a", "b", "c"])
    def test_bit_identical_across_worker_counts(self, model):
        net = make_net(model)
        x = make_images(37)  # uneven: 3 micro-batch chunks over k workers
        serial = net.compile_inference().predict_scores(x)
        for k in (1, 2, 4):
            with ParallelHostRunner(model=net, n_workers=k) as pool:
                np.testing.assert_array_equal(pool.predict_scores(x), serial)
                np.testing.assert_array_equal(pool(x), serial.argmax(axis=1))

    def test_empty_batch(self):
        net = make_net()
        with ParallelHostRunner(model=net, n_workers=2) as pool:
            assert pool(make_images(0)).shape == (0,)
            scores = pool.predict_scores(make_images(0))
            assert scores.shape[0] == 0

    def test_callable_mode_matches_contiguous_shards(self):
        x = make_images(23)
        with ParallelHostRunner(predict_fn=sign_host, n_workers=3) as pool:
            np.testing.assert_array_equal(pool(x), sign_host(x))

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_one_byte_dtypes_cross_the_pipe_whole(self, dtype):
        # 40000 rows of 12 bytes each: the byte count on the wire must be
        # nbytes, not the length of the first axis.
        rng = np.random.default_rng(5)
        x = rng.integers(0, 256, size=(40000, 3, 4)).astype(dtype)
        with ParallelHostRunner(predict_fn=byte_sum_host, n_workers=2) as pool:
            np.testing.assert_array_equal(pool(x), byte_sum_host(x))
            np.testing.assert_array_equal(pool(x[:5]), byte_sum_host(x[:5]))
            assert [s["replacements"] for s in pool.worker_stats()] == [0, 0]

    def test_shard_size_change_keeps_bit_identity(self):
        net = make_net()
        serial = net.compile_inference()
        with ParallelHostRunner(model=net, n_workers=2) as pool:
            small, big = make_images(4), make_images(64)
            np.testing.assert_array_equal(
                pool.predict_scores(small), serial.predict_scores(small)
            )
            np.testing.assert_array_equal(
                pool.predict_scores(big), serial.predict_scores(big)
            )

    def test_worker_stats_account_for_all_images(self):
        net = make_net()
        with ParallelHostRunner(model=net, n_workers=2) as pool:
            pool(make_images(40))
            assert sum(s["images"] for s in pool.worker_stats()) == 40


class TestProperties:
    @given(n=st.integers(0, 80))
    @settings(max_examples=12, deadline=None)
    def test_any_batch_size_matches_serial(self, shared_pool, n):
        net, serial, pool = shared_pool
        x = make_images(n, seed=n)
        np.testing.assert_array_equal(
            pool.predict_scores(x), serial.predict_scores(x)
        )


@pytest.fixture(scope="module")
def shared_pool():
    net = make_net()
    serial = net.compile_inference()
    with ParallelHostRunner(model=net, n_workers=3) as pool:
        yield net, serial, pool


class TestFaultContainment:
    def test_compute_error_is_contained_to_shard(self):
        x = make_images(20)
        x[0, 0] = 1e6  # worker 0's shard carries the poison image
        with ParallelHostRunner(predict_fn=flaky_host, n_workers=2) as pool:
            report = pool.run_sharded(x)
            assert len(report.errors) == 1
            bad = report.errors[0]
            assert isinstance(bad.error, StageFailure) and bad.error.stage == "host"
            assert bad.start == 0  # only the poisoned shard failed
            ok = [o for o in report.outcomes if o.ok]
            assert ok and all(o.values is not None for o in ok)
            # worker survived its own exception: same pool, clean batch
            assert pool.run_sharded(make_images(20)).ok
            assert all(s["replacements"] == 0 for s in pool.worker_stats())

    def test_worker_death_mid_batch_fails_only_that_shard_and_heals(self):
        x = make_images(20)
        x[0, 0] = 1e6  # marker lands in worker 0's shard -> os._exit mid-batch
        with ParallelHostRunner(predict_fn=crashy_host, n_workers=2) as pool:
            pids = [s["pid"] for s in pool.worker_stats()]
            report = pool.run_sharded(x)
            assert len(report.errors) == 1 and report.errors[0].worker == 0
            assert isinstance(report.errors[0].error, StageFailure)
            assert report.outcomes[1].ok  # sibling shard still answered
            # crash-replace: fresh pid, and the next batch fully succeeds
            clean = pool.run_sharded(make_images(20))
            assert clean.ok
            stats = pool.worker_stats()
            assert stats[0]["replacements"] == 1
            assert stats[0]["pid"] != pids[0] and stats[0]["alive"]

    def test_hung_worker_times_out_alone_and_pool_recovers(self):
        # 64 float64 images: each worker's 32-image shard (768 KiB) is
        # larger than a pipe buffer, so dispatch blocks until the worker
        # reads.  The next call completes only because the timed-out
        # worker was killed and replaced rather than left unread.
        x = make_images(64)
        x[0, 0] = 1e6  # marker lands in worker 0's shard
        with ParallelHostRunner(
            predict_fn=sleepy_host, n_workers=2, shard_timeout_s=0.5
        ) as pool:
            report = pool.run_sharded(x)
            assert len(report.errors) == 1
            bad = report.errors[0]
            assert bad.worker == 0 and (bad.start, bad.stop) == (0, 32)
            assert isinstance(bad.error, StageFailure)
            assert "timeout" in str(bad.error)
            sibling = report.outcomes[1]
            assert sibling.ok and (sibling.start, sibling.stop) == (32, 64)
            np.testing.assert_array_equal(sibling.values, sleepy_host(x[32:]))
            assert [s["replacements"] for s in pool.worker_stats()] == [1, 0]

            clean = make_images(64, seed=2)
            answers = []
            caller = threading.Thread(target=lambda: answers.append(pool(clean)))
            caller.start()
            caller.join(timeout=60.0)
            assert not caller.is_alive() and len(answers) == 1
            np.testing.assert_array_equal(answers[0], sleepy_host(clean))

    def test_strict_facade_raises_stage_failure(self):
        x = make_images(20)
        x[0, 0] = 1e6
        with ParallelHostRunner(predict_fn=crashy_host, n_workers=2) as pool:
            with pytest.raises(StageFailure):
                pool(x)
            np.testing.assert_array_equal(
                pool(make_images(4)), np.full(4, 7)
            )

    def test_kill_between_batches_heals_at_dispatch(self):
        with ParallelHostRunner(predict_fn=zeros_host, n_workers=2) as pool:
            pool(make_images(8))
            os.kill(pool.worker_stats()[1]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pool.worker_stats()[1]["alive"] and time.monotonic() < deadline:
                time.sleep(0.01)
            # dead worker is replaced before dispatch: no shard is lost
            assert pool.run_sharded(make_images(8)).ok

    def test_ensure_healthy_replaces_dead_workers(self):
        with ParallelHostRunner(predict_fn=zeros_host, n_workers=2) as pool:
            pool(make_images(4))
            assert pool.ping() == [True, True]
            os.kill(pool.worker_stats()[0]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pool.worker_stats()[0]["alive"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.ensure_healthy() == 1
            assert pool.ping() == [True, True]

    def test_close_does_not_wait_for_a_call_on_a_hung_worker(self, tmp_path):
        flag = tmp_path / "hung"
        pool = ParallelHostRunner(predict_fn=partial(hang_host, str(flag)), n_workers=1)
        raised = []

        def call():
            try:
                pool(make_images(2))
            except StageFailure as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        wait_for(flag)  # the worker is inside the hang, the call holds the pool
        closer = threading.Thread(target=pool.close, kwargs={"timeout": 1.0}, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        caller.join(timeout=10.0)
        assert not caller.is_alive() and len(raised) == 1
        assert raised[0].stage == "host"
        assert pool.worker_stats()[0]["alive"] is False

    def test_close_timeout_bounds_the_whole_close_with_two_hung_workers(self, tmp_path):
        flags, fifo = tmp_path / "flags", tmp_path / "fifo"
        flags.mkdir()
        os.mkfifo(fifo)
        pool = ParallelHostRunner(
            predict_fn=partial(pipe_host, str(flags), str(fifo)), n_workers=2
        )
        raised = []

        def call():
            try:
                pool(make_images(4))
            except StageFailure as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        deadline = time.monotonic() + 60.0
        while len(list(flags.iterdir())) < 2:  # both workers are inside the call
            assert time.monotonic() < deadline, "the workers never entered the call"
            time.sleep(0.01)
        start = time.monotonic()
        pool.close(timeout=0.5)
        assert time.monotonic() - start < 0.9
        caller.join(timeout=10.0)
        assert not caller.is_alive() and len(raised) == 1
        assert [w["alive"] for w in pool.worker_stats()] == [False, False]

    def test_closed_pool_rejects_work(self):
        net = make_net()
        pool = ParallelHostRunner(model=net, n_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool(make_images(2))


class TestResize:
    def test_bit_identity_across_mid_stream_resize(self):
        """Growing/shrinking the pool between batches never changes answers.

        The autoscaler calls ``resize`` while traffic is in flight; shard
        boundaries are per-batch, so every pool size must reproduce the
        serial scores bit for bit.
        """
        net = make_net()
        x = make_images(37)
        serial = net.compile_inference().predict_scores(x)
        with ParallelHostRunner(model=net, n_workers=2) as pool:
            np.testing.assert_array_equal(pool.predict_scores(x), serial)
            assert pool.resize(4) == 4 and pool.n_workers == 4
            np.testing.assert_array_equal(pool.predict_scores(x), serial)
            assert pool.resize(1) == 1 and pool.n_workers == 1
            np.testing.assert_array_equal(pool.predict_scores(x), serial)
            assert pool.ping() == [True]

    def test_resize_is_idempotent_and_validated(self):
        with ParallelHostRunner(predict_fn=zeros_host, n_workers=2) as pool:
            assert pool.resize(2) == 2  # no-op keeps the same workers
            with pytest.raises(ValueError):
                pool.resize(0)
            assert pool.n_workers == 2
        with pytest.raises(RuntimeError, match="closed"):
            pool.resize(3)

    def test_resize_survives_interleaved_worker_crash(self):
        """A shard-killing batch between resizes leaves a healed, correct pool."""
        x = make_images(20)
        x[0, 0] = 1e6  # poison image: worker 0 os._exits mid-batch
        with ParallelHostRunner(predict_fn=crashy_host, n_workers=2) as pool:
            pool.resize(3)
            report = pool.run_sharded(x)
            assert len(report.errors) == 1
            pool.resize(2)
            np.testing.assert_array_equal(pool(make_images(6)), np.full(6, 7))
            assert pool.n_workers == 2


class TestConfig:
    def test_resolve_host_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        assert resolve_host_workers(None) is None
        assert resolve_host_workers(3) == 3
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        assert resolve_host_workers(None) == 2
        monkeypatch.setenv("REPRO_HOST_WORKERS", "0")
        assert resolve_host_workers(None) is None

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            ParallelHostRunner()
        with pytest.raises(ValueError):
            ParallelHostRunner(model=make_net(), predict_fn=lambda x: x)
