"""The one child-process channel: handshake, requests, raw arrays, teardown.

:class:`repro.parallel.child.Child` carries both the host pool's workers
and the cascade replicas, so its rules are tested once here on toy
handlers, then through :class:`~repro.net.router.ProcessReplica` for the
replica's raw image transport, and end to end for the orphan guard.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.net.bench import make_oracle_images, oracle_replica_kwargs
from repro.net.router import ProcessReplica, ReplicaFailure
from repro.parallel import default_start_method
from repro.parallel.child import Child
from repro.serve.resilience import ServerClosed
from repro.serve.server import CascadeServer

SRC = Path(__file__).resolve().parents[2] / "src"


def toy_handler(flag: str | None = None, info=None):
    """``sum`` answers at once, ``later`` from a future, ``hang`` never;
    ``exit`` raises ``SystemExit``.  Reports *info* when ready."""
    later: list[Future] = []

    def handle(kind, *fields, array=None):
        if kind == "sum":
            return int(array.astype(np.int64).sum()) + sum(fields)
        if kind == "echo":
            return array.shape, array.dtype.str, array.flags.writeable, array.tobytes()
        if kind == "later":
            future = Future()
            later.append(future)
            return future
        if kind == "release":
            for future in later:
                future.set_result("released")
            return len(later)
        if kind == "hang":
            Path(flag).touch()
            time.sleep(600)
        if kind == "exit":
            sys.exit(3)
        raise ValueError(f"no such request {kind!r}")

    return handle, None, info


def broken_handler():
    raise RuntimeError("no handler for you")


class ToyFailure(RuntimeError):
    """The toy children's typed error."""


def spawn_toy(**kwargs) -> Child:
    kwargs.setdefault("error", ToyFailure)
    return Child(
        partial(toy_handler, kwargs.pop("flag", None), kwargs.pop("info", None)),
        name="toy", start_method=default_start_method(), **kwargs,
    )


def wait_for(path: Path, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


@pytest.mark.parametrize("reader_thread", [True, False], ids=["reader", "caller_reads"])
class TestChild:
    def test_requests_answer_in_any_order(self, reader_thread):
        child = spawn_toy(reader_thread=reader_thread)
        try:
            assert child.alive() and child.ping(timeout=10.0)
            held = child.request("later")
            x = np.arange(12, dtype=np.uint8).reshape(3, 4)
            assert child.result(child.request("sum", 5, array=x), 10.0) == 71
            assert not held.done()
            assert child.result(child.request("release"), 10.0) == 1
            assert child.result(held, 10.0) == "released"
        finally:
            child.close(timeout=5.0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float32, ">i4"])
    def test_arrays_cross_raw_and_whole(self, reader_thread, dtype):
        x = np.arange(4 * 5 * 6).reshape(4, 5, 6).astype(dtype)
        view = x.transpose(2, 0, 1)[::2]  # not C-contiguous
        child = spawn_toy(reader_thread=reader_thread)
        try:
            for array in (x, view):
                echo = child.request("echo", array=array)
                shape, dt, writeable, raw = child.result(echo, 10.0)
                assert (shape, dt, writeable) == (array.shape, array.dtype.str, True)
                assert raw == np.ascontiguousarray(array).tobytes()
        finally:
            child.close(timeout=5.0)

    def test_handler_error_fails_only_its_request(self, reader_thread):
        child = spawn_toy(reader_thread=reader_thread, error=lambda detail: KeyError(detail))
        try:
            with pytest.raises(KeyError, match="no such request"):
                child.result(child.request("nope"), 10.0)
            with pytest.raises(KeyError, match="SystemExit"):
                child.result(child.request("exit"), 10.0)
            assert child.result(child.request("sum", array=np.ones(3)), 10.0) == 3
        finally:
            child.close(timeout=5.0)

    @pytest.mark.parametrize("info", [None, {"cache_max_bytes": 4096}], ids=["none", "dict"])
    def test_ready_carries_what_the_build_reported(self, reader_thread, info):
        child = spawn_toy(reader_thread=reader_thread, info=info)
        try:
            assert child.info == info
            assert child.result(child.request("sum", array=np.ones(2)), 10.0) == 2
        finally:
            child.close(timeout=5.0)

    def test_init_error_raises_failed_to_start(self, reader_thread):
        with pytest.raises(RuntimeError, match="(?s)failed to start.*no handler for you"):
            Child(broken_handler, name="broken", start_method=default_start_method(),
                  error=ToyFailure, reader_thread=reader_thread)

    def test_kill_fails_pending_and_refuses_new_requests(self, reader_thread):
        child = spawn_toy(reader_thread=reader_thread)
        held = child.request("later")
        child.kill()
        with pytest.raises(ToyFailure, match="killed"):
            child.result(held, 10.0)
        assert not child.alive() and not child.ping(timeout=1.0)
        with pytest.raises(ToyFailure):
            child.request("sum", array=np.ones(1))
        child.close(timeout=1.0)  # idempotent after kill

    def test_death_fails_pending(self, reader_thread):
        child = spawn_toy(reader_thread=reader_thread)
        held = child.request("later")
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(ToyFailure, match="process died"):
            child.result(held, 10.0)
        assert not child.alive()
        child.close(timeout=1.0)

    def test_result_times_out_on_a_hung_request(self, reader_thread, tmp_path):
        flag = tmp_path / "hung"
        child = spawn_toy(reader_thread=reader_thread, flag=str(flag))
        try:
            hung = child.request("hang")
            wait_for(flag)
            with pytest.raises(FutureTimeout):
                child.result(hung, 0.2)
            assert child.alive() and not hung.done()
        finally:
            child.close(timeout=0.5)

    def test_close_fails_a_request_another_thread_waits_on(self, reader_thread, tmp_path):
        flag = tmp_path / "hung"
        child = spawn_toy(reader_thread=reader_thread, flag=str(flag))
        hung = child.request("hang")
        outcome: list[BaseException] = []

        def wait() -> None:
            try:
                child.result(hung)
            except BaseException as exc:
                outcome.append(exc)

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        wait_for(flag)
        child.close(timeout=0.5)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "close() left the waiting thread blocked"
        assert len(outcome) == 1 and isinstance(outcome[0], ToyFailure)
        assert "closed" in str(outcome[0])
        assert not child.alive()


def _replica_factory():
    return oracle_replica_kwargs(threshold=0.7)


def _closed_replica_factory():
    """Replica kwargs whose server refuses every image as closed.

    The factory runs in the replica process, so the patch stays there.
    """
    def refuse(self, image):
        raise ServerClosed("server is closed")

    CascadeServer.submit = refuse
    return _replica_factory()


class TestReplicaTransport:
    """Replica images ride the pipe raw, like the pool's shards
    (``test_one_byte_dtypes_cross_the_pipe_whole`` in test_runner.py)."""

    @pytest.mark.parametrize("layout", ["uint8", "strided_view"])
    def test_replica_answers_like_the_same_server_in_process(self, layout):
        images = make_oracle_images(6, seed=11, signal=4.0)
        if layout == "uint8":
            images = (np.abs(images) * 20).astype(np.uint8)
            images[:, -1] = np.arange(6) % 10  # the label column stays a label
            batch = list(images)
        else:
            wide = np.repeat(images, 2, axis=1)[:, ::2]  # every row strided
            assert not wide[0].flags.c_contiguous
            batch = list(wide)
        with CascadeServer(**_replica_factory()) as server:
            local = [server.submit(image).result(timeout=30.0) for image in batch]
        replica = ProcessReplica(0, _replica_factory)
        try:
            remote = [replica.submit(image).result(timeout=30.0) for image in batch]
        finally:
            replica.close(timeout=5.0)
        assert [r.prediction for r in remote] == [r.prediction for r in local]
        assert [r.source for r in remote] == [r.source for r in local]

    def test_a_refused_submit_fails_with_its_repr(self):
        replica = ProcessReplica(0, _closed_replica_factory)
        try:
            future = replica.submit(make_oracle_images(1, seed=3)[0])
            with pytest.raises(ReplicaFailure) as info:
                future.result(timeout=30.0)
            assert info.value.detail == repr(ServerClosed("server is closed"))
            assert replica.alive()
        finally:
            replica.close(timeout=5.0)


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import functools, time
    from repro.net.bench import oracle_replica_kwargs
    from repro.net.router import ProcessReplica, ReplicaFailure
    from repro.parallel import ParallelHostRunner
    from repro.serve.oracle import OracleStage

    if __name__ == "__main__":
        pool = ParallelHostRunner(predict_fn=OracleStage(answer="label"), n_workers=1)
        replica = ProcessReplica(
            0, functools.partial(oracle_replica_kwargs, threshold=0.7)
        )
        print(pool.worker_stats()[0]["pid"], replica.pid, flush=True)
        time.sleep(600)
    """
)


def _exited(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")  # a zombie has exited; only its reaper is late


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_children_exit_when_their_parent_is_sigkilled(tmp_path):
    script = tmp_path / "parent.py"
    script.write_text(ORPHAN_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        pids = [int(p) for p in parent.stdout.readline().split()]
        assert len(pids) == 2, "the parent never reported its children"
        assert not any(_exited(pid) for pid in pids)
    finally:
        parent.kill()
        parent.wait(timeout=30.0)
        parent.stdout.close()
    deadline = time.monotonic() + 10.0
    try:
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphans still running: {pids}"
            time.sleep(0.05)
    finally:  # never leave an orphan holding this run's stderr
        for pid in pids:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)
