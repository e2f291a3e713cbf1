"""How the frontend hands requests to the backend and answers back.

The loop submits through the backend's non-blocking ``try_submit`` and
falls back to the executor only when the backend would block; backend
completions queue up and wake the loop once per burst; each connection's
frames are coalesced into one write.  None of that may show on the wire:
no request is shed by backpressure, and every request reads exactly one
reply frame (``DECISION`` on success), even when results race
``close()``.
"""

import random
import socket
import sys
import threading
import time

import numpy as np

from repro.core import DecisionMakingUnit
from repro.net import protocol as p
from repro.net.client import NetClient
from repro.net.frontend import NetFrontend, NetMetrics
from repro.serve import CascadeServer

from netharness import FakeBackend, make_result, read_frames, wait_until


class TryBackend(FakeBackend):
    """:class:`FakeBackend` with ``CascadeServer``'s ``try_submit``."""

    def try_submit(self, image):
        return self.submit(image)


def _image(value: float = 5.0) -> np.ndarray:
    return np.full(4, value, dtype=np.float64)


def _send_requests(sock: socket.socket, request_ids) -> None:
    sock.sendall(b"".join(p.encode_frame(p.Request(rid, _image(rid))) for rid in request_ids))


def _hold_loop(frontend: NetFrontend) -> threading.Event:
    """Park the frontend's loop thread until the returned event is set, so
    completions made meanwhile pile up as one burst."""
    entered, release = threading.Event(), threading.Event()

    def park():
        entered.set()
        release.wait(10.0)

    frontend._loop.call_soon_threadsafe(park)
    assert entered.wait(10.0)
    return release


class _SubmitSpy:
    """Pass-through backend that records which path each submit took."""

    def __init__(self, server: CascadeServer):
        self.server = server
        self.tries = 0
        self.blocking_threads: list[str] = []

    def try_submit(self, image):
        self.tries += 1
        return self.server.try_submit(image)

    def submit(self, image):
        self.blocking_threads.append(threading.current_thread().name)
        return self.server.submit(image)


def test_backpressure_takes_the_executor_and_sheds_nothing():
    def slow_bnn(images):
        time.sleep(0.01)
        scores = np.zeros((len(images), 10))
        scores[np.arange(len(images)), images[:, 0].astype(int) % 10] = 1.0
        return scores

    server = CascadeServer(
        slow_bnn, DecisionMakingUnit.margin(0.0), lambda images: np.zeros(len(images), int),
        controller=0.0, max_batch_size=1,  # a 6-request front buffer
    )
    spy = _SubmitSpy(server)
    requests = 40
    try:
        with NetFrontend(spy) as frontend:
            with socket.create_connection(frontend.address, timeout=10) as sock:
                _send_requests(sock, range(1, requests + 1))
                frames = read_frames(sock, count=requests)
    finally:
        server.close()
    # One DECISION per request, whichever path submitted it.
    for rid in range(1, requests + 1):
        replies = [f for f in frames if f.request_id == rid]
        assert [type(f) for f in replies] == [p.Decision], (rid, replies)
        assert replies[0].prediction == rid % 10
    snap = frontend.metrics.snapshot()
    assert (snap.requests, snap.answered, snap.rejected, snap.failed) == (requests, requests, 0, 0)
    # Every request was tried on the loop; the refused ones waited on the
    # executor, never on the loop thread.
    assert spy.tries == requests
    assert spy.blocking_threads
    assert "net-frontend" not in spy.blocking_threads
    # A refused try left no trace in the server's books.
    assert server.snapshot().submitted == requests


def test_every_request_reads_one_decision_across_a_burst():
    backend = TryBackend(mode="hold")
    with NetFrontend(backend) as frontend:
        conns = [socket.create_connection(frontend.address, timeout=10) for _ in range(2)]
        try:
            for sock in conns:
                _send_requests(sock, range(1, 6))
            wait_until(lambda: len(backend.held) == 10)
            release = _hold_loop(frontend)
            backend.resolve_held()  # both connections' results in one burst
            release.set()
            for sock in conns:
                frames = read_frames(sock, count=5)
                for rid in range(1, 6):
                    kinds = [type(f) for f in frames if getattr(f, "request_id", None) == rid]
                    assert kinds == [p.Decision], (rid, kinds)
        finally:
            for sock in conns:
                sock.close()
    assert frontend.metrics.snapshot().answered == 10


def test_a_burst_of_completions_wakes_the_loop_once():
    backend = TryBackend(mode="hold")
    burst = 8
    with NetFrontend(backend) as frontend:
        with NetClient(*frontend.address) as client:
            futures = [client.submit(_image()) for _ in range(burst)]
            wait_until(lambda: len(backend.held) == burst)
            loop = frontend._loop
            release = _hold_loop(frontend)
            wakes = []

            def counting(callback, *args, **kwargs):
                wakes.append(callback)
                return type(loop).call_soon_threadsafe(loop, callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                backend.resolve_held()
            finally:
                del loop.call_soon_threadsafe
                release.set()
            results = [f.result(timeout=10.0) for f in futures]
    assert sorted(r.prediction for r in results) == list(range(burst))
    assert len(wakes) == 1


def test_concurrent_completions_lose_no_wake_up():
    # More completing threads than cores and a tiny switch interval: a
    # racy "was the queue empty?" check loses a wake-up, and from then on
    # every result waits behind the stranded queue.
    backend = TryBackend(mode="hold")
    rounds, requests, threads = 40, 200, 8  # requests within the default max_inflight
    interval = sys.getswitchinterval()
    with NetFrontend(backend) as frontend:
        with NetClient(*frontend.address) as client:
            for _ in range(rounds):
                futures = [client.submit(_image()) for _ in range(requests)]
                wait_until(lambda: len(backend.held) == requests)
                with backend.lock:
                    held, backend.held = backend.held, []
                start = threading.Barrier(threads)

                def complete(part):
                    start.wait(10.0)
                    for fut in part:
                        fut.set_result(make_result())

                workers = [
                    threading.Thread(target=complete, args=(held[i::threads],))
                    for i in range(threads)
                ]
                sys.setswitchinterval(1e-6)
                try:
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join(timeout=30.0)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(worker.is_alive() for worker in workers)
                for future in futures:
                    future.result(timeout=10.0)
    snap = frontend.metrics.snapshot()
    assert snap.answered == snap.requests == rounds * requests


class _ResolveOnFail(NetMetrics):
    """Resolves the backend's held futures the moment ``close()`` starts
    answering ``ERROR(shutdown)`` — results land mid-shutdown."""

    def __init__(self, backend: FakeBackend):
        super().__init__()
        self._backend = backend

    def add(self, key=None, /, **counts) -> None:
        super().add(key, **counts)
        if "failed" in counts:
            self._backend.resolve_held()


def _terminal_counts(frames) -> dict[int, int]:
    counts: dict[int, int] = {}
    for frame in frames:
        if isinstance(frame, (p.Decision, p.Error, p.Rejected)):
            counts[frame.request_id] = counts.get(frame.request_id, 0) + 1
    return counts


def test_results_landing_during_close_are_answered_once():
    backend = TryBackend(mode="hold")
    frontend = NetFrontend(backend, metrics=_ResolveOnFail(backend))
    frontend.start()
    with socket.create_connection(frontend.address, timeout=10) as sock:
        _send_requests(sock, range(1, 7))
        wait_until(lambda: len(backend.held) == 6)
        frontend.close(drain_timeout=0.0)
        frames = read_frames(sock)
    assert isinstance(frames[-1], p.Shutdown)
    assert _terminal_counts(frames) == {rid: 1 for rid in range(1, 7)}
    snap = frontend.metrics.snapshot()
    assert (snap.requests, snap.failed, snap.answered) == (6, 6, 0)
    assert snap.balanced


def test_results_racing_close_are_answered_exactly_once():
    rng = random.Random(0)
    for _ in range(5):
        backend = TryBackend(mode="hold")
        frontend = NetFrontend(backend)
        frontend.start()
        with socket.create_connection(frontend.address, timeout=10) as sock:
            _send_requests(sock, range(1, 11))
            wait_until(lambda: len(backend.held) == 10)
            delay = rng.uniform(0.0, 0.004)
            racer = threading.Thread(
                target=lambda: (time.sleep(delay), backend.resolve_held())
            )
            racer.start()
            frontend.close(drain_timeout=0.002)
            racer.join()
            frames = read_frames(sock)
        assert _terminal_counts(frames) == {rid: 1 for rid in range(1, 11)}
        snap = frontend.metrics.snapshot()
        assert snap.answered + snap.failed == snap.requests == 10
