"""Shared helpers for the network-layer test suite (imported, not a conftest)."""

import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.net import protocol as p
from repro.serve.server import ServeResult


def make_result(prediction: int = 3, source: str = "bnn") -> ServeResult:
    return ServeResult(
        prediction=prediction,
        bnn_prediction=prediction,
        confidence=0.9,
        source=source,
        latency_seconds=0.001,
    )


class FakeBackend:
    """Controllable ``submit()`` backend for frontend/router tests.

    ``mode`` selects the behaviour:

    * ``"resolve"`` — every future resolves immediately; the prediction
      echoes ``int(image.flat[0])`` so tests can match request to answer.
    * ``"hold"`` — futures stay pending until the test resolves them
      (``backend.held``), modelling an arbitrarily slow cascade.
    * an exception instance — ``submit`` raises it.
    """

    def __init__(self, mode="resolve"):
        self.mode = mode
        self.lock = threading.Lock()
        self.submitted: list[np.ndarray] = []
        self.held: list[Future] = []
        self.closed = False

    def submit(self, image) -> Future:
        with self.lock:
            if isinstance(self.mode, BaseException):
                raise self.mode
            self.submitted.append(np.asarray(image))
            fut: Future = Future()
            if self.mode == "hold":
                self.held.append(fut)
            else:
                fut.set_result(make_result(prediction=int(np.asarray(image).flat[0])))
            return fut

    def resolve_held(self) -> None:
        with self.lock:
            held, self.held = self.held, []
        for i, fut in enumerate(held):
            if not fut.done():
                fut.set_result(make_result(prediction=i))

    def close(self, timeout: float | None = None) -> None:
        self.closed = True


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.005) -> None:
    """Poll *predicate* until true; pytest-fail on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s")


def read_frames(sock: socket.socket, count: int | None = None) -> list:
    """Frames off a raw socket: *count* of them, or everything until EOF."""
    decoder, frames = p.FrameDecoder(), []
    sock.settimeout(10.0)
    while count is None or len(frames) < count:
        data = sock.recv(1 << 16)
        if not data:
            break
        frames += decoder.feed(data)
    return frames


def reply_kinds(address, requests) -> dict[int, list[type]]:
    """Send *requests* on a raw socket, then a PING; return the frame
    types each request id read before the PONG came back.

    The frontend handles one connection's frames in order, so by the
    PONG every request has had all the replies it will get on admission.
    """
    decoder, frames = p.FrameDecoder(), []
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"".join(map(p.encode_frame, [*requests, p.Ping(99)])))
        while not frames or not isinstance(frames[-1], p.Pong):
            data = sock.recv(1 << 16)
            assert data, "the connection closed before the PONG"
            frames += decoder.feed(data)
    return {
        r.request_id: [type(f) for f in frames if getattr(f, "request_id", None) == r.request_id]
        for r in requests
    }
