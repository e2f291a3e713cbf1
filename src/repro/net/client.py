"""Blocking socket client for the cascade wire protocol.

:class:`NetClient` is the caller-side mirror of
:class:`repro.net.frontend.NetFrontend`: it speaks
:mod:`repro.net.protocol` over one TCP connection, multiplexes any
number of in-flight requests by id, and resolves each to the same
:class:`repro.serve.server.ServeResult` an in-process ``submit()``
returns, so the loopback tests can assert wire answers are
*bit-identical* to it.

A background reader thread drains the socket through a
:class:`~repro.net.protocol.FrameDecoder`.  Each request gets exactly
one reply frame, which resolves its future:

* ``DECISION`` — success, the future gets a :class:`ServeResult`
  (``cold_source`` is ``None``: the wire does not carry it);
* ``REJECTED`` — :class:`WireRejected` (admission refused);
* ``ERROR`` — :class:`WireError` with the server's typed code;
* ``SHUTDOWN`` (or a dropped connection) — :class:`WireShutdown` for
  everything still pending, mirroring the server-side
  :class:`~repro.serve.resilience.ServerClosed` contract.
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future

import numpy as np

from ..serve.server import ServeResult
from .protocol import (
    Decision,
    Error,
    FrameDecoder,
    Ping,
    Pong,
    ProtocolError,
    Rejected,
    Request,
    Shutdown,
    encode_frame,
)

__all__ = [
    "WireRejected",
    "WireError",
    "WireShutdown",
    "NetClient",
]


class WireRejected(RuntimeError):
    """The frontend refused admission (REJECTED frame, the 503)."""

    def __init__(self, code: int, reason: str, detail: str):
        super().__init__(f"rejected ({reason}): {detail}")
        self.code = code
        self.reason = reason
        self.detail = detail


class WireError(RuntimeError):
    """The server answered with a typed ERROR frame."""

    def __init__(self, code: int, reason: str, detail: str):
        super().__init__(f"server error ({reason}): {detail}")
        self.code = code
        self.reason = reason
        self.detail = detail


class WireShutdown(RuntimeError):
    """The connection ended (SHUTDOWN frame or EOF) with work pending."""


class NetClient:
    """One connection to a :class:`~repro.net.frontend.NetFrontend`.

    Thread-safe: any thread may ``submit``; responses resolve on the
    reader thread.  Use as a context manager to close the socket.
    """

    def __init__(self, host: str, port: int, *, connect_timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._pongs: dict[int, threading.Event] = {}
        self._rid = itertools.count(1)
        self._nonce = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="net-client-reader", daemon=True
        )
        self._reader.start()

    # -- sending ---------------------------------------------------------------
    def _send(self, frame) -> None:
        payload = encode_frame(frame)
        with self._send_lock:
            if self._closed:
                raise WireShutdown("client is closed")
            self._sock.sendall(payload)

    def submit(self, image: np.ndarray, tenant: str = "") -> Future:
        """Send one image; the future resolves to a :class:`ServeResult`.

        *tenant* selects the model on a multi-tenant server (protocol
        minor 2); the empty default keeps the request byte-identical to
        the pre-tenancy encoding and routes to the server's default
        tenant.  The future fails with :class:`WireRejected` /
        :class:`WireError` / :class:`WireShutdown` — the wire twins of
        the server-side terminal exceptions.
        """
        rid = next(self._rid)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise WireShutdown("client is closed")
            self._pending[rid] = future
        try:
            self._send(Request(rid, np.asarray(image), tenant=tenant))
        except Exception:
            with self._lock:
                self._pending.pop(rid, None)
            raise
        return future

    def classify(
        self, image: np.ndarray, timeout: float | None = 30.0, tenant: str = ""
    ) -> ServeResult:
        return self.submit(image, tenant=tenant).result(timeout=timeout)

    def classify_many(
        self, images, timeout: float | None = 30.0, tenant: str = ""
    ) -> list[ServeResult]:
        futures = [self.submit(image, tenant=tenant) for image in images]
        return [f.result(timeout=timeout) for f in futures]

    def ping(self, timeout: float = 5.0) -> bool:
        """Round-trip a PING through the frontend; ``True`` on PONG."""
        nonce = next(self._nonce)
        event = threading.Event()
        self._pongs[nonce] = event
        try:
            self._send(Ping(nonce))
        except Exception:
            self._pongs.pop(nonce, None)
            return False
        ok = event.wait(timeout)
        self._pongs.pop(nonce, None)
        return ok and not self._closed

    # -- receiving -------------------------------------------------------------
    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        reason = "connection closed by server"
        try:
            while True:
                data = self._sock.recv(1 << 16)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if isinstance(frame, Shutdown):
                        reason = f"server shutdown: {frame.detail}"
                        raise _Stop()
                    self._handle(frame)
        except _Stop:
            pass
        except ProtocolError as exc:
            reason = f"protocol error from server: {exc}"
        except OSError:
            reason = "connection lost"
        self._fail_all(reason)

    def _handle(self, frame) -> None:
        if isinstance(frame, Pong):
            event = self._pongs.get(frame.nonce)
            if event is not None:
                event.set()
            return
        if not isinstance(frame, (Decision, Rejected, Error)):
            return  # a server frame this client does not expect
        with self._lock:
            future = self._pending.pop(frame.request_id, None)
        if future is None:
            return  # stale traffic for an abandoned request
        if isinstance(frame, Decision):
            future.set_result(ServeResult(
                prediction=frame.prediction,
                bnn_prediction=frame.bnn_prediction,
                confidence=frame.confidence,
                source=frame.source,
                latency_seconds=frame.latency_seconds,
            ))
        elif isinstance(frame, Rejected):
            future.set_exception(WireRejected(frame.code, frame.reason, frame.detail))
        else:
            future.set_exception(WireError(frame.code, frame.reason, frame.detail))

    def _fail_all(self, reason: str) -> None:
        with self._lock:
            self._closed = True
            stranded = list(self._pending.values())
            self._pending.clear()
        for future in stranded:
            if not future.done():
                future.set_exception(WireShutdown(reason))
        # Connection-scoped errors also fail later ping() calls fast.
        for event in list(self._pongs.values()):
            event.set()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close the socket; pending futures fail with :class:`WireShutdown`."""
        with self._send_lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)
        self._fail_all("client closed")

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Stop(Exception):
    pass
