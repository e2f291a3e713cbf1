"""Asyncio socket frontend: the wire in front of the cascade.

Wraps any *backend* exposing the :meth:`repro.serve.CascadeServer.submit`
contract (``submit(image) -> Future[ServeResult]`` — a single server or
a :class:`repro.net.router.ShardRouter`) behind a TCP listener speaking
the :mod:`repro.net.protocol` frames.  The frontend is the admission
layer of ROADMAP's "millions of users" step: FINN-style sustained
throughput only holds if overload is shed at the door, so a request
either enters the cascade or is refused immediately with a typed
``REJECTED`` frame (the 503 analogue) — it is never silently queued
into an unbounded buffer.  Every request gets exactly one reply frame:
``DECISION``, ``REJECTED`` or ``ERROR``.

Concurrency model
-----------------
One daemon thread runs a private asyncio event loop; all connection
state (in-flight counts, per-connection pending maps and output
buffers) is touched only from that loop, so no locks are needed beyond
the metrics facade and the completion queue.  Requests are submitted on
the loop through the backend's non-blocking ``try_submit``
(:meth:`repro.serve.CascadeServer.try_submit`); only when it refuses
(the cascade's front buffer is full) or the backend has none does the
blocking ``backend.submit`` run on the loop's default executor.  Backend
futures resolve on serving threads into one completion queue, and the
loop is woken (``call_soon_threadsafe``) only when that queue goes from
empty to non-empty, so a burst of results costs one wake-up.  Each
connection's frames are queued in order and written once per read or
once per result burst; the read side awaits ``drain()`` — a slow reader
backpressures only its own connection.

Shutdown contract (the socket-layer mirror of PR 4's
``ServerClosed`` stranded-futures fix): :meth:`NetFrontend.close` stops
accepting, waits up to ``drain_timeout`` for in-flight requests, then
resolves every still-pending request with a typed ``ERROR(shutdown)``
frame and sends each open connection — including half-read ones whose
decoder holds a partial frame — a ``SHUTDOWN`` frame before the socket
closes.  No client ever observes a silent reset with work in flight.

Observability: the :class:`NetMetrics` ledger, mirrored as the
``net.accept`` / ``net.request`` / ``net.answered`` / ``net.rejected`` /
``net.failed`` tracer counters, and a ``net.decode`` span around frame
reassembly (see ``docs/NETWORK.md``).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass

from .. import obs
from ..obs.ledger import Law, Ledger, violations
from ..serve.resilience import DeadlineExceeded, ServerClosed, StageFailure
from ..serve.tenancy import TenantQuotaExceeded, UnknownTenant
from . import protocol
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
from .router import NoHealthyReplica, ReplicaFailure

__all__ = ["FRONTEND_LAW", "NetMetrics", "NetMetricsSnapshot", "NetFrontend"]


#: Every REQUEST frame read off the wire gets exactly one terminal frame.
FRONTEND_LAW = Law("terminal", ("answered", "rejected", "failed"), "requests", drained=True)


@dataclass(frozen=True)
class NetMetricsSnapshot:
    """Point-in-time view of the frontend's wire accounting.

    :data:`FRONTEND_LAW`, which chaos tests assert once traffic has
    drained::

        answered + rejected + failed == requests
    """

    connections: int          # connections accepted
    connections_closed: int
    requests: int             # REQUEST frames read off the wire
    answered: int             # DECISION sent (the request got a result)
    rejected: int             # REJECTED sent (admission refused)
    failed: int               # ERROR sent (typed terminal failure)
    protocol_errors: int      # connections failed by malformed bytes
    pings: int

    @property
    def terminal(self) -> int:
        """Requests that reached *any* terminal frame."""
        return FRONTEND_LAW.terminal(self)

    @property
    def in_flight(self) -> int:
        return FRONTEND_LAW.gap(self)

    @property
    def balanced(self) -> bool:
        return not violations((FRONTEND_LAW,), self)


class NetMetrics(Ledger):
    """The socket frontend's ledger: ``add(<field>=1)`` per wire event."""

    def __init__(self):
        super().__init__(
            {
                "connections": "net.accept", "connections_closed": None,
                "requests": "net.request", "answered": "net.answered",
                "rejected": "net.rejected", "failed": "net.failed",
                "protocol_errors": None, "pings": None,
            },
            laws=(FRONTEND_LAW,),
        )

    def snapshot(self) -> NetMetricsSnapshot:
        return NetMetricsSnapshot(**self.read().counters)


def _error_code_for(exc: BaseException) -> int:
    if isinstance(exc, ReplicaFailure):
        return protocol.ERR_REPLICA_FAILURE
    if isinstance(exc, StageFailure):
        return protocol.ERR_STAGE_FAILURE
    if isinstance(exc, DeadlineExceeded):
        return protocol.ERR_DEADLINE
    if isinstance(exc, ServerClosed):
        return protocol.ERR_SERVER_CLOSED
    return protocol.ERR_INTERNAL


class _Connection:
    """Loop-thread-only per-connection state."""

    __slots__ = ("writer", "decoder", "out", "pending", "closed")

    def __init__(self, writer: asyncio.StreamWriter, max_frame_bytes: int):
        self.writer = writer
        self.decoder = FrameDecoder(max_body=max_frame_bytes)
        self.out = bytearray()  # encoded frames not yet handed to the socket
        self.pending: dict[int, object] = {}  # request_id -> backend future
        self.closed = False


class NetFrontend:
    """TCP frontend over a cascade backend (see module docs).

    Parameters
    ----------
    backend:
        Object with ``submit(image) -> concurrent.futures.Future``
        resolving to a :class:`~repro.serve.server.ServeResult` — a
        :class:`~repro.serve.CascadeServer` or a
        :class:`~repro.net.router.ShardRouter`.  An optional
        ``try_submit(image) -> Future | None`` (``None`` = would block)
        lets the loop submit without a thread hop.  The frontend does
        **not** own the backend; close it separately (backend last, so
        in-flight work can still resolve during the drain window).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    max_inflight:
        Admission-control bound on requests admitted but not yet
        answered, across all connections.  Beyond it new requests get a
        ``REJECTED(queue_full)`` frame instead of queueing.
    max_frame_bytes:
        Per-connection decoder ceiling on frame bodies.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 256,
        max_frame_bytes: int = protocol.MAX_FRAME_BODY,
        metrics: NetMetrics | None = None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._backend = backend
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._max_frame_bytes = max_frame_bytes
        self.metrics = metrics if metrics is not None else NetMetrics()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._conns: set[_Connection] = set()
        self._inflight = 0
        self._drained: asyncio.Event | None = None
        self._closing = False
        self._closed = False
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        self._try_submit = getattr(backend, "try_submit", None)
        # Backend completions waiting for the loop (see _on_done).
        self._done: deque = deque()
        self._done_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("frontend not started")
        return self._address

    def start(self) -> tuple[str, int]:
        """Bind and serve on a dedicated event-loop thread; return address."""
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="net-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"frontend failed to start: {self._start_error!r}")
        if self._address is None:
            raise RuntimeError("frontend failed to bind within 30 s")
        return self._address

    def _run_loop(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        self._drained = asyncio.Event()
        self._drained.set()
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self._host, self._port)
            )
        except Exception as exc:
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        sock = server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain, then shut every connection down *typed*.

        Requests still unanswered after *drain_timeout* resolve with an
        ``ERROR(shutdown)`` frame; every open connection then receives a
        ``SHUTDOWN`` frame before its socket closes (including
        connections mid-way through writing a frame to us).  Idempotent.
        """
        if self._closed or self._loop is None or self._address is None:
            self._closed = True
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain_timeout), self._loop
        )
        try:
            future.result(timeout=drain_timeout + 10.0)
        except Exception:  # pragma: no cover - the loop stops regardless
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    async def _shutdown(self, drain_timeout: float) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight > 0:
            self._drained.clear()
            try:
                await asyncio.wait_for(self._drained.wait(), timeout=drain_timeout)
            except asyncio.TimeoutError:
                pass
        for conn in list(self._conns):
            for request_id in list(conn.pending):
                conn.pending.pop(request_id, None)
                self._dec_inflight()
                self.metrics.add(failed=1)
                self._send(
                    conn, Error(request_id, protocol.ERR_SHUTDOWN, "frontend closing")
                )
            self._send(conn, Shutdown("frontend closing"))
            self._flush(conn)
            await self._drain(conn)
            conn.closed = True
            try:
                conn.writer.close()
            except Exception:
                pass
        self._conns.clear()

    def __enter__(self) -> "NetFrontend":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling ---------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        conn = _Connection(writer, self._max_frame_bytes)
        self._conns.add(conn)
        self.metrics.add(connections=1)
        try:
            while not conn.closed:
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    with obs.trace_span("net.decode", nbytes=len(data)):
                        frames = conn.decoder.feed(data)
                except ProtocolError as exc:
                    self.metrics.add(protocol_errors=1)
                    self._send(
                        conn,
                        Error(0, protocol.ERR_PROTOCOL, f"{type(exc).__name__}: {exc}"),
                    )
                    break
                for frame in frames:
                    if isinstance(frame, Request):
                        if not self._handle_request(conn, frame):
                            # The backend would block: replies queued so
                            # far go out now, the submit waits off the loop.
                            self._flush(conn)
                            await self._submit_blocking(conn, frame)
                    elif isinstance(frame, Ping):
                        self.metrics.add(pings=1)
                        self._send(conn, Pong(frame.nonce))
                    else:
                        # Server-to-client frame types arriving here are nonsense.
                        self.metrics.add(protocol_errors=1)
                        self._send(
                            conn,
                            Error(
                                0,
                                protocol.ERR_PROTOCOL,
                                f"unexpected client frame {frame.type_name!r}",
                            ),
                        )
                        self._flush(conn)
                        conn.closed = True
                        break
                # One write per read, whatever it carried.
                self._flush(conn)
                await self._drain(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if conn in self._conns:
                self._flush(conn)
                self._conns.discard(conn)
                conn.closed = True
                # The peer is gone; its admitted requests still resolve in
                # the backend, but their response writes become no-ops.
                try:
                    writer.close()
                except Exception:
                    pass
            self.metrics.add(connections_closed=1)

    def _reject(self, conn: _Connection, request_id: int, code: int, detail: str) -> None:
        self.metrics.add(rejected=1)
        self._send(conn, Rejected(request_id, code, detail))

    def _handle_request(self, conn: _Connection, frame: Request) -> bool:
        """Admit *frame* and submit it without blocking the loop.

        Returns ``False`` when the request is admitted but the backend
        would block or has no ``try_submit``: the caller then submits it
        through :meth:`_submit_blocking`.
        """
        self.metrics.add(requests=1)
        request_id = frame.request_id
        if self._closing:
            self._reject(conn, request_id, protocol.REJECT_CLOSING, "closing")
            return True
        if self._inflight >= self._max_inflight:
            self._reject(
                conn, request_id, protocol.REJECT_QUEUE_FULL,
                f"{self._inflight} requests in flight (max {self._max_inflight})",
            )
            return True
        if frame.tenant and getattr(self._backend, "tenant_names", None) is None:
            # Tenant-addressed frame, single-tenant backend: typed refusal
            # beats silently answering with the wrong model.
            self._reject(
                conn, request_id, protocol.REJECT_TENANT,
                f"backend is single-tenant, cannot serve {frame.tenant!r}",
            )
            return True
        self._inflight += 1
        if frame.tenant or self._try_submit is None:
            return False
        try:
            backend_future = self._try_submit(frame.image)
        except Exception as exc:
            self._submit_failed(conn, request_id, exc)
            return True
        if backend_future is None:
            return False
        self._track(conn, request_id, backend_future)
        return True

    async def _submit_blocking(self, conn: _Connection, frame: Request) -> None:
        """``backend.submit`` on the loop's executor (it may block)."""
        if frame.tenant:
            submit = lambda: self._backend.submit(frame.image, tenant=frame.tenant)
        else:
            submit = lambda: self._backend.submit(frame.image)
        try:
            backend_future = await asyncio.get_running_loop().run_in_executor(None, submit)
        except Exception as exc:
            self._submit_failed(conn, frame.request_id, exc)
            return
        self._track(conn, frame.request_id, backend_future)

    def _submit_failed(self, conn: _Connection, request_id: int, exc: Exception) -> None:
        self._dec_inflight()
        if isinstance(exc, UnknownTenant):
            self._reject(conn, request_id, protocol.REJECT_TENANT, str(exc))
        elif isinstance(exc, TenantQuotaExceeded):
            self._reject(conn, request_id, protocol.REJECT_QUEUE_FULL, str(exc))
        elif isinstance(exc, NoHealthyReplica):
            self._reject(conn, request_id, protocol.REJECT_NO_REPLICA, str(exc))
        else:
            self.metrics.add(failed=1)
            self._send(conn, Error(request_id, _error_code_for(exc), repr(exc)))

    def _track(self, conn: _Connection, request_id: int, backend_future) -> None:
        conn.pending[request_id] = backend_future
        backend_future.add_done_callback(
            lambda fut: self._on_done(conn, request_id, fut)
        )

    def _on_done(self, conn: _Connection, request_id: int, fut) -> None:
        """Backend completion, on a serving thread: queue it for the loop,
        waking the loop only if the queue was empty."""
        with self._done_lock:
            wake = not self._done
            self._done.append((conn, request_id, fut))
        if wake:
            try:
                self._loop.call_soon_threadsafe(self._answer_done)
            except RuntimeError:  # loop already closed; shutdown path answered
                pass

    def _answer_done(self) -> None:
        """Answer every queued completion, then write each connection once."""
        with self._done_lock:
            done = list(self._done)
            self._done.clear()
        touched = {}
        for conn, request_id, fut in done:
            if conn.pending.pop(request_id, None) is None:
                continue  # already answered by the shutdown path — exactly once
            self._dec_inflight()
            touched[conn] = None
            exc = fut.exception()
            if exc is not None:
                self.metrics.add(failed=1)
                self._send(conn, Error(request_id, _error_code_for(exc), repr(exc)))
                continue
            result = fut.result()
            self.metrics.add(answered=1)
            self._send(
                conn,
                Decision(
                    request_id,
                    int(result.prediction),
                    int(result.bnn_prediction),
                    result.source,
                    float(result.confidence),
                    float(result.latency_seconds),
                ),
            )
        for conn in touched:
            self._flush(conn)

    def _dec_inflight(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0 and self._drained is not None:
            self._drained.set()

    @staticmethod
    def _send(conn: _Connection, frame) -> None:
        """Queue *frame* on the connection; :meth:`_flush` writes it."""
        if not conn.closed:
            conn.out += encode_frame(frame)

    @staticmethod
    def _flush(conn: _Connection) -> None:
        """Hand every queued frame to the socket in one write."""
        if conn.closed or not conn.out:
            return
        # The transport may keep a view of what it could not send yet, so
        # it gets the buffer and the connection starts a fresh one.
        data, conn.out = conn.out, bytearray()
        try:
            conn.writer.write(data)
        except (ConnectionError, RuntimeError, OSError):
            conn.closed = True

    @staticmethod
    async def _drain(conn: _Connection) -> None:
        """Wait while the socket's send buffer is over its high-water mark:
        a slow reader backpressures only its own connection."""
        if conn.closed:
            return
        try:
            await conn.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            conn.closed = True
