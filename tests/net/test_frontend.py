"""Socket frontend tests: frame flow, admission control, typed shutdown.

The backend here is the controllable :class:`netharness.FakeBackend`
so each test isolates one frontend behaviour: the one-``DECISION`` happy
path, queue-full shedding, typed error mapping (a refused request reads
exactly one ``REJECTED``), malformed peers, and the close-ordering
contract (the socket-layer mirror of the server's
``ServerClosed`` stranded-futures fix): ``close()`` must resolve every
pending request with ``ERROR(shutdown)`` and hand every connection —
including half-read ones — a ``SHUTDOWN`` frame, never a silent reset.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.net import protocol as p
from repro.net.client import NetClient, WireError, WireRejected, WireShutdown
from repro.net.frontend import NetFrontend
from repro.net.router import InProcessReplica, NoHealthyReplica, ShardRouter
from repro.serve.resilience import StageFailure
from repro.serve.server import ServeResult

from netharness import FakeBackend, reply_kinds, wait_until


@pytest.fixture
def backend():
    return FakeBackend()


def _image(value: float = 5.0) -> np.ndarray:
    return np.full(4, value, dtype=np.float64)


class TestHappyPath:
    def test_request_resolves_to_wire_result(self, backend):
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                result = client.classify(_image(7))
        assert isinstance(result, ServeResult)
        assert result.prediction == 7
        assert result.source == "bnn"
        assert result.cold_source is None  # the wire does not carry it
        snap = frontend.metrics.snapshot()
        assert snap.requests == snap.answered == 1
        assert snap.balanced

    def test_many_requests_multiplex_on_one_connection(self, backend):
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                futures = [client.submit(_image(i)) for i in range(20)]
                results = [f.result(timeout=30) for f in futures]
        assert [r.prediction for r in results] == list(range(20))
        snap = frontend.metrics.snapshot()
        assert snap.requests == snap.answered == 20
        assert snap.balanced

    def test_many_connections(self, backend):
        with NetFrontend(backend) as frontend:
            clients = [NetClient(*frontend.address) for _ in range(5)]
            try:
                for i, client in enumerate(clients):
                    assert client.classify(_image(i)).prediction == i
            finally:
                for client in clients:
                    client.close()
        snap = frontend.metrics.snapshot()
        assert snap.connections == 5
        assert snap.connections_closed == 5
        assert snap.answered == 5

    def test_ping_pong(self, backend):
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                assert client.ping(timeout=10.0)
        assert frontend.metrics.snapshot().pings == 1


class TestAdmissionControl:
    def test_queue_full_rejects_typed(self):
        backend = FakeBackend(mode="hold")
        with NetFrontend(backend, max_inflight=2) as frontend:
            with NetClient(*frontend.address) as client:
                first = [client.submit(_image()) for _ in range(2)]
                wait_until(lambda: len(backend.submitted) == 2)
                with pytest.raises(WireRejected) as info:
                    client.classify(_image(), timeout=10.0)
                assert info.value.code == p.REJECT_QUEUE_FULL
                assert info.value.reason == "queue_full"
                # Shedding did not disturb the admitted requests.
                backend.resolve_held()
                for fut in first:
                    fut.result(timeout=10.0)
        snap = frontend.metrics.snapshot()
        assert (snap.requests, snap.answered, snap.rejected) == (3, 2, 1)
        assert snap.balanced

    def test_no_healthy_replica_maps_to_rejected(self):
        backend = FakeBackend(mode=NoHealthyReplica("all dead"))
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                with pytest.raises(WireRejected) as info:
                    client.classify(_image(), timeout=10.0)
        assert info.value.code == p.REJECT_NO_REPLICA
        assert info.value.reason == "no_healthy_replica"
        snap = frontend.metrics.snapshot()
        assert (snap.requests, snap.rejected) == (1, 1)
        assert snap.balanced

    def test_router_without_a_healthy_replica_replies_rejected_only(self):
        router = ShardRouter([InProcessReplica(0, FakeBackend())])
        router.replicas[0].kill()
        with NetFrontend(router) as frontend:
            kinds = reply_kinds(frontend.address, [p.Request(1, _image())])
        router.close()
        assert kinds == {1: [p.Rejected]}
        assert router.snapshot().rejected == 1

    def test_backend_exception_maps_to_typed_error(self):
        backend = FakeBackend(mode=StageFailure("host", RuntimeError("boom")))
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                with pytest.raises(WireError) as info:
                    client.classify(_image(), timeout=10.0)
        assert info.value.code == p.ERR_STAGE_FAILURE
        assert info.value.reason == "stage_failure"
        snap = frontend.metrics.snapshot()
        assert (snap.requests, snap.failed) == (1, 1)
        assert snap.balanced


class TestMalformedPeers:
    def test_garbage_bytes_fail_only_that_connection(self, backend):
        with NetFrontend(backend) as frontend:
            host, port = frontend.address
            raw = socket.create_connection((host, port), timeout=10)
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n")  # wrong protocol entirely
            chunks = b""
            while True:
                data = raw.recv(1 << 16)
                if not data:
                    break
                chunks += data
            raw.close()
            frame, _ = p.decode_frame(chunks)
            assert isinstance(frame, p.Error)
            assert frame.request_id == 0  # connection-scoped
            assert frame.code == p.ERR_PROTOCOL
            assert "BadMagic" in frame.detail
            # The frontend survives: a well-behaved client still works.
            with NetClient(host, port) as client:
                assert client.classify(_image(1)).prediction == 1
        assert frontend.metrics.snapshot().protocol_errors == 1

    def test_oversize_frame_rejected_without_buffering(self, backend):
        with NetFrontend(backend, max_frame_bytes=1024) as frontend:
            raw = socket.create_connection(frontend.address, timeout=10)
            # Header advertising a 1 GiB body; never send the body.
            raw.sendall(struct.pack(
                ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"], 1 << 30
            ))
            chunks = b""
            while True:
                data = raw.recv(1 << 16)
                if not data:
                    break
                chunks += data
            raw.close()
            frame, _ = p.decode_frame(chunks)
            assert isinstance(frame, p.Error)
            assert frame.code == p.ERR_PROTOCOL
            assert "FrameTooLarge" in frame.detail

    def test_server_frame_from_client_is_rejected(self, backend):
        with NetFrontend(backend) as frontend:
            raw = socket.create_connection(frontend.address, timeout=10)
            raw.sendall(p.encode_frame(p.Pong(1)))  # nonsense direction
            chunks = b""
            while True:
                data = raw.recv(1 << 16)
                if not data:
                    break
                chunks += data
            raw.close()
            frame, _ = p.decode_frame(chunks)
            assert isinstance(frame, p.Error)
            assert frame.code == p.ERR_PROTOCOL
            assert "unexpected client frame" in frame.detail


class TestCloseOrdering:
    """`close()` leaves no connection without a typed farewell."""

    def test_pending_requests_fail_typed_on_close(self):
        backend = FakeBackend(mode="hold")
        frontend = NetFrontend(backend)
        frontend.start()
        client = NetClient(*frontend.address)
        try:
            fut = client.submit(_image())
            wait_until(lambda: len(backend.submitted) == 1)
            frontend.close(drain_timeout=0.2)  # backend never answers
            with pytest.raises(WireError) as info:
                fut.result(timeout=10.0)
            assert info.value.code == p.ERR_SHUTDOWN
            assert info.value.reason == "shutdown"
            # After the SHUTDOWN frame, new submissions fail client-side.
            wait_until(lambda: not client.ping(timeout=0.1))
            with pytest.raises(WireShutdown):
                client.classify(_image(), timeout=10.0)
        finally:
            client.close()
            frontend.close()
        snap = frontend.metrics.snapshot()
        assert (snap.requests, snap.failed) == (1, 1)
        assert snap.balanced

    def test_half_read_connection_gets_shutdown_frame(self):
        # A peer that sent only part of a frame still gets the typed
        # farewell — the regression this PR mirrors from PR 4.
        backend = FakeBackend(mode="hold")
        frontend = NetFrontend(backend)
        frontend.start()
        full = p.encode_frame(p.Request(1, _image()))
        raw = socket.create_connection(frontend.address, timeout=10)
        try:
            raw.sendall(full[: len(full) // 2])  # half a frame, then silence
            wait_until(lambda: frontend.metrics.snapshot().connections == 1)
            frontend.close(drain_timeout=0.2)
            chunks = b""
            raw.settimeout(10.0)
            while True:
                try:
                    data = raw.recv(1 << 16)
                except OSError:
                    break
                if not data:
                    break
                chunks += data
            frame, _ = p.decode_frame(chunks)
            assert frame == p.Shutdown("frontend closing")
        finally:
            raw.close()

    def test_close_drains_in_flight_before_shutdown(self):
        backend = FakeBackend(mode="hold")
        frontend = NetFrontend(backend)
        frontend.start()
        client = NetClient(*frontend.address)
        try:
            fut = client.submit(_image())
            wait_until(lambda: len(backend.submitted) == 1)
            # The backend answers inside the drain window: the request
            # must complete normally, not be converted to an error.
            timer = threading.Timer(0.1, backend.resolve_held)
            timer.start()
            frontend.close(drain_timeout=10.0)
            timer.join()
            result = fut.result(timeout=10.0)
            assert result.prediction == 0
        finally:
            client.close()
        snap = frontend.metrics.snapshot()
        assert (snap.answered, snap.failed) == (1, 0)
        assert snap.balanced

    def test_new_requests_rejected_while_closing(self):
        backend = FakeBackend(mode="hold")
        frontend = NetFrontend(backend)
        frontend.start()
        client = NetClient(*frontend.address)
        try:
            fut = client.submit(_image())
            wait_until(lambda: len(backend.submitted) == 1)
            closer = threading.Thread(
                target=frontend.close, kwargs={"drain_timeout": 1.0}, daemon=True
            )
            closer.start()
            # Give close() time to flip the closing flag, then race a
            # request in before the drain window expires.
            wait_until(lambda: frontend._closing)
            try:
                client.classify(_image(), timeout=10.0)
            except (WireRejected, WireError, WireShutdown):
                pass  # any *typed* outcome is acceptable; silence is not
            backend.resolve_held()
            closer.join(timeout=30.0)
            assert not closer.is_alive()
            fut.result(timeout=10.0)
        finally:
            client.close()
            frontend.close()
        assert frontend.metrics.snapshot().balanced

    def test_close_is_idempotent(self, backend):
        frontend = NetFrontend(backend)
        frontend.start()
        frontend.close()
        frontend.close()

    def test_close_before_start(self, backend):
        NetFrontend(backend).close()  # no-op, no crash


class TestClientLifecycle:
    def test_client_close_fails_pending(self):
        backend = FakeBackend(mode="hold")
        with NetFrontend(backend) as frontend:
            client = NetClient(*frontend.address)
            fut = client.submit(_image())
            wait_until(lambda: len(backend.submitted) == 1)
            client.close()
            with pytest.raises(WireShutdown):
                fut.result(timeout=10.0)
            with pytest.raises(WireShutdown):
                client.submit(_image())
            backend.resolve_held()

    def test_ping_false_after_server_gone(self, backend):
        frontend = NetFrontend(backend)
        frontend.start()
        client = NetClient(*frontend.address)
        try:
            assert client.ping(timeout=10.0)
            frontend.close()
            wait_until(lambda: not client.ping(timeout=0.2))
        finally:
            client.close()
