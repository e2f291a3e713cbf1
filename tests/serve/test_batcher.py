"""Rung inbox: FIFO batches, backpressure, shutdown, queue-wait books.

The cascade server has one queue kind, from the front door to the last
rung: a bounded inbox whose workers take a batch the moment they are
free.  Inbox-level tests drive ``take()`` from the test thread; the only
threads are producers/consumers that *must* block, and each is joined
with a timeout.  Server-level tests park the BNN stage on an event to
hold the inbox at a known depth.
"""

import threading

import numpy as np
import pytest

from repro.core import DecisionMakingUnit
from repro.serve import CascadeServer, ServerClosed
from repro.serve.server import _Inbox

WAIT = 5.0


def run_in_thread(fn, *args):
    """Start ``fn(*args)``; returns (thread, results list it appends to)."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    thread.start()
    return thread, out


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def accept_all_dmu() -> DecisionMakingUnit:
    return DecisionMakingUnit(np.zeros(4), bias=0.0, threshold=0.0)


class ParkedServer:
    """A server whose BNN call holds its first batch until released."""

    def __init__(self, **kwargs):
        self.parked = threading.Event()
        self.release = threading.Event()
        self.calls: list[int] = []

        def bnn(images):
            self.calls.append(len(images))
            if len(self.calls) == 1:
                self.parked.set()
                self.release.wait(WAIT)
            return np.ones((len(images), 4))

        self.server = CascadeServer(
            bnn, accept_all_dmu(), lambda images: np.zeros(len(images)),
            host_workers=0, **kwargs,
        )

    def park(self):
        """Submit one request and wait until the BNN call holds it."""
        future = self.server.submit(np.zeros(4))
        assert self.parked.wait(WAIT), "BNN worker never started"
        return future


class TestFlushRules:
    def test_zero_delay_returns_lone_item_immediately(self):
        inbox = _Inbox(capacity=64)
        inbox.put("a")
        assert inbox.take(64) == ["a"]
        assert len(inbox) == 0

    def test_oversize_stream_splits_into_max_size_batches(self):
        inbox = _Inbox(capacity=48)
        # The consumer is "busy": nothing calls take() while 11 items arrive.
        for i in range(11):
            assert inbox.put(i)
        assert len(inbox) == 11
        assert inbox.take(8) == list(range(8))  # capped at the batch size
        assert inbox.take(8) == [8, 9, 10]      # remainder next, same order
        assert len(inbox) == 0

    def test_order_preserved_across_batches(self):
        inbox = _Inbox(capacity=23)
        for i in range(23):
            inbox.put(i)
        inbox.close()
        batches = list(iter(lambda: inbox.take(5), None))
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
        assert [item for batch in batches for item in batch] == list(range(23))


class TestBackpressure:
    def test_submit_blocks_when_pending_full(self):
        inbox = _Inbox(capacity=4)
        for i in range(4):
            inbox.put(i)
        assert inbox.put(98) is False  # a non-blocking put sheds instead
        producer, done = run_in_thread(inbox.put, 99, True)
        producer.join(timeout=0.2)
        assert producer.is_alive(), "a blocking put should wait while full"
        assert inbox.take(2) == [0, 1]
        producer.join(timeout=WAIT)
        assert done == [True]
        assert inbox.take(2) == [2, 3]
        assert inbox.take(2) == [99]

    def test_default_bound_is_six_batches(self):
        with CascadeServer(
            lambda x: x, accept_all_dmu(), lambda x: x, max_batch_size=8, host_workers=0
        ) as server:
            assert server.snapshot().queues["bnn"].capacity == 48

    def test_try_submit_returns_none_when_full(self):
        h = ParkedServer(max_batch_size=1)  # rung 0 holds 6 images
        try:
            futures = [h.park()] + [h.server.submit(np.zeros(4)) for _ in range(6)]
            assert h.server.try_submit(np.zeros(4)) is None
            assert h.server.snapshot().submitted == 7  # the refusal is not counted
        finally:
            h.release.set()
        for future in futures:
            assert future.result(timeout=WAIT).source == "bnn"
        h.server.close()
        assert h.server.snapshot().check() == []


class TestShutdown:
    def test_close_drains_then_yields_none(self):
        inbox = _Inbox(capacity=8)
        for item in "abc":
            inbox.put(item)
        inbox.close()
        assert inbox.put("d") is False
        assert inbox.take(2) == ["a", "b"]
        assert inbox.take(2) == ["c"]
        assert inbox.take(2) is None
        assert inbox.take(2) is None

    def test_close_wakes_an_idle_consumer_and_a_blocked_producer(self):
        inbox = _Inbox(capacity=1)
        consumer, got = run_in_thread(inbox.take, 1)
        inbox.close()
        consumer.join(timeout=WAIT)
        assert not consumer.is_alive()
        assert got == [None]

        inbox = _Inbox(capacity=1)
        inbox.put(0)
        producer, done = run_in_thread(inbox.put, 1, True)
        producer.join(timeout=0.2)
        assert producer.is_alive()
        inbox.close()
        producer.join(timeout=WAIT)
        assert done == [False]
        assert inbox.take(1) == [0]

    def test_every_consumer_exits_on_close(self):
        inbox = _Inbox(capacity=100)
        taken: list[list[int]] = []
        lock = threading.Lock()

        def consume():
            while (batch := inbox.take(3)) is not None:
                with lock:
                    taken.append(batch)

        consumers = [threading.Thread(target=consume, daemon=True) for _ in range(4)]
        for thread in consumers:
            thread.start()
        for i in range(50):
            inbox.put(i)
        inbox.close()
        for thread in consumers:
            thread.join(timeout=WAIT)
            assert not thread.is_alive()
        assert sorted(item for batch in taken for item in batch) == list(range(50))

    def test_blocked_submit_is_released_by_close(self):
        h = ParkedServer(max_batch_size=1)
        futures = [h.park()] + [h.server.submit(np.zeros(4)) for _ in range(6)]
        errors = []

        def blocked_submit():
            try:
                h.server.submit(np.zeros(4))
            except ServerClosed as exc:
                errors.append(exc)

        producer = threading.Thread(target=blocked_submit, daemon=True)
        producer.start()
        producer.join(timeout=0.2)
        assert producer.is_alive(), "submit should block while rung 0 is full"
        closer = threading.Thread(target=h.server.close, daemon=True)
        closer.start()
        producer.join(timeout=WAIT)
        assert not producer.is_alive() and len(errors) == 1
        h.release.set()
        closer.join(timeout=WAIT)
        assert not closer.is_alive()
        # What entered before close drains; the refused submit fails typed.
        for future in futures:
            assert future.result(timeout=WAIT).source == "bnn"
        snap = h.server.snapshot()
        assert snap.failed == 1
        assert snap.check() == []

    def test_close_is_idempotent_and_submit_raises_after(self):
        server = CascadeServer(lambda x: x, accept_all_dmu(), lambda x: x, host_workers=0)
        server.close()
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(np.zeros(4))
        with pytest.raises(ServerClosed):
            server.try_submit(np.zeros(4))

    def test_constructor_validation(self):
        fns = (lambda x: x, accept_all_dmu(), lambda x: x)
        with pytest.raises(ValueError):
            CascadeServer(*fns, max_batch_size=0)
        with pytest.raises(ValueError):
            CascadeServer(*fns, host_queue_capacity=0)


def test_rung_zero_books_its_queue_wait():
    clock = FakeClock()
    h = ParkedServer(clock=clock)
    try:
        first = h.park()
        second = h.server.submit(np.zeros(4))  # waits behind the parked batch
        clock.now = 0.5
    finally:
        h.release.set()
    first.result(timeout=WAIT)
    second.result(timeout=WAIT)
    h.server.close()
    wait = h.server.snapshot().stages["bnn_queue_wait"]
    assert wait.count == 2
    assert wait.total_seconds == pytest.approx(0.5)  # the parked one took at once
