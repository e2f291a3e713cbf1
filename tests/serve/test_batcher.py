"""Micro-batcher: pull-based cuts, size/age rule, backpressure, shutdown.

Every test drives ``take()`` from the test thread against a fake clock;
the only threads are producers/consumers that *must* block, and each is
joined with a timeout.
"""

import threading

import pytest

from repro.serve import MicroBatcher


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run_in_thread(fn, *args):
    """Start ``fn(*args)``; returns (thread, results list it appends to)."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    thread.start()
    return thread, out


class TestFlushRules:
    def test_zero_delay_returns_lone_item_immediately(self):
        batcher = MicroBatcher(max_batch_size=64, clock=FakeClock())  # frozen clock
        batcher.submit("a")
        assert batcher.take() == ["a"]
        assert batcher.pending == 0

    def test_oversize_stream_splits_into_max_size_batches(self):
        batcher = MicroBatcher(max_batch_size=8, clock=FakeClock())
        # The consumer is "busy": nothing calls take() while 11 items arrive.
        for i in range(11):
            batcher.submit(i)
        assert batcher.pending == 11
        assert batcher.take() == list(range(8))  # capped at max_batch_size
        assert batcher.take() == [8, 9, 10]      # remainder next, same order
        assert batcher.pending == 0

    def test_order_preserved_across_batches(self):
        batcher = MicroBatcher(max_batch_size=5, max_pending=23, clock=FakeClock())
        for i in range(23):
            batcher.submit(i)
        batcher.close()
        batches = list(iter(batcher.take, None))
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
        assert [item for batch in batches for item in batch] == list(range(23))

    def test_size_flush_does_not_wait_for_deadline(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay_s=30.0, clock=FakeClock())
        for i in range(4):
            batcher.submit(i)
        assert batcher.take() == [0, 1, 2, 3]

    def test_deadline_counts_from_the_oldest_item(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=64, max_delay_s=0.05, clock=clock)
        batcher.submit("old")
        clock.now = 0.03
        batcher.submit("new")
        clock.now = 0.05  # "old" is 50 ms old, "new" only 20 ms: due anyway
        assert batcher.take() == ["old", "new"]

    def test_deadline_flush_emits_partial_batch(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=64, max_delay_s=0.05, clock=clock)
        batcher.submit("a")
        consumer, got = run_in_thread(batcher.take)
        consumer.join(timeout=0.2)
        assert consumer.is_alive(), "take() returned before the oldest item was due"
        clock.now = 0.05
        batcher.submit("b")  # wakes the consumer, which re-reads the clock
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert got == [["a", "b"]]


class TestBackpressure:
    def test_submit_blocks_when_pending_full(self):
        batcher = MicroBatcher(max_batch_size=2, max_pending=4, clock=FakeClock())
        for i in range(4):
            batcher.submit(i)
        producer, _ = run_in_thread(batcher.submit, 99)
        producer.join(timeout=0.2)
        assert producer.is_alive(), "submit should block while pending is full"
        assert batcher.take() == [0, 1]
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert batcher.take() == [2, 3]
        assert batcher.take() == [99]

    def test_default_bound_is_six_batches(self):
        assert MicroBatcher(max_batch_size=8).max_pending == 48


class TestShutdown:
    def test_close_drains_then_yields_none(self):
        batcher = MicroBatcher(max_batch_size=2, max_delay_s=30.0, clock=FakeClock())
        for item in "abc":
            batcher.submit(item)
        batcher.close()
        assert batcher.take() == ["a", "b"]
        assert batcher.take() == ["c"]  # partial and young, but closed: due
        assert batcher.take() is None
        assert batcher.take() is None

    def test_close_wakes_an_idle_consumer_and_a_blocked_producer(self):
        batcher = MicroBatcher(max_batch_size=1, max_pending=1, clock=FakeClock())
        consumer, got = run_in_thread(batcher.take)
        batcher.close()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert got == [None]

        batcher = MicroBatcher(max_batch_size=1, max_pending=1, clock=FakeClock())
        batcher.submit(0)
        errors = []

        def blocked_submit():
            try:
                batcher.submit(1)
            except RuntimeError as exc:
                errors.append(exc)

        producer = threading.Thread(target=blocked_submit, daemon=True)
        producer.start()
        batcher.close()
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert len(errors) == 1
        assert batcher.take() == [0]

    def test_close_is_idempotent_and_submit_raises_after(self):
        batcher = MicroBatcher(max_batch_size=2)
        batcher.close()
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    def test_constructor_validation(self):
        MicroBatcher(max_delay_s=0.0)  # zero linger is the default, accepted
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay_s=-0.001)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=8, max_pending=4)
