"""The Ledger primitive: declared counters/gauges, laws, readings, mirroring."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs.ledger import Law, Ledger, deltas, tally, violations

BOOKS = Law("books", ("done", "failed"), "submitted", drained=True)
SPLIT = Law("split", ("by_worker",), "done")


def make_ledger():
    return Ledger(
        {
            "submitted": None,
            "done": "t.done",
            "failed": "t.failed",
            "by_worker": "t.worker.{}",
            "skipped": lambda key: None if key == "quiet" else f"t.skip.{key}",
        },
        gauges={"depth": "t.depth", "level": None},
        keyed=("by_worker", "skipped", "depth"),
        laws=(BOOKS, SPLIT),
    )


class TestCounters:
    def test_plain_and_keyed_counters_add_up(self):
        ledger = make_ledger()
        ledger.add(submitted=3)
        ledger.add("w0", done=1, by_worker=1)
        ledger.add("w1", done=1, by_worker=1)
        ledger.add("w0", done=1, by_worker=1)
        counters = ledger.read().counters
        assert counters["submitted"] == 3 and counters["done"] == 3
        assert counters["by_worker"] == {"w0": 2, "w1": 1}
        assert counters["skipped"] == {}

    def test_keyed_counter_gains_a_key_only_when_nonzero(self):
        ledger = make_ledger()
        ledger.add("w0", by_worker=0)
        assert ledger.read().counters["by_worker"] == {}

    def test_read_is_a_copy(self):
        ledger = make_ledger()
        ledger.add("w0", by_worker=1)
        reading = ledger.read()
        reading.counters["by_worker"]["w0"] = 99
        assert ledger.read().counters["by_worker"] == {"w0": 1}

    def test_undeclared_names_are_refused(self):
        ledger = make_ledger()
        with pytest.raises(KeyError):
            ledger.add(typo=1)
        with pytest.raises(KeyError):
            ledger.set(typo=1)
        with pytest.raises(ValueError):
            Ledger({"a": None}, laws=(Law("x", ("a",), "b"),))

    def test_since_is_the_counter_delta_and_keeps_gauges(self):
        ledger = make_ledger()
        ledger.add("w0", submitted=2, done=2, by_worker=2)
        ledger.set(level=5)
        earlier = ledger.read()
        ledger.add("w1", submitted=1, done=1, by_worker=1)
        ledger.set(level=2)
        window = ledger.read().since(earlier)
        assert window.counters["submitted"] == 1
        assert window.counters["by_worker"] == {"w0": 0, "w1": 1}
        assert window.gauges["level"] == 2 and window.maxima["level"] == 5

    def test_deltas_reads_attributes_too(self):
        later = SimpleNamespace(n=5, by={"a": 3, "b": 1})
        earlier = SimpleNamespace(n=2, by={"a": 1})
        assert deltas(later, earlier, ("n", "by")) == {"n": 3, "by": {"a": 2, "b": 1}}


class TestGauges:
    def test_gauges_keep_their_maximum(self):
        ledger = make_ledger()
        for level in (3, 7, 2):
            ledger.set(level=level)
            ledger.set("q", depth=level * 10)
        reading = ledger.read()
        assert (reading.gauges["level"], reading.maxima["level"]) == (2, 7)
        assert (reading.gauges["depth"], reading.maxima["depth"]) == ({"q": 20}, {"q": 70})


class TestLaws:
    def test_check_reports_the_broken_law(self):
        ledger = make_ledger()
        ledger.add(submitted=2)
        assert ledger.check() == [BOOKS]          # two in flight
        assert ledger.check(drained=False) == []  # not a violation mid-flight
        ledger.add("w0", done=1, by_worker=1)
        ledger.add(failed=1)
        assert ledger.check() == []
        ledger.add(done=1)                        # a done with no worker
        assert ledger.check() == [BOOKS, SPLIT]
        assert ledger.check(drained=False) == [SPLIT]

    def test_laws_evaluate_on_mappings_and_snapshots(self):
        snap = SimpleNamespace(submitted=5, done=3, failed=1, by_worker={"a": 2, "b": 1})
        assert tally(snap, "by_worker") == 3
        assert BOOKS.terminal(snap) == 4 and BOOKS.gap(snap) == 1
        assert violations((BOOKS, SPLIT), snap) == [BOOKS]
        assert violations((BOOKS, SPLIT), vars(snap), drained=False) == []
        assert str(BOOKS) == "books: done + failed == submitted"

    def test_one_add_is_atomic_for_the_always_laws(self):
        """Four writers and a reader on a tiny switch interval: no read
        sees an always-law broken, and no increment is lost."""
        ledger = make_ledger()
        stop = threading.Event()
        seen: list = []
        writers, per_writer = 4, 5_000

        def reader():
            while not stop.is_set():
                seen.extend(ledger.check(drained=False))

        def writer(name):
            for _ in range(per_writer):
                ledger.add(name, done=1, by_worker=1)

        threads = [threading.Thread(target=writer, args=(f"w{i}",)) for i in range(writers)]
        watcher = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watcher.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            watcher.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*threads, watcher))
        assert seen == []
        counters = ledger.read().counters
        assert counters["done"] == writers * per_writer
        assert counters["by_worker"] == {f"w{i}": per_writer for i in range(writers)}


class TestTracerMirror:
    def test_increments_become_tracer_samples_under_declared_names(self):
        with obs.tracing() as tracer:
            ledger = make_ledger()
            ledger.add("w0", submitted=2, done=1, by_worker=1)
            ledger.add("w1", done=1, by_worker=1, skipped=1)
            ledger.add("quiet", skipped=4, failed=0)
            ledger.set("q", depth=3, level=9)
        assert tracer.counters() == {
            "t.done": 2, "t.worker.w0": 1, "t.worker.w1": 1, "t.skip.w1": 1,
        }
        assert tracer.counters() == ledger.export()
        assert tracer.gauge_samples()["t.depth"][-1][1] == 3
        assert "level" not in tracer.gauge_samples()

    def test_nothing_is_recorded_without_a_tracer(self):
        ledger = make_ledger()
        ledger.add("w0", done=1, by_worker=1)
        assert obs.active() is None
        assert ledger.export() == {"t.done": 1, "t.worker.w0": 1}
