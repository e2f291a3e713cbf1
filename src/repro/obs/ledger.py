"""One primitive for every layer's books: counters, gauges and their laws.

Eq. (1) prices host time by ``R_rerun``, and a server only knows it from
its books.  Every serving layer keeps them in a :class:`Ledger`: named
counters (plain or keyed, e.g. ``faults[stage]``), gauges that also keep
their maximum, and conservation laws declared as data (:class:`Law`,
``Σ parts == total``, holding always or once drained), behind one lock.
:meth:`Ledger.read` is a consistent copy, so a law over counters moved
by one :meth:`Ledger.add` holds at every read; :meth:`Ledger.check`
returns the violated laws.  Laws also evaluate on any snapshot carrying
the counters as attributes: that is where the public snapshot types get
``balanced``, ``in_flight`` and ``terminal``.  While a :mod:`repro.obs`
tracer is installed, each increment is also a tracer counter sample (each
gauge level a gauge sample) under its declared name: one registry.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace

from . import tracer as _tracer

__all__ = ["Law", "Ledger", "Reading", "deltas", "tally", "violations"]


def _get(books, name: str):
    return books[name] if isinstance(books, Mapping) else getattr(books, name)


def tally(books, name: str):
    """Counter *name* of *books* (a mapping or a snapshot); keyed ones sum their keys."""
    value = _get(books, name)
    return sum(value.values()) if isinstance(value, Mapping) else value


@dataclass(frozen=True)
class Law:
    """``Σ parts == total``; a keyed part counts as the sum over its keys.

    A ``drained`` law holds once in-flight work has drained, and its gap
    is the in-flight count; any other law holds at every read.
    """

    name: str
    parts: tuple[str, ...]
    total: str
    drained: bool = False

    def terminal(self, books) -> float:
        """``Σ parts`` of *books* (a counter mapping or a snapshot)."""
        return sum(tally(books, part) for part in self.parts)

    def gap(self, books) -> float:
        """``total - Σ parts``: what has not reached a part yet."""
        return tally(books, self.total) - self.terminal(books)

    def __str__(self) -> str:
        return f"{self.name}: {' + '.join(self.parts)} == {self.total}"


def violations(laws: Iterable[Law], books, drained: bool = True) -> list[Law]:
    """The *laws* that *books* break; ``drained=False`` skips drained laws."""
    return [law for law in laws if (drained or not law.drained) and law.gap(books)]


def deltas(later, earlier, names: Iterable[str]) -> dict:
    """``later - earlier`` for each counter in *names* (per key if keyed)."""
    out = {}
    for name in names:
        a, b = _get(later, name), _get(earlier, name)
        out[name] = {k: v - b.get(k, 0) for k, v in a.items()} if isinstance(a, Mapping) else a - b
    return out


@dataclass(frozen=True)
class Reading:
    """A consistent copy of one ledger (keyed entries are dicts)."""

    counters: dict
    gauges: dict
    maxima: dict
    laws: tuple[Law, ...] = ()

    def since(self, earlier: "Reading") -> "Reading":
        """Counters become ``self - earlier``; gauges keep the later levels."""
        return replace(self, counters=deltas(self.counters, earlier.counters, self.counters))

    def check(self, drained: bool = True) -> list[Law]:
        return violations(self.laws, self.counters, drained)


def _copy(book: dict) -> dict:
    return {name: dict(v) if isinstance(v, dict) else v for name, v in book.items()}


class Ledger:
    """Declared counters, gauges and laws behind one lock (see module docs).

    *counters* and *gauges* map each name to its tracer name: a string
    (``{}`` takes the key of a keyed one), a ``key -> name | None``
    callable, or ``None`` (untraced).  Nothing undeclared can be added
    to or set.  The *keyed* names book per key (``add(key, name=n)``) and
    read as ``key -> value`` dicts; *laws* are what the counters obey.
    """

    def __init__(self, counters: Mapping, gauges: Mapping = {}, keyed=(), laws=()):
        self.laws = tuple(laws)
        self._keyed = frozenset(keyed)
        undeclared = {n for law in self.laws for n in (*law.parts, law.total)} - set(counters)
        if undeclared or not self._keyed <= {*counters, *gauges}:
            raise ValueError(f"laws or keys name undeclared counters: {sorted(undeclared)}")
        self._trace = {n: t for n, t in {**counters, **gauges}.items() if t is not None}
        self._lock = threading.Lock()
        self._counters = {n: {} if n in self._keyed else 0 for n in counters}
        self._gauges = {n: {} if n in self._keyed else 0 for n in gauges}
        self._maxima = _copy(self._gauges)

    def add(self, key=None, /, **counts) -> None:
        """Add each ``name=n`` to its counter (keyed ones under *key*), atomically.

        A keyed counter gains a key at its first nonzero increment.
        """
        with self._lock:
            book = self._counters
            for name, n in counts.items():
                if name in self._keyed:
                    if n:
                        slot = book[name]
                        slot[key] = slot.get(key, 0) + n
                else:
                    book[name] += n
        tracer = _tracer._ACTIVE
        if tracer is not None:
            self._mirror(tracer.count, key, {n: v for n, v in counts.items() if v})

    def set(self, key=None, /, **levels) -> None:
        """Set each ``name=level`` gauge (keyed ones under *key*); keeps the max."""
        with self._lock:
            for name, level in levels.items():
                if name in self._keyed:
                    self._gauges[name][key] = level
                    top = self._maxima[name]
                    top[key] = max(top.get(key, level), level)
                else:
                    self._gauges[name] = level
                    self._maxima[name] = max(self._maxima[name], level)
        tracer = _tracer._ACTIVE
        if tracer is not None:
            self._mirror(tracer.gauge, key, levels)

    def _mirror(self, sample, key, values: dict) -> None:
        for name, value in values.items():
            trace = self._trace.get(name)
            if trace is None:
                continue
            if callable(trace):
                trace = trace(key)
            elif name in self._keyed:
                trace = trace.format(key)
            if trace:
                sample(trace, value)

    def read(self) -> Reading:
        with self._lock:
            return Reading(
                _copy(self._counters), _copy(self._gauges), _copy(self._maxima), self.laws
            )

    def check(self, drained: bool = True) -> list[Law]:
        """The violated laws (``drained=False``: only the always-laws)."""
        return self.read().check(drained)

    def export(self) -> dict[str, float]:
        """The counters under their tracer names: what a tracer installed
        for this ledger's whole life holds for them."""
        out: dict[str, float] = {}
        for name, value in self.read().counters.items():
            for key, n in value.items() if isinstance(value, dict) else [(None, value)]:
                self._mirror(lambda t, v: out.__setitem__(t, out.get(t, 0) + v), key, {name: n})
        return {t: v for t, v in out.items() if v}
