"""Shard router: fan requests across N cascade replica processes.

One :class:`~repro.serve.CascadeServer` is one interpreter — one GIL,
one BNN, one host pool.  The router is the horizontal lever of
ROADMAP's "millions of users" step: it owns ``N`` replicas (each a full
BNN → DMU → host cascade, usually in its own *process*) and places each
request on one of them, so aggregate throughput scales with replica
count the same way Eq. (1) scales the host stage with workers.

Placement
---------
``round_robin`` rotates the first-choice replica per request;
``rendezvous`` ranks replicas by highest-random-weight hash of the
image bytes, so the same image always lands on the same replica (the
placement that makes a per-replica result cache effective, ROADMAP
item 5) and removing a replica only remaps that replica's share.

Failover and accounting
-----------------------
Each replica is guarded by a
:class:`~repro.serve.resilience.CircuitBreaker`: dispatch failures and
failed results count against it, and an open breaker takes the replica
out of the candidate order, so a dead replica's *new* traffic drains to
survivors (``net.failover``).  Requests already in flight on a replica
that dies are **not** resubmitted — they fail with the typed
:class:`ReplicaFailure`, which the frontend maps to an
``ERROR(replica_failure)`` frame (silent replays could double-classify;
CascadeCNN's cascade is stateless but callers may not be).  Every
submitted request lands in exactly one bucket, the invariant chaos
tests assert::

    routed + rejected + failed == submitted

where ``routed`` counts requests answered by a replica, ``rejected``
counts admission refusals (:class:`NoHealthyReplica`), and ``failed``
counts typed terminal errors after placement.

Each process replica is a :class:`repro.parallel.child.Child`, the same
child-process channel as each host pool worker: one duplex pipe, images
as raw bytes after a small header, ping/stop and the orphan guard
written once (the message table is in :mod:`repro.parallel.child`).

Replica caches
--------------
A replica whose factory asks for ``cache_max_bytes`` gets its result
cache and single-flight on the *router's* side of its pipe, in its
:class:`ProcessReplica` handle: a repeat resolves inside :meth:`submit`
with a dict lookup, and only misses cross to the child.  Under
``rendezvous`` placement the router's one :class:`PayloadMemo` lookup
yields both the replica order and the content key, and the router hands
the key to the replica, so a held frame is looked up once per request.
A hit comes back already resolved and is booked ``routed`` on its
replica before :meth:`ShardRouter.submit` returns it; only a pending or
failed future is wrapped and settled by a done-callback.
"""

from __future__ import annotations

import functools
import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..cache import CachingFrontend, ResultCache
from ..obs.ledger import Law, Ledger, violations
from ..parallel import default_start_method
from ..parallel.child import Child
from ..serve.resilience import CircuitBreaker
from ..util.deadline import time_left
from ..util.hashing import PayloadMemo, content_key, rendezvous_order

__all__ = [
    "ROUTER_LAW",
    "BY_REPLICA",
    "ReplicaFailure",
    "NoHealthyReplica",
    "RouterMetrics",
    "RouterSnapshot",
    "InProcessReplica",
    "ProcessReplica",
    "ShardRouter",
]

PLACEMENTS = ("round_robin", "rendezvous")


class ReplicaFailure(RuntimeError):
    """A replica died or errored with this request in flight (typed)."""

    def __init__(self, replica: int, detail):
        super().__init__(f"replica {replica} failed: {detail}")
        self.replica = replica
        self.detail = detail


class NoHealthyReplica(RuntimeError):
    """Admission refused: every replica is dead or breaker-open."""


#: Every submitted request lands in exactly one bucket once drained.
ROUTER_LAW = Law("terminal", ("routed", "rejected", "failed"), "submitted", drained=True)
#: The per-replica split of ``routed`` re-sums to it.
BY_REPLICA = Law("by_replica", ("replica_routed",), "routed")


@dataclass(frozen=True)
class RouterSnapshot:
    """Point-in-time view of the router's books.

    :data:`ROUTER_LAW` (``routed + rejected + failed == submitted``)
    holds once traffic drains; :data:`BY_REPLICA` always.
    """

    submitted: int
    routed: int               # answered by a replica
    rejected: int             # NoHealthyReplica at admission
    failed: int               # typed terminal error after placement
    failovers: int            # routed requests placed past their first choice
    replica_routed: dict[int, int] = field(default_factory=dict)
    replica_failed: dict[int, int] = field(default_factory=dict)

    @property
    def terminal(self) -> int:
        return ROUTER_LAW.terminal(self)

    @property
    def in_flight(self) -> int:
        return ROUTER_LAW.gap(self)

    @property
    def balanced(self) -> bool:
        return not violations((ROUTER_LAW, BY_REPLICA), self)


class RouterMetrics(Ledger):
    """The router's ledger: ``add(<field>=1)``, per replica where keyed."""

    def __init__(self):
        super().__init__(
            {
                "submitted": None, "routed": None, "rejected": "net.rejected",
                "failed": None, "failovers": "net.failover",
                "replica_routed": None, "replica_failed": None,
            },
            keyed=("replica_routed", "replica_failed"),
            laws=(ROUTER_LAW, BY_REPLICA),
        )

    def snapshot(self) -> RouterSnapshot:
        return RouterSnapshot(**self.read().counters)


# -- replica handles ----------------------------------------------------------
class InProcessReplica:
    """A replica backed by an in-process server (tests, single-node dev).

    Wraps any object with ``submit(image) -> Future[ServeResult]`` and
    ``close()`` — normally a :class:`~repro.serve.CascadeServer`.
    """

    def __init__(self, index: int, server):
        self.index = index
        self._server = server
        self._dead = False

    def submit(self, image: np.ndarray, key: bytes | None = None) -> Future:
        """Submit to the server; *key* is accepted and ignored (no cache)."""
        if self._dead:
            raise ReplicaFailure(self.index, "replica is closed")
        return self._server.submit(image)

    def alive(self) -> bool:
        return not self._dead

    def ping(self, timeout: float = 5.0) -> bool:
        return self.alive()

    def kill(self) -> None:
        """Test hook: drop dead exactly like a crashed process replica."""
        self._dead = True
        self._server.close(timeout=0.1)

    def close(self, timeout: float | None = 10.0) -> None:
        """Close the server; after :meth:`kill`, return at once."""
        if not self._dead:
            self._dead = True
            self._server.close(timeout=timeout)


def _replica_handler(factory: Callable[[], dict]):
    """Build a replica's cascade in the child (see :class:`ProcessReplica`).

    The factory's ``cache_max_bytes`` is reported in the ready info, not
    built here: the replica's cache lives in its parent-side handle.
    """
    from ..serve.server import CascadeServer

    kwargs = factory()
    cache_max_bytes = int(kwargs.pop("cache_max_bytes", 0))
    server = CascadeServer(**kwargs)

    def submit(kind: str, array: np.ndarray) -> Future:
        try:
            return server.submit(array)
        except Exception as exc:  # e.g. ServerClosed: the caller sees its repr
            refused: Future = Future()
            refused.set_exception(exc)
            return refused

    return submit, server.close, {"cache_max_bytes": cache_max_bytes}


class ProcessReplica(Child):
    """A full cascade replica in its own process.

    A :class:`~repro.parallel.child.Child`: each image goes out as a
    ``submit`` request with its pixels as raw bytes, and the child
    answers from its server's done-callback.  *factory* returns the
    :class:`~repro.serve.CascadeServer` keyword arguments and runs in the
    child (trained networks, fault injectors are built post-fork).  An
    extra ``cache_max_bytes`` key, when truthy, gives the replica one
    result cache of that byte budget: the child reports it when ready,
    and this handle puts :attr:`cache_frontend`, a
    :class:`~repro.cache.CachingFrontend`, in front of its own pipe.  A
    hit, or a follower of an in-flight miss, never crosses the pipe; with
    rendezvous placement the image bytes that pick a replica also name
    its cache entry, so repeats land where their answer is cached.
    :meth:`submit` takes that entry's *key* from the router, which must
    equal ``content_key(image)``; the key never crosses the pipe.
    Death fails every in-flight future with :class:`ReplicaFailure`, and
    a dead or closed replica refuses every submit, cached or not.
    """

    def __init__(
        self,
        index: int,
        factory: Callable[[], dict],
        *,
        start_method: str | None = None,
        spawn_timeout_s: float = 60.0,
    ):
        self.index = index
        # Not a daemon: the replica's own CascadeServer may spawn a
        # host worker pool (REPRO_HOST_WORKERS), and daemonic processes
        # cannot have children.
        super().__init__(
            functools.partial(_replica_handler, factory),
            name=f"repro-replica-{index}",
            start_method=start_method or default_start_method(),
            daemon=False,
            spawn_timeout_s=spawn_timeout_s,
            error=functools.partial(ReplicaFailure, index),
        )
        #: The replica's cache and single-flight, or ``None`` without a budget.
        self.cache_frontend: CachingFrontend | None = None
        budget = self.info["cache_max_bytes"]
        if budget:
            # The frontend's backend is the pipe itself, not this submit.
            self.cache_frontend = CachingFrontend(
                SimpleNamespace(submit=self._send_image), ResultCache(max_bytes=budget)
            )

    def submit(self, image: np.ndarray, key: bytes | None = None) -> Future:
        """Answer from the cache, join an identical miss in flight, or send
        *image* down the pipe; *key* (``content_key(image)``, or ``None``)
        saves the cache its own lookup."""
        if self._dead is not None:  # refused before any cache lookup
            raise self._error(self._dead)
        if self.cache_frontend is None:
            return self._send_image(image)
        return self.cache_frontend.submit(image, key)

    def _send_image(self, image: np.ndarray) -> Future:
        return self.request("submit", array=image)


# -- router -------------------------------------------------------------------
#: ``str`` of each builtin dtype seen, by identity: numpy formats a
#: dtype's name in Python (~4 us).  Builtin dtypes are a few singletons,
#: and the entry holds its dtype, so an id is never reused.
_BUILTIN_DTYPE_NAMES: dict[int, tuple[np.dtype, str]] = {}


def _dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, remembered for builtin dtypes."""
    held = _BUILTIN_DTYPE_NAMES.get(id(dtype))
    if held is not None:
        return held[1]
    name = str(dtype)
    if dtype.isbuiltin == 1:
        _BUILTIN_DTYPE_NAMES[id(dtype)] = (dtype, name)
    return name


class ShardRouter:
    """Place requests across replicas with breakers and failover.

    Parameters
    ----------
    replicas:
        Replica handles (:class:`InProcessReplica` /
        :class:`ProcessReplica`).  :meth:`spawn` builds process replicas
        from a factory.
    placement:
        ``"round_robin"`` (default) or ``"rendezvous"`` (see module docs).
    breaker_factory:
        Builds the per-replica :class:`CircuitBreaker`; the default
        (3 consecutive failures, 0.5 s cool-down) takes a crashed
        replica out of rotation within a handful of requests.
    """

    def __init__(
        self,
        replicas: Sequence,
        *,
        placement: str = "round_robin",
        metrics: RouterMetrics | None = None,
        breaker_factory: Callable[[], CircuitBreaker] | None = None,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        if placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
        self._replicas = list(replicas)
        self._placement = placement
        self.metrics = metrics if metrics is not None else RouterMetrics()
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(failure_threshold=3, cooldown_s=0.5)
        self._breakers = [breaker_factory() for _ in self._replicas]
        self._rr = itertools.count()
        self._rr_lock = threading.Lock()
        self._recent = PayloadMemo()
        # With a replica cache, rendezvous placement also yields the key.
        self._keyed = placement == "rendezvous" and any(
            getattr(replica, "cache_frontend", None) is not None for replica in self._replicas
        )
        self._closed = False

    @classmethod
    def spawn(
        cls,
        factory: Callable[[], dict],
        n_replicas: int,
        *,
        start_method: str | None = None,
        **kwargs,
    ) -> "ShardRouter":
        """Spawn *n_replicas* :class:`ProcessReplica` from one factory."""
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        replicas: list[ProcessReplica] = []
        try:
            for index in range(n_replicas):
                replicas.append(
                    ProcessReplica(index, factory, start_method=start_method)
                )
        except Exception:
            for replica in replicas:
                replica.close(timeout=2.0)
            raise
        return cls(replicas, **kwargs)

    @property
    def replicas(self) -> tuple:
        return tuple(self._replicas)

    # -- placement -------------------------------------------------------------
    def _place(self, image: np.ndarray) -> tuple[Sequence[int], bytes | None]:
        """The replica order for *image*, and its content key when a
        replica cache will want one (else ``None``)."""
        n = len(self._replicas)
        if self._placement == "round_robin":
            with self._rr_lock:
                start = next(self._rr) % n
            return [(start + i) % n for i in range(n)], None
        # Rendezvous (highest-random-weight): deterministic per image.
        # The keyed-blake2b construction lives in repro.util.hashing so
        # the cache keys the same bytes; placement is pinned by a golden
        # test and must stay byte-identical.  A repeated payload reuses
        # its order (and key) from the memo for one byte comparison.
        if not self._keyed:
            order = self._recent.lookup(
                image, n, lambda owned: tuple(rendezvous_order(owned, n))
            )
            return order, None
        # The tag carries everything the key hashes: equal dtypes may
        # print differently (an aligned and an unaligned struct), so the
        # dtype enters as its string, never as the object.
        return self._recent.lookup(
            image,
            (n, _dtype_name(image.dtype), image.shape),
            lambda owned: (tuple(rendezvous_order(owned, n)), content_key(owned)),
        )

    # -- submission ------------------------------------------------------------
    def submit(self, image: np.ndarray) -> Future:
        """Place one image; returns a future resolving to a ServeResult.

        Raises :class:`NoHealthyReplica` (and books a rejection) when no
        replica can take the request right now.  A replica future that is
        already resolved (a cache hit) is booked here and returned as is.
        """
        if self._closed:
            raise NoHealthyReplica("router is closed")
        self.metrics.add(submitted=1)
        image = np.asarray(image)
        with obs.trace_span("net.route"):
            order, key = self._place(image)
            for position, index in enumerate(order):
                replica = self._replicas[index]
                breaker = self._breakers[index]
                if not replica.alive() or not breaker.allow():
                    continue
                try:
                    inner = replica.submit(image, key)
                except Exception:
                    breaker.record_failure()
                    continue
                if position > 0:  # placed past its first choice
                    self.metrics.add(failovers=1)
                if inner.done() and not inner.cancelled() and inner.exception() is None:
                    self._book_success(index)
                    return inner
                outer: Future = Future()
                inner.add_done_callback(
                    lambda fut, index=index, outer=outer: self._settle(outer, index, fut)
                )
                return outer
        self.metrics.add(rejected=1)
        raise NoHealthyReplica(
            f"no healthy replica among {len(self._replicas)} "
            f"(alive: {[r.alive() for r in self._replicas]})"
        )

    def _book_success(self, index: int) -> None:
        self.metrics.add(index, routed=1, replica_routed=1)
        self._breakers[index].record_success()

    def _settle(self, outer: Future, index: int, inner: Future) -> None:
        exc = inner.exception()
        if exc is None:
            self._book_success(index)
            outer.set_result(inner.result())
        else:
            self.metrics.add(index, failed=1, replica_failed=1)
            self._breakers[index].record_failure()
            outer.set_exception(exc)

    def classify_many(self, images, timeout: float | None = None) -> list:
        futures = [self.submit(image) for image in images]
        return [f.result(timeout=timeout) for f in futures]

    # -- health ----------------------------------------------------------------
    def ping(self, timeout: float = 5.0) -> list[bool]:
        """Health-check every replica over its control plane."""
        return [replica.ping(timeout=timeout) for replica in self._replicas]

    def alive(self) -> list[bool]:
        return [replica.alive() for replica in self._replicas]

    def breaker_states(self) -> list[str]:
        return [breaker.state for breaker in self._breakers]

    def snapshot(self) -> RouterSnapshot:
        return self.metrics.snapshot()

    def close(self, timeout: float | None = 10.0) -> None:
        """Close every replica within one *timeout* in all (idempotent).

        A process replica that has not exited when the time is up is
        killed, which fails its in-flight requests with
        :class:`ReplicaFailure`.
        """
        if self._closed:
            return
        self._closed = True
        left = time_left(timeout)
        for replica in self._replicas:
            replica.close(timeout=left())

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
