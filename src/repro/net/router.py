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

Each replica has one duplex pipe, like each of
:mod:`repro.parallel.runner`'s workers (ping/submit/stop messages);
images ride that pipe.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..obs.ledger import Law, Ledger, violations
from ..parallel import default_start_method
from ..serve.resilience import CircuitBreaker
from ..serve.server import ServeResult
from ..util.hashing import rendezvous_order

__all__ = [
    "ROUTER_LAW",
    "BY_REPLICA",
    "ReplicaFailure",
    "NoHealthyReplica",
    "RouterMetrics",
    "RouterSnapshot",
    "InProcessReplica",
    "ProcessReplica",
    "replica_main",
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
    failovers: int            # placements that skipped >= 1 preferred replica
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

    def submit(self, image: np.ndarray) -> Future:
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

    def close(self) -> None:
        self._dead = True
        self._server.close()


def replica_main(conn, factory: Callable[[], dict]) -> None:
    """Child-process body: build a cascade and serve the control pipe.

    *factory* returns the keyword arguments for
    :class:`~repro.serve.CascadeServer` (it runs in the child, so heavy
    state — trained networks, fault injectors — is built post-fork).
    One extra key, ``cache_max_bytes``, is popped before the server is
    built; when truthy it wraps the replica in a per-replica
    :class:`~repro.cache.CachingFrontend` of that byte budget.  Per-replica caches
    compose with rendezvous placement — the same image bytes that pick
    a replica also name that replica's cache entry, so repeats of an
    image always land where its answer is already cached.
    Messages: ``("submit", rid, image)`` → ``("result", rid, prediction,
    bnn_prediction, confidence, source, latency, cold_source)`` or
    ``("error", rid, repr)``; ``("ping", token)`` → ``("pong", token)``;
    ``("stop",)`` drains and exits.
    """
    from ..serve.server import CascadeServer

    try:
        kwargs = factory()
        cache_max_bytes = kwargs.pop("cache_max_bytes", 0)
        server = CascadeServer(**kwargs)
        if cache_max_bytes:
            from ..cache import CachingFrontend, ResultCache

            server = CachingFrontend(server, ResultCache(max_bytes=int(cache_max_bytes)))
    except Exception as exc:
        try:
            conn.send(("init_error", repr(exc)))
        except Exception:
            pass
        return
    send_lock = threading.Lock()

    def reply(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except Exception:
                pass

    def on_done(fut, rid):
        exc = fut.exception()
        if exc is None:
            r = fut.result()
            reply((
                "result", rid, int(r.prediction), int(r.bnn_prediction),
                float(r.confidence), r.source, float(r.latency_seconds), r.cold_source,
            ))
        else:
            reply(("error", rid, repr(exc)))

    conn.send(("ready", os.getpid()))
    # Watch the parent's death sentinel alongside the control pipe: the
    # replica is non-daemonic (it may own a host worker pool), so if the
    # router's process is SIGKILLed a blocking recv() would leave the
    # replica — and its workers — orphaned forever.
    parent = multiprocessing.parent_process()
    watch = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        try:
            if conn not in _conn_wait(watch):
                break  # parent died with nothing left to read
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ping":
            reply(("pong", message[1]))
            continue
        if kind == "submit":
            _, rid, image = message
            try:
                fut = server.submit(image)
            except Exception as exc:
                reply(("error", rid, repr(exc)))
                continue
            fut.add_done_callback(lambda f, rid=rid: on_done(f, rid))
    server.close()


class ProcessReplica:
    """A full cascade replica in its own process.

    The parent keeps a duplex pipe: a writer lock serializes submits, a
    reader thread resolves futures as results stream back.  Death (EOF
    on the pipe, or the process gone) fails every in-flight future with
    :class:`ReplicaFailure` and marks the replica dead — the router's
    breakers then drain its traffic to survivors.
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
        self._ctx = multiprocessing.get_context(start_method or default_start_method())
        parent_conn, child_conn = self._ctx.Pipe()
        self._conn = parent_conn
        # Not a daemon: the replica's own CascadeServer may spawn a
        # host worker pool (REPRO_HOST_WORKERS), and daemonic processes
        # cannot have children.  close()/kill() own the lifecycle.
        self._proc = self._ctx.Process(
            target=replica_main,
            args=(child_conn, factory),
            name=f"repro-replica-{index}",
            daemon=False,
        )
        self._proc.start()
        child_conn.close()
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._pongs: dict[int, threading.Event] = {}
        self._rid = itertools.count(1)
        self._dead = False
        if not self._conn.poll(spawn_timeout_s):
            self._fail_all("replica failed to start in time")
            self.kill()
            raise RuntimeError(f"replica {index} failed to start in time")
        reply = self._conn.recv()
        if reply[0] != "ready":
            detail = reply[1] if len(reply) > 1 else reply
            self.kill()
            raise RuntimeError(f"replica {index} failed to start: {detail}")
        self._reader = threading.Thread(
            target=self._read_loop, name=f"replica-{index}-reader", daemon=True
        )
        self._reader.start()

    # -- parent-side plumbing --------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "result":
                _, rid, prediction, bnn_prediction, confidence, source, latency, cold = message
                fut = self._pop_pending(rid)
                if fut is not None:
                    fut.set_result(ServeResult(
                        prediction=prediction,
                        bnn_prediction=bnn_prediction,
                        confidence=confidence,
                        source=source,
                        latency_seconds=latency,
                        cold_source=cold,
                    ))
            elif kind == "error":
                _, rid, detail = message
                fut = self._pop_pending(rid)
                if fut is not None:
                    fut.set_exception(ReplicaFailure(self.index, detail))
            elif kind == "pong":
                event = self._pongs.pop(message[1], None)
                if event is not None:
                    event.set()
        self._fail_all("replica process died")

    def _pop_pending(self, rid: int) -> Future | None:
        with self._pending_lock:
            return self._pending.pop(rid, None)

    def _fail_all(self, detail: str) -> None:
        self._dead = True
        with self._pending_lock:
            stranded = list(self._pending.values())
            self._pending.clear()
        for fut in stranded:
            if not fut.done():
                fut.set_exception(ReplicaFailure(self.index, detail))

    # -- replica handle API ----------------------------------------------------
    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    def submit(self, image: np.ndarray) -> Future:
        if self._dead or not self._proc.is_alive():
            raise ReplicaFailure(self.index, "replica is dead")
        rid = next(self._rid)
        fut: Future = Future()
        with self._pending_lock:
            self._pending[rid] = fut
        try:
            with self._send_lock:
                self._conn.send(("submit", rid, np.asarray(image)))
        except (OSError, BrokenPipeError, ValueError) as exc:
            self._pop_pending(rid)
            self._fail_all("replica pipe broke")
            raise ReplicaFailure(self.index, exc) from exc
        return fut

    def alive(self) -> bool:
        return not self._dead and self._proc.is_alive()

    def ping(self, timeout: float = 5.0) -> bool:
        if not self.alive():
            return False
        token = time.monotonic_ns()
        event = threading.Event()
        self._pongs[token] = event
        try:
            with self._send_lock:
                self._conn.send(("ping", token))
        except (OSError, BrokenPipeError):
            self._pongs.pop(token, None)
            return False
        ok = event.wait(timeout)
        self._pongs.pop(token, None)
        return ok

    def kill(self) -> None:
        """Chaos hook: hard-kill the replica process (SIGKILL)."""
        self._dead = True
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except Exception:
            pass
        self._fail_all("replica killed")

    def close(self, timeout: float = 10.0) -> None:
        self._dead = True
        try:
            with self._send_lock:
                self._conn.send(("stop",))
        except Exception:
            pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except Exception:
            pass
        self._fail_all("replica closed")


# -- router -------------------------------------------------------------------
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
    def _order(self, image: np.ndarray) -> list[int]:
        n = len(self._replicas)
        if self._placement == "round_robin":
            with self._rr_lock:
                start = next(self._rr) % n
            return [(start + i) % n for i in range(n)]
        # Rendezvous (highest-random-weight): deterministic per image.
        # The keyed-blake2b construction lives in repro.util.hashing so
        # the cache keys the same bytes; placement is pinned by a golden
        # test and must stay byte-identical.
        return rendezvous_order(image, n)

    # -- submission ------------------------------------------------------------
    def submit(self, image: np.ndarray) -> Future:
        """Place one image; returns a future resolving to a ServeResult.

        Raises :class:`NoHealthyReplica` (and books a rejection) when no
        replica can take the request right now.
        """
        if self._closed:
            raise NoHealthyReplica("router is closed")
        self.metrics.add(submitted=1)
        image = np.asarray(image)
        with obs.trace_span("net.route"):
            order = self._order(image)
            for position, index in enumerate(order):
                replica = self._replicas[index]
                breaker = self._breakers[index]
                if not replica.alive() or not breaker.allow():
                    continue
                try:
                    inner = replica.submit(image)
                except Exception:
                    breaker.record_failure()
                    self.metrics.add(failovers=1)
                    continue
                if position > 0:
                    self.metrics.add(failovers=1)
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

    def _settle(self, outer: Future, index: int, inner: Future) -> None:
        exc = inner.exception()
        if exc is None:
            self.metrics.add(index, routed=1, replica_routed=1)
            self._breakers[index].record_success()
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

    def close(self, timeout: float = 10.0) -> None:
        """Close every replica (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replica in self._replicas:
            replica.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
