"""Multi-tenant serving: named models sharing one host compute pool.

One deployment rarely serves one model.  :class:`MultiTenantServer`
runs N named *tenants* — each a full :class:`CascadeServer` (its own
BNN, DMU, ladder, threshold policy and :class:`ServerMetrics`) fronted
by a :class:`repro.cache.CachingFrontend` — while the expensive
host-stage compute is **shared**: every tenant's host re-inference
calls flow through one :class:`SharedHostPool`, which schedules them
with weighted deficit-round-robin (DRR) over per-tenant bounded
queues:

* **cost-based** — a work item costs ``len(batch) × cost_s_per_image``
  where the per-image cost is the tenant's *measured* host latency
  (EWMA of ``t_fp``, seeded from the spec), so a tenant with a 4×
  slower model consumes 4× the deficit per image and cannot starve the
  cheap tenants by submitting equal image counts;
* **weighted** — each visit tops a backlogged tenant's deficit up by
  ``quantum_s × weight``, so long-run host-seconds divide
  proportionally to the configured weights while every backlogged
  tenant keeps making progress (no strict-priority starvation);
* **bounded banking** — an idle tenant's deficit resets, and a blocked
  tenant's deficit never exceeds its head item's cost plus one
  quantum, so nobody hoards credit while waiting.

Admission control is per tenant: :meth:`MultiTenantServer.submit`
raises :class:`TenantQuotaExceeded` once the tenant's in-flight count
reaches its quota (the request is *not* booked as submitted), and
:class:`UnknownTenant` for names never registered.  Books therefore
balance per tenant **and** globally: the server's declared laws
(:data:`repro.serve.metrics.SERVER_LAWS`, e.g.
``accepted + rerun + degraded + cache_hits + failed == submitted``)
hold on each tenant's ledger and on their sum.  The pool's own ledger
obeys :data:`POOL_LAW`: every enqueued host batch is executed or, at
close, stranded.

With ``host_workers`` (or ``REPRO_HOST_WORKERS``) set, each tenant's
raw host callable is wrapped in its own
:class:`repro.parallel.ParallelHostRunner` before registration, so DRR
arbitrates *which tenant* runs while the process pool accelerates *how
fast* that tenant's batch runs.

See ``docs/TENANCY.md`` for the design and a worked two-tenant
example; ``repro serve-tenants`` drives two tenants from one video
trace and writes ``benchmarks/results/BENCH_cache.json``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .. import obs
from ..obs.ledger import Law, Ledger, tally, violations
from ..util.deadline import time_left
from .metrics import SERVER_LAWS, MetricsSnapshot, ServerMetrics
from .server import CascadeServer

if TYPE_CHECKING:
    # Import cycle: repro.cache.front imports repro.serve.  The
    # annotations below stay lazy (PEP 563); the classes are imported at
    # construction time in MultiTenantServer.__init__ instead.
    from ..cache import CacheSnapshot, ResultCache  # noqa: F401

__all__ = [
    "MultiTenantServer",
    "MultiTenantSnapshot",
    "POOL_LAW",
    "PoolTenantStats",
    "SharedHostPool",
    "TenantQuotaExceeded",
    "TenantSnapshot",
    "TenantSpec",
    "UnknownTenant",
]


class UnknownTenant(KeyError):
    """Submit named a tenant that was never registered."""


class TenantQuotaExceeded(RuntimeError):
    """The tenant is at its in-flight quota; the request was not admitted."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: model configuration + share of the common pool.

    ``bnn_scores_fn`` / ``dmu`` / ``host_predict_fn`` are the tenant's
    own cascade (exactly the :class:`CascadeServer` arguments);
    ``server_kwargs`` passes anything else through (``ladder=``,
    ``controller=``, queue capacities, ...).

    ``weight`` is the DRR share of the host pool, ``quota`` the maximum
    in-flight requests admitted, ``cost_s_per_image`` the initial
    estimate of the tenant's per-image host latency (refined online by
    the pool's EWMA).
    """

    name: str
    bnn_scores_fn: Callable[[np.ndarray], np.ndarray]
    dmu: Any
    host_predict_fn: Callable[[np.ndarray], np.ndarray]
    weight: float = 1.0
    quota: int = 256
    cost_s_per_image: float = 1e-3
    server_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.cost_s_per_image <= 0:
            raise ValueError("cost_s_per_image must be positive")


# -- shared host pool ---------------------------------------------------------

class _Work:
    __slots__ = ("images", "future", "cost_s")

    def __init__(self, images: np.ndarray, cost_s: float):
        self.images = images
        self.future: Future = Future()
        self.cost_s = cost_s


class _PoolTenant:
    __slots__ = ("name", "predict_fn", "weight", "queue", "deficit", "cost_s_per_image")

    def __init__(self, name, predict_fn, weight, cost_s_per_image):
        self.name = name
        self.predict_fn = predict_fn
        self.weight = float(weight)
        self.queue: deque[_Work] = deque()
        self.deficit = 0.0
        self.cost_s_per_image = float(cost_s_per_image)


#: Every enqueued host batch is executed (``scheduled``, raise or not)
#: or, when the pool closes first, ``stranded``.
POOL_LAW = Law("work", ("scheduled", "stranded"), "enqueued", drained=True)
#: Per-tenant pool counters (all keyed by tenant name) -> tracer name.
_POOL_COUNTERS = {
    "enqueued": None, "scheduled": "tenant.{}.scheduled", "stranded": None,
    "images_executed": None, "busy_seconds": None,
}


@dataclass(frozen=True)
class PoolTenantStats:
    """Per-tenant scheduling books of a :class:`SharedHostPool`."""

    name: str
    weight: float
    scheduled: int
    images_executed: int
    busy_seconds: float
    cost_s_per_image: float
    queued: int
    deficit: float


class SharedHostPool:
    """Weighted deficit-round-robin executor of tenant host batches.

    *lanes* dispatcher threads pull one work item at a time; which
    item is decided by DRR over the registered tenants' queues (see
    module docs for the exact crediting rule).  Tenant host callables
    run *outside* the scheduler lock, so slow models never block the
    scheduling of other lanes.

    The pool is model-agnostic: each tenant registers its own
    ``images -> labels`` callable (possibly a
    :class:`repro.parallel.ParallelHostRunner`), and an exception it
    raises propagates to that tenant's waiting host worker only —
    fault containment between tenants is preserved.
    """

    def __init__(
        self,
        lanes: int = 1,
        quantum_s: float = 0.002,
        max_pending: int = 64,
        ewma_alpha: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.quantum_s = float(quantum_s)
        self.max_pending = int(max_pending)
        self._alpha = float(ewma_alpha)
        self._clock = clock
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._space_ready = threading.Condition(self._lock)
        self._tenants: dict[str, _PoolTenant] = {}
        self._order: list[_PoolTenant] = []
        self.ledger = Ledger(_POOL_COUNTERS, keyed=_POOL_COUNTERS, laws=(POOL_LAW,))
        self._cursor = 0
        self._closed = False
        self._lanes = [
            threading.Thread(target=self._lane_loop, name=f"pool-lane-{i}", daemon=True)
            for i in range(lanes)
        ]
        for t in self._lanes:
            t.start()

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def register(
        self,
        name: str,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        weight: float = 1.0,
        cost_s_per_image: float = 1e-3,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Add a tenant; returns the blocking handle to use as its
        ``host_predict_fn`` (enqueue → DRR-scheduled execute → labels)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenant = _PoolTenant(name, predict_fn, weight, cost_s_per_image)
            self._tenants[name] = tenant
            self._order.append(tenant)

        def handle(images: np.ndarray) -> np.ndarray:
            return self._execute(tenant, np.asarray(images))

        return handle

    # -- producer side --------------------------------------------------------
    def _execute(self, tenant: _PoolTenant, images: np.ndarray) -> np.ndarray:
        work = _Work(images, cost_s=len(images) * tenant.cost_s_per_image)
        with self._lock:
            while len(tenant.queue) >= self.max_pending and not self._closed:
                self._space_ready.wait(timeout=0.1)
            if self._closed:
                raise RuntimeError("shared host pool is closed")
            tenant.queue.append(work)
            self._work_ready.notify()
        self.ledger.add(tenant.name, enqueued=1)
        return work.future.result()

    # -- dispatcher side ------------------------------------------------------
    def _next_work(self) -> tuple[_PoolTenant, _Work] | None:
        """One DRR decision; caller holds the lock.  None = nothing queued."""
        n = len(self._order)
        while True:
            backlogged = 0
            for step in range(n):
                tenant = self._order[(self._cursor + step) % n]
                if not tenant.queue:
                    tenant.deficit = 0.0  # no banking while idle
                    continue
                backlogged += 1
                if tenant.deficit >= tenant.queue[0].cost_s:
                    work = tenant.queue.popleft()
                    tenant.deficit -= work.cost_s
                    # Stay on this tenant: DRR serves while credit lasts.
                    self._cursor = (self._cursor + step) % n
                    return tenant, work
            if not backlogged:
                return None
            # Nobody has enough credit: top every backlogged tenant up by
            # one weighted quantum, capped at head-cost + one quantum so a
            # blocked tenant cannot hoard credit.
            for tenant in self._order:
                if tenant.queue:
                    cap = tenant.queue[0].cost_s + self.quantum_s * tenant.weight
                    tenant.deficit = min(
                        tenant.deficit + self.quantum_s * tenant.weight, cap
                    )

    def _lane_loop(self) -> None:
        while True:
            with self._lock:
                picked = self._next_work()
                while picked is None and not self._closed:
                    self._work_ready.wait(timeout=0.1)
                    picked = self._next_work()
                if picked is None:  # closed and drained
                    return
                tenant, work = picked
                self._space_ready.notify_all()
            start = self._clock()
            try:
                with obs.trace_span("pool.execute", tenant=tenant.name,
                                    batch=len(work.images)):
                    labels = np.asarray(tenant.predict_fn(work.images))
            except BaseException as exc:
                self._account(tenant, work, self._clock() - start)
                work.future.set_exception(exc)
                continue
            self._account(tenant, work, self._clock() - start)
            work.future.set_result(labels)

    def _account(self, tenant: _PoolTenant, work: _Work, elapsed: float) -> None:
        self.ledger.add(
            tenant.name, scheduled=1, images_executed=len(work.images), busy_seconds=elapsed
        )
        if len(work.images):
            with self._lock:
                per_image = elapsed / len(work.images)
                tenant.cost_s_per_image += self._alpha * (
                    per_image - tenant.cost_s_per_image
                )

    # -- reading / lifecycle --------------------------------------------------
    def stats(self) -> dict[str, PoolTenantStats]:
        c = self.ledger.read().counters
        with self._lock:
            return {
                t.name: PoolTenantStats(
                    name=t.name,
                    weight=t.weight,
                    scheduled=c["scheduled"].get(t.name, 0),
                    images_executed=c["images_executed"].get(t.name, 0),
                    busy_seconds=c["busy_seconds"].get(t.name, 0.0),
                    cost_s_per_image=t.cost_s_per_image,
                    queued=len(t.queue),
                    deficit=t.deficit,
                )
                for t in self._order
            }

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop the lanes; queued-but-unexecuted work fails (the owning
        tenant's host worker degrades those requests).  *timeout* bounds
        the whole call, however many lanes hang."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stranded = [
                work for tenant in self._order for work in tenant.queue
            ]
            for tenant in self._order:
                self.ledger.add(tenant.name, stranded=len(tenant.queue))
                tenant.queue.clear()
            self._work_ready.notify_all()
            self._space_ready.notify_all()
        for work in stranded:
            work.future.set_exception(RuntimeError("shared host pool is closed"))
        left = time_left(timeout)
        for lane in self._lanes:
            lane.join(left())

    def __enter__(self) -> "SharedHostPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the multi-tenant server --------------------------------------------------

@dataclass(frozen=True)
class TenantSnapshot:
    """One tenant's complete books at a point in time."""

    name: str
    metrics: MetricsSnapshot
    pool: PoolTenantStats
    rejected: int            # quota rejections (never booked as submitted)
    in_flight: int
    quota: int
    weight: float
    cache: CacheSnapshot | None = None

    @property
    def balanced(self) -> bool:
        """The tenant's ledger breaks none of the server's laws."""
        return not self.metrics.check()


@dataclass(frozen=True)
class MultiTenantSnapshot:
    """All tenants + the global books-balancing invariant."""

    tenants: dict[str, TenantSnapshot]
    cache: CacheSnapshot | None = None

    def summed(self) -> dict[str, int]:
        """Every counter the server's laws name, summed over the tenants."""
        names = {name for law in SERVER_LAWS for name in (*law.parts, law.total)}
        return {
            name: sum(tally(t.metrics, name) for t in self.tenants.values())
            for name in names
        }

    @property
    def submitted(self) -> int:
        return self.summed()["submitted"]

    @property
    def terminal(self) -> int:
        return SERVER_LAWS[0].terminal(self.summed())

    @property
    def balanced(self) -> bool:
        """Global books: the server's laws hold on the sum and per tenant."""
        return not violations(SERVER_LAWS, self.summed()) and all(
            t.balanced for t in self.tenants.values()
        )


class _Tenant:
    __slots__ = ("spec", "metrics", "server", "frontend", "runner", "in_flight", "admit_lock")


class MultiTenantServer:
    """N named cascade tenants over one DRR-scheduled host pool.

    Parameters
    ----------
    tenants:
        The :class:`TenantSpec` roster.  The first spec is the
        *default tenant* — requests that name no tenant (e.g. wire
        frames from pre-tenancy clients) are routed to it.
    lanes:
        Concurrent host executions in the shared pool (dispatcher
        threads).
    quantum_s / max_pending:
        DRR quantum and per-tenant pool queue bound (see
        :class:`SharedHostPool`).
    cache_max_bytes:
        Byte budget of the shared result cache; ``0`` disables caching
        entirely.  Keys are namespaced per tenant (same image, two
        models → two entries).
    host_workers:
        Per-tenant :class:`~repro.parallel.ParallelHostRunner` size
        (``None`` → ``REPRO_HOST_WORKERS`` env var; 0/unset → serial).
        Applied to each tenant's raw host callable *before* pool
        registration, so DRR decides which tenant runs and the process
        pool accelerates that tenant's batch.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        lanes: int = 1,
        quantum_s: float = 0.002,
        max_pending: int = 64,
        cache_max_bytes: int = 64 * 1024 * 1024,
        host_workers: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not tenants:
            raise ValueError("at least one TenantSpec is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self._clock = clock
        self.pool = SharedHostPool(
            lanes=lanes, quantum_s=quantum_s, max_pending=max_pending, clock=clock
        )
        from ..cache import ResultCache

        self.cache: ResultCache | None = (
            ResultCache(max_bytes=cache_max_bytes) if cache_max_bytes else None
        )
        from ..parallel import resolve_host_workers

        n_procs = resolve_host_workers(host_workers)
        #: Quota rejections per tenant (never booked as submitted).
        self.ledger = Ledger({"rejected": "tenant.{}.rejected"}, keyed=("rejected",))
        self._tenants: dict[str, _Tenant] = {}
        self.default_tenant = tenants[0].name
        try:
            for spec in tenants:
                self._tenants[spec.name] = self._build_tenant(spec, n_procs)
        except BaseException:
            self.close()
            raise

    def _build_tenant(self, spec: TenantSpec, n_procs: int | None) -> _Tenant:
        tenant = _Tenant()
        tenant.spec = spec
        tenant.metrics = ServerMetrics(clock=self._clock)
        tenant.in_flight = 0
        tenant.admit_lock = threading.Lock()
        tenant.runner = None
        predict_fn = spec.host_predict_fn
        if n_procs is not None:
            from ..parallel import ParallelHostRunner

            tenant.runner = ParallelHostRunner(predict_fn=predict_fn, n_workers=n_procs)
            tenant.runner.set_metrics(tenant.metrics)
            predict_fn = tenant.runner
        handle = self.pool.register(
            spec.name,
            predict_fn,
            weight=spec.weight,
            cost_s_per_image=spec.cost_s_per_image,
        )
        # host_workers=0 pins the tenant server serial: the pool handle
        # must never be re-wrapped in a process pool (it is not
        # picklable, and parallelism already lives behind it).
        tenant.server = CascadeServer(
            bnn_scores_fn=spec.bnn_scores_fn,
            dmu=spec.dmu,
            host_predict_fn=handle,
            metrics=tenant.metrics,
            clock=self._clock,
            host_workers=0,
            **spec.server_kwargs,
        )
        if self.cache is not None:
            from ..cache import CachingFrontend

            tenant.frontend = CachingFrontend(
                tenant.server, self.cache, namespace=spec.name,
                metrics=tenant.metrics, clock=self._clock,
            )
        else:
            tenant.frontend = tenant.server
        return tenant

    # -- public API -----------------------------------------------------------
    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    def _lookup(self, name: str | None) -> _Tenant:
        if not name:
            name = self.default_tenant
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def submit(self, image: np.ndarray, tenant: str | None = None) -> Future:
        """Admit one image for *tenant* (default: the first registered).

        Raises :class:`UnknownTenant` / :class:`TenantQuotaExceeded`
        before any accounting — a rejected request is never
        ``submitted`` and needs no terminal state.
        """
        t = self._lookup(tenant)
        with t.admit_lock:
            if t.in_flight >= t.spec.quota:
                self.ledger.add(t.spec.name, rejected=1)
                raise TenantQuotaExceeded(
                    f"tenant {t.spec.name!r} is at its quota of {t.spec.quota}"
                )
            t.in_flight += 1
        try:
            future = t.frontend.submit(image)
        except BaseException:
            with t.admit_lock:
                t.in_flight -= 1
            raise
        future.add_done_callback(lambda _f: self._release(t))
        return future

    def _release(self, t: _Tenant) -> None:
        with t.admit_lock:
            t.in_flight -= 1

    def classify_many(
        self, images, tenant: str | None = None, timeout: float | None = None
    ):
        futures = [self.submit(img, tenant=tenant) for img in images]
        return [f.result(timeout=timeout) for f in futures]

    def tenant_snapshot(self, name: str | None = None) -> TenantSnapshot:
        t = self._lookup(name)
        pool_stats = self.pool.stats()[t.spec.name]
        if self.cache is not None:
            t.metrics.set(cache_bytes=self.cache.bytes)
        return TenantSnapshot(
            name=t.spec.name,
            metrics=t.metrics.snapshot(),
            pool=pool_stats,
            rejected=self.ledger.read().counters["rejected"].get(t.spec.name, 0),
            in_flight=t.in_flight,
            quota=t.spec.quota,
            weight=t.spec.weight,
            cache=self.cache.snapshot() if self.cache is not None else None,
        )

    def snapshot(self) -> MultiTenantSnapshot:
        return MultiTenantSnapshot(
            tenants={name: self.tenant_snapshot(name) for name in self._tenants},
            cache=self.cache.snapshot() if self.cache is not None else None,
        )

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain every tenant's cascade, then stop the shared pool and the
        tenants' process pools.  *timeout* bounds the whole call."""
        left = time_left(timeout)
        tenants = getattr(self, "_tenants", {}).values()
        for tenant in tenants:
            tenant.frontend.close(left())
        self.pool.close(left())
        for tenant in tenants:
            if tenant.runner is not None:
                tenant.runner.close(left())

    def __enter__(self) -> "MultiTenantServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
