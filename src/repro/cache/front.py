"""Cache + single-flight wrapper around any ``submit() -> Future`` backend.

:class:`CachingFrontend` sits in front of a
:class:`repro.serve.CascadeServer` (or any object with the same
``submit``/``snapshot``/``close`` surface) and short-circuits duplicate
work twice over:

* **Cache hit** — the image's content key is already in the
  :class:`~repro.cache.ResultCache`: the stored terminal answer is
  re-served immediately as a ``ServeResult`` with ``source="cache"``
  (``cold_source`` preserves the rung that computed it), and the
  backend never sees the request.
* **Single flight** — the key is *not* cached but an identical image is
  already in the cascade: the new submit attaches to the in-flight
  *leader* instead of entering the cascade, and when the leader's
  future resolves every attached *follower* future is resolved with the
  same answer (as a ``source="cache"`` result).  N concurrent submits
  of one image cost exactly one cascade pass.

Books (shared :class:`repro.serve.ServerMetrics` ledger): the hit and
follower paths add ``submitted`` + ``cache_hits`` (a failed leader's
followers: ``failed``) and a latency sample at the frontend; the leader
path adds nothing here — the backend books its ``submitted`` and
terminal decision itself — so the server's declared law
``accepted + rerun + degraded + cache_hits + failed == submitted``
keeps holding with the wrapper attached.  Leaders and followers are
counted in the frontend's own ledger.  Exactly-once: a flight is
popped from the registry before its followers are resolved, so no
future can ever be resolved twice; a failed leader fails its followers
with the same exception and caches nothing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.ledger import Ledger
from ..serve.metrics import MetricsSnapshot, ServerMetrics
from ..serve.server import ServeResult
from ..util.hashing import PayloadMemo
from .result_cache import CachedAnswer, CacheSnapshot, ResultCache

__all__ = ["CachingFrontend", "SingleFlightSnapshot"]


@dataclass(frozen=True)
class SingleFlightSnapshot:
    """Deduplication books of one :class:`CachingFrontend`."""

    leaders: int      # cache misses that entered the cascade
    followers: int    # submits coalesced onto an in-flight leader
    in_flight: int    # flights currently open


class _Flight:
    __slots__ = ("followers",)

    def __init__(self):
        # (follower future, submit timestamp) pairs; resolved exactly
        # once when the leader terminates.
        self.followers: list[tuple[Future, float]] = []


class CachingFrontend:
    """Content-addressed cache + single-flight in front of *backend*.

    Parameters
    ----------
    backend:
        Anything exposing ``submit(image) -> Future[ServeResult]`` —
        typically a :class:`repro.serve.CascadeServer`.  Attribute
        access not defined here (``resize_host_workers``,
        ``threshold``, ...) is delegated to it.
    cache:
        The shared :class:`ResultCache`.  Several frontends (tenants)
        may share one cache as long as their *namespace* differs.
    namespace:
        Cache-key namespace, e.g. the tenant name — the same image
        classified by two different models must occupy two entries.
    metrics:
        Books to record hit/follower accounting into.  Defaults to the
        backend's own ``metrics`` so one snapshot covers both layers.
    """

    def __init__(
        self,
        backend,
        cache: ResultCache,
        namespace: str = "",
        metrics: ServerMetrics | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._backend = backend
        self.cache = cache
        self.namespace = namespace
        self._clock = clock
        if metrics is None:
            metrics = getattr(backend, "metrics", None)
        self.metrics = metrics if metrics is not None else ServerMetrics(clock=clock)
        self._flights: dict[bytes, _Flight] = {}
        self._flight_lock = threading.Lock()
        self._recent = PayloadMemo()
        self.ledger = Ledger({"leaders": None, "followers": "cache.single_flight"})

    # -- submit path ----------------------------------------------------------
    def submit(self, image: np.ndarray, key: bytes | None = None) -> Future:
        """Serve *image* from cache / an in-flight duplicate / the backend.

        *key*, when given, must equal ``content_key(image)``: a caller
        that already hashed the image (the shard router) saves this
        frontend its own lookup.  A frontend with a namespace ignores it
        and computes ``content_key(image, namespace)`` itself.
        """
        image = np.asarray(image)
        start = self._clock()
        if key is None or self.namespace:
            key = self._recent.lookup(
                image,
                (self.namespace, str(image.dtype), image.shape),
                lambda owned: self.cache.key_for(owned, self.namespace),
            )
        with self._flight_lock:
            answer = self.cache.get(key)
            if answer is not None:
                return self._serve_hit(answer, start)
            flight = self._flights.get(key)
            if flight is not None:
                future: Future = Future()
                flight.followers.append((future, start))
                self.ledger.add(followers=1)
                self.metrics.add(submitted=1)
                return future
            flight = _Flight()
            self._flights[key] = flight
            self.ledger.add(leaders=1)
        # Leader path: enter the cascade *outside* the lock — submit()
        # blocks under backpressure and must not hold up other keys.
        try:
            leader_future = self._backend.submit(image)
        except BaseException as exc:
            self._finish_flight(key, None, exc)
            raise
        leader_future.add_done_callback(
            lambda fut, key=key, image=image: self._on_leader_done(key, image, fut)
        )
        return leader_future

    def classify_many(self, images, timeout: float | None = None) -> list[ServeResult]:
        futures = [self.submit(img) for img in images]
        return [f.result(timeout=timeout) for f in futures]

    def _serve_hit(self, answer: CachedAnswer, start: float) -> Future:
        self.metrics.add(submitted=1, cache_hits=1)
        latency = self._clock() - start
        self.metrics.latencies.append(latency)
        future: Future = Future()
        future.set_result(self._cached_result(answer, latency))
        return future

    @staticmethod
    def _cached_result(answer: CachedAnswer, latency: float) -> ServeResult:
        return ServeResult(
            prediction=answer.prediction,
            bnn_prediction=answer.bnn_prediction,
            confidence=answer.confidence,
            source="cache",
            latency_seconds=latency,
            cold_source=answer.source,
        )

    # -- leader termination ---------------------------------------------------
    def _on_leader_done(self, key: bytes, image: np.ndarray, fut: Future) -> None:
        exc = fut.exception()
        if exc is not None:
            self._finish_flight(key, None, exc)
            return
        result: ServeResult = fut.result()
        answer = CachedAnswer(
            prediction=result.prediction,
            bnn_prediction=result.bnn_prediction,
            confidence=result.confidence,
            source=result.source,
        )
        # Populate the cache *before* closing the flight so no submit
        # can slip between them and miss both tiers.
        self.cache.put(key, image, answer)
        self.metrics.set(cache_bytes=self.cache.bytes)
        self._finish_flight(key, answer, None)

    def _finish_flight(
        self, key: bytes, answer: CachedAnswer | None, exc: BaseException | None
    ) -> None:
        # Pop first: once a flight has left the registry nothing can
        # attach to it, and its followers are resolved exactly once.
        with self._flight_lock:
            flight = self._flights.pop(key, None)
        if flight is None:
            return
        for future, start in flight.followers:
            if exc is not None:
                self.metrics.add(failed=1)
                future.set_exception(exc)
            else:
                self.metrics.add(cache_hits=1)
                latency = self._clock() - start
                self.metrics.latencies.append(latency)
                future.set_result(self._cached_result(answer, latency))

    # -- reading / lifecycle --------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        self.metrics.set(cache_bytes=self.cache.bytes)
        return self.metrics.snapshot()

    def cache_snapshot(self) -> CacheSnapshot:
        return self.cache.snapshot()

    def single_flight_snapshot(self) -> SingleFlightSnapshot:
        with self._flight_lock:
            return SingleFlightSnapshot(
                **self.ledger.read().counters, in_flight=len(self._flights)
            )

    def close(self, *args, **kwargs) -> None:
        close = getattr(self._backend, "close", None)
        if close is not None:
            close(*args, **kwargs)

    def __enter__(self) -> "CachingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name: str):
        # Everything not cache-specific (threshold, resize_host_workers,
        # degraded_mode, ...) belongs to the wrapped backend -- except the
        # backend's try_submit, which would skip the cache: callers that
        # probe for it (NetFrontend) fall back to submit().
        if name == "try_submit":
            raise AttributeError(name)
        return getattr(self._backend, name)
