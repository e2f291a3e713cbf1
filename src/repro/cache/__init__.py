"""Content-addressed result cache for the cascade serving layer.

Video workloads (:mod:`repro.stream` / :class:`repro.traffic.VideoTrafficSource`)
re-submit the same ROI crops frame after frame, so a large
fraction of cascade work is recomputation of answers the server already
produced.  This package short-circuits that work *in front of*
``submit()``:

* :class:`ResultCache` — sharded-lock, byte-bounded LRU mapping a
  blake2b content key (:func:`repro.util.hashing.content_key`) to the
  terminal answer of a previous cascade pass, so every hit is
  bit-identical to a cold run.
* :class:`CachingFrontend` — wraps any ``submit() -> Future`` backend
  (an in-process :class:`repro.serve.CascadeServer`, one tenant of a
  :class:`repro.serve.MultiTenantServer`, or a ``repro.net`` replica)
  with cache lookup plus **single-flight** deduplication: N concurrent
  submits of the same image trigger exactly one cascade pass.

See ``docs/TENANCY.md`` for the design and the measured video-replay
hit rates (``benchmarks/results/BENCH_cache.json``).
"""

from .front import CachingFrontend, SingleFlightSnapshot
from .result_cache import CachedAnswer, CacheSnapshot, ResultCache

__all__ = [
    "CachedAnswer",
    "CacheSnapshot",
    "CachingFrontend",
    "ResultCache",
    "SingleFlightSnapshot",
]
