"""Process-parallel host inference over one pipe per worker.

The paper's Eq. (1) bound ``t_multi ~= max(t_fp * R_rerun, t_bnn)`` is
dominated by the host float path once the BNN stage is fast; this
subpackage attacks ``t_fp`` directly by sharding rerun batches across
``N`` warm worker processes (``t_fp -> t_fp / N`` on an ``N``-core
host).  Each worker is a :class:`repro.parallel.child.Child` — the one
child-process channel the package has, shared with the cascade
replicas: a shard's pixels travel as raw bytes (never a pickle) and its
logits or labels come back in the reply.  Shard cuts
align with the :class:`repro.nn.InferenceEngine` micro-batch, so
parallel logits are bit-identical to serial for any worker count.

Entry points:

* :class:`ParallelHostRunner` — the pool; a drop-in host callable for
  :class:`repro.serve.CascadeServer` (``host_workers=N`` /
  ``REPRO_HOST_WORKERS``).
* :func:`repro.parallel.bench.run_parallel_bench` — the
  ``repro bench-parallel`` measurement harness.
"""

from .runner import (
    ParallelHostRunner,
    ShardOutcome,
    ShardReport,
    default_start_method,
    resolve_host_workers,
)

__all__ = [
    "ParallelHostRunner",
    "ShardOutcome",
    "ShardReport",
    "default_start_method",
    "resolve_host_workers",
]
