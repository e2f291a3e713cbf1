"""Concurrent cascade serving layer (request-driven Fig. 1).

Turns the offline :class:`repro.core.MultiPrecisionPipeline` into a
request-driven system: every stage reads one kind of bounded inbox —
rung 0's applies backpressure to ``submit``, the host's feeds a
re-inference worker pool and sheds when full — and an adaptive controller holds the DMU threshold at the
operating point the paper selects statically.  ``python -m repro
serve-bench`` exercises the whole stack under load.

The same server runs N-stage precision ladders (``docs/LADDER.md``):
pass ``ladder=[LadderStage(...), ...]`` to insert quantized middle
rungs between the BNN and the host, each with its own inbox, worker,
DMU, and — via :class:`LadderThresholdController` — threshold knob.

The stack is hardened against stage faults (see ``docs/ROBUSTNESS.md``
and :mod:`repro.faults`): crash-safe workers, per-request deadlines,
retry with backoff on the host path, and a circuit breaker that flips
the server into a degraded BNN-only mode while the host stage is down.

Multi-model deployments use :class:`MultiTenantServer`
(``docs/TENANCY.md``): named tenants — each a full cascade with its own
metrics, quota and :mod:`repro.cache` namespace — share one
:class:`SharedHostPool` that schedules host re-inference with weighted
deficit-round-robin over measured per-model cost.
"""

from .autoscaler import ScalerDecision, SLOAutoscaler
from .bench import (
    ServeBenchConfig,
    ServeBenchReport,
    ServeBenchRun,
    folded_bnn_scores_fn,
    format_serve_bench,
    measure_t_host,
    measured_t_bnn,
    run_books,
    run_serve_bench,
    synthetic_ladder_stages,
    synthetic_serving_stack,
)
from .controller import AdaptiveThresholdController, LadderThresholdController
from .metrics import MetricsSnapshot, QueueStats, ServerMetrics, StageStats
from .resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    RetryPolicy,
    ServerClosed,
    StageFailure,
)
from .server import CascadeServer, ServeResult
from .tenancy import (
    MultiTenantServer,
    MultiTenantSnapshot,
    PoolTenantStats,
    SharedHostPool,
    TenantQuotaExceeded,
    TenantSnapshot,
    TenantSpec,
    UnknownTenant,
)

__all__ = [
    "AdaptiveThresholdController",
    "LadderThresholdController",
    "ServerClosed",
    "DeadlineExceeded",
    "StageFailure",
    "RetryPolicy",
    "CircuitBreaker",
    "ServerMetrics",
    "MetricsSnapshot",
    "StageStats",
    "QueueStats",
    "CascadeServer",
    "ServeResult",
    "SLOAutoscaler",
    "ScalerDecision",
    "ServeBenchConfig",
    "ServeBenchRun",
    "ServeBenchReport",
    "synthetic_serving_stack",
    "synthetic_ladder_stages",
    "folded_bnn_scores_fn",
    "measured_t_bnn",
    "measure_t_host",
    "run_books",
    "run_serve_bench",
    "format_serve_bench",
    "MultiTenantServer",
    "MultiTenantSnapshot",
    "PoolTenantStats",
    "SharedHostPool",
    "TenantQuotaExceeded",
    "TenantSnapshot",
    "TenantSpec",
    "UnknownTenant",
]
