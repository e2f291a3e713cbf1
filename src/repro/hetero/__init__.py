"""Heterogeneous FPGA+CPU execution simulator (Fig. 2's pipeline)."""

from .devices import FPGAExecutor, HostExecutor
from .metrics import (
    AnalyticComparison,
    compare_serving_with_eq1,
    compare_serving_with_ladder,
    compare_with_eq1,
)
from .scheduler import (
    BatchRecord,
    SimulationResult,
    flagged_per_batch,
    simulate_cascade,
)
from .timeline import Interval, Timeline

__all__ = [
    "FPGAExecutor",
    "HostExecutor",
    "Interval",
    "Timeline",
    "BatchRecord",
    "SimulationResult",
    "simulate_cascade",
    "flagged_per_batch",
    "AnalyticComparison",
    "compare_with_eq1",
    "compare_serving_with_eq1",
    "compare_serving_with_ladder",
]
