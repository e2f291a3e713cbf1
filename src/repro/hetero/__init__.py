"""Heterogeneous FPGA+CPU execution simulator (Fig. 2's pipeline)."""

from .devices import FPGAExecutor, HostExecutor
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
]
