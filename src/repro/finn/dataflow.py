"""Streaming-dataflow performance model of a FINN pipeline.

"Expected" throughput is Eq. (5) applied to the bottleneck engine — the
number Vivado HLS's Analysis Perspective predicts.  "Obtained" throughput
additionally charges the overheads a real ZC702 run pays per image:

* DMA streaming of the raw 32x32x3 input image into the fabric
  (one byte per cycle over the AXI stream: 3072 cycles/image);
* FIFO/handshake overhead proportional to the bottleneck interval
  (a small calibrated fraction).

This reproduces the paper's Fig. 3 behaviour where expected and obtained
curves coincide for modest parallelism and diverge as the PE count grows
(the fixed per-image costs stop being negligible once the compute
interval shrinks toward them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import BalanceResult
from .device import ZC702_CLOCK_HZ

__all__ = ["PipelinePerformance", "evaluate_pipeline"]

#: Cycles to stream one 32x32x3 8-bit image into the fabric (1 byte/cycle).
IMAGE_DMA_CYCLES = 32 * 32 * 3

#: Fractional FIFO/handshake overhead on the bottleneck initiation interval.
FIFO_OVERHEAD = 0.02

#: Extra fractional slowdown of low-parallelism configs after block
#: partitioning (the paper: "configurations with higher PE counts ...
#: retain their original obtained performance but the ones with lower
#: accelerations ... slow down").
PARTITION_SLOWDOWN = 0.03
PARTITION_SLOWDOWN_PE_THRESHOLD = 40


@dataclass(frozen=True)
class PipelinePerformance:
    """Throughput/latency summary of one balanced configuration."""

    expected_fps: float
    obtained_fps: float
    interval_cycles: int        # steady-state initiation interval per image
    latency_cycles: int         # single-image fill latency through the pipe
    clock_hz: float

    @property
    def seconds_per_image(self) -> float:
        """Steady-state per-image interval (t_bnn/img of Eq. (1))."""
        return 1.0 / self.obtained_fps


def _obtained_interval(result: BalanceResult, partitioned: bool) -> float:
    # The SDSoC data mover streams each image serially with the fabric
    # compute, so the DMA cycles add to the initiation interval instead of
    # hiding behind it.  This is negligible for slow configurations and
    # becomes the dominant loss once the compute interval shrinks toward
    # IMAGE_DMA_CYCLES — matching the paper's expected/obtained divergence
    # at high PE counts.
    interval = result.bottleneck_cycles * (1.0 + FIFO_OVERHEAD) + IMAGE_DMA_CYCLES
    if partitioned and result.total_pe < PARTITION_SLOWDOWN_PE_THRESHOLD:
        interval *= 1.0 + PARTITION_SLOWDOWN
    return interval


def evaluate_pipeline(
    result: BalanceResult,
    clock_hz: float = ZC702_CLOCK_HZ,
    partitioned: bool = False,
) -> PipelinePerformance:
    """Expected (Eq. (5)) and obtained throughput of a configuration."""
    expected = result.fps(clock_hz)
    interval = _obtained_interval(result, partitioned)
    obtained = clock_hz / interval
    latency = sum(e.cycles_per_image for e in result.engines) + IMAGE_DMA_CYCLES
    return PipelinePerformance(
        expected_fps=expected,
        obtained_fps=obtained,
        interval_cycles=int(round(interval)),
        latency_cycles=latency,
        clock_hz=clock_hz,
    )
