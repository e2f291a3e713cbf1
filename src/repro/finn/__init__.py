"""Analytical FINN FPGA hardware model.

Implements the paper's Section III-A machinery: engine cycle counts
(Eqs. (3)-(4)), throughput (Eq. (5)), the rate balancer, the Vivado BRAM
allocation behaviour with and without block array partitioning
(Figs. 3-4), and LUT estimation on the ZC702's XC7Z020 device.
"""

from .balance import BalanceResult, balance_layer, balance_network, sweep_targets
from .dataflow import (
    IMAGE_DMA_CYCLES,
    PipelinePerformance,
    evaluate_pipeline,
)
from .device import XC7Z020, ZC702_CLOCK_HZ, FPGADevice
from .drc import DesignCheck, Diagnostic, Severity, check_design
from .engine import Engine, divisors, valid_pe_counts, valid_simd_counts
from .layer_spec import LayerSpec, finn_cnv_specs
from .mixed_precision import precision_ladder, with_precision
from .memory import (
    LUTRAM_THRESHOLD_BITS,
    RAMB18_MODES,
    MemoryAllocation,
    allocate_memory,
    best_partition_factor,
    next_power_of_two,
)
from .report import EngineReportRow, HardwareReport, hardware_report
from .resources import (
    EngineResources,
    NetworkResources,
    engine_resources,
    network_resources,
)

__all__ = [
    "FPGADevice",
    "XC7Z020",
    "ZC702_CLOCK_HZ",
    "LayerSpec",
    "finn_cnv_specs",
    "with_precision",
    "precision_ladder",
    "Engine",
    "divisors",
    "valid_pe_counts",
    "valid_simd_counts",
    "MemoryAllocation",
    "allocate_memory",
    "best_partition_factor",
    "next_power_of_two",
    "RAMB18_MODES",
    "LUTRAM_THRESHOLD_BITS",
    "EngineResources",
    "NetworkResources",
    "engine_resources",
    "network_resources",
    "BalanceResult",
    "balance_layer",
    "balance_network",
    "sweep_targets",
    "PipelinePerformance",
    "evaluate_pipeline",
    "IMAGE_DMA_CYCLES",
    "EngineReportRow",
    "HardwareReport",
    "hardware_report",
    "DesignCheck",
    "Diagnostic",
    "Severity",
    "check_design",
]
