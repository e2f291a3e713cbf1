"""FPGA device catalog.

The paper's board is the Xilinx ZC702, carrying the XC7Z020 Zynq-7000 SoC
(Artix-7 class programmable logic + dual-core ARM Cortex-A9).  Resource
counts below are the public XC7Z020 numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FPGADevice", "XC7Z020", "ZC702_CLOCK_HZ"]


@dataclass(frozen=True)
class FPGADevice:
    """Programmable-logic resource budget of one device."""

    name: str
    bram_18k: int      # number of 18 Kbit block RAMs
    luts: int          # 6-input LUTs
    flip_flops: int
    dsp48: int

    def __post_init__(self):
        if min(self.bram_18k, self.luts, self.flip_flops, self.dsp48) <= 0:
            raise ValueError("resource counts must be positive")

    def bram_utilization(self, used: int) -> float:
        """Fraction of BRAM_18K used (may exceed 1 for infeasible designs)."""
        return used / self.bram_18k

    def lut_utilization(self, used: int) -> float:
        return used / self.luts

    def fits(self, bram: int, luts: int) -> bool:
        """Whether a design with the given usage fits on the device."""
        return bram <= self.bram_18k and luts <= self.luts


#: XC7Z020: 140 x 36Kb = 280 x 18Kb BRAM, 53200 LUTs, 106400 FFs, 220 DSPs.
XC7Z020 = FPGADevice(name="XC7Z020", bram_18k=280, luts=53200, flip_flops=106400, dsp48=220)

#: Programmable-logic clock used throughout the paper's experiments.
ZC702_CLOCK_HZ = 100_000_000
