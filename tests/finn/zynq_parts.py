"""Zynq parts other than the paper's XC7Z020, for cross-device checks (imported, not a conftest)."""

from repro.finn import FPGADevice

#: Smaller Zynq-7000 (e.g. on low-cost boards): too small for full CNV.
XC7Z010 = FPGADevice(name="XC7Z010", bram_18k=120, luts=17600, flip_flops=35200, dsp48=80)

#: Larger Zynq-7000 (ZC706 board): headroom for higher-PE configurations.
XC7Z045 = FPGADevice(name="XC7Z045", bram_18k=1090, luts=218600, flip_flops=437200, dsp48=900)

#: Zynq UltraScale+ (ZCU102 board) — the paper's future-work device class
#: (ARMv8 processing system with active NEON).
XCZU9EG = FPGADevice(name="XCZU9EG", bram_18k=1824, luts=274080, flip_flops=548160, dsp48=2520)
