"""Binarized neural-network substrate (BinaryNet arithmetic, FINN datapath).

Training uses straight-through estimators over latent real weights
(:mod:`repro.bnn.layers`); deployment folds BatchNorm+sign into integer
thresholds (:mod:`repro.bnn.thresholding`) and evaluates convolutions as
bit-packed XNOR-popcount products (:mod:`repro.bnn.xnor`), yielding a
bit-exact functional model of the FPGA datapath
(:mod:`repro.bnn.inference`).
"""

from .binarize import binarize_sign, clip_weights, ste_mask
from .bitops import popcount, popcount_rows
from .export import load_folded_bnn, save_folded_bnn
from .inference import (
    FloatDenseHead,
    FoldedBNN,
    FoldedConv,
    FoldedDense,
    FoldedPool,
    fold_network,
)
from .kernels import BinaryKernel, available_backends, get_kernel
from .packing import PackedMaps, PackedRows, maxpool_packed
from .plan import CompiledBNNPlan, PlanUnsupported
from .layers import BinaryActivation, BinaryConv2D, BinaryDense
from .quantize import (
    QuantizedActivation,
    QuantizedConv2D,
    QuantizedDense,
    quantize_unit,
    quantize_weights,
)
from .thresholding import ChannelThresholds, fold_batchnorm
from .xnor import binary_dot, pack_pm1, unpack_pm1, xnor_popcount_matmul

__all__ = [
    "binarize_sign",
    "ste_mask",
    "clip_weights",
    "popcount",
    "popcount_rows",
    "BinaryKernel",
    "get_kernel",
    "available_backends",
    "CompiledBNNPlan",
    "PlanUnsupported",
    "PackedRows",
    "PackedMaps",
    "maxpool_packed",
    "BinaryConv2D",
    "BinaryDense",
    "BinaryActivation",
    "ChannelThresholds",
    "fold_batchnorm",
    "pack_pm1",
    "unpack_pm1",
    "xnor_popcount_matmul",
    "binary_dot",
    "FoldedBNN",
    "FoldedConv",
    "FoldedDense",
    "FoldedPool",
    "FloatDenseHead",
    "fold_network",
    "save_folded_bnn",
    "load_folded_bnn",
    "QuantizedConv2D",
    "QuantizedDense",
    "QuantizedActivation",
    "quantize_unit",
    "quantize_weights",
]
