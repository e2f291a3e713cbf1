"""Binarized neural-network substrate (BinaryNet arithmetic, FINN datapath).

Training uses straight-through estimators over latent real weights
(:mod:`repro.bnn.layers`); deployment folds BatchNorm+sign into integer
thresholds (:mod:`repro.bnn.thresholding`) and :func:`fold_network` turns
the trained net into weight/threshold records (:mod:`repro.bnn.inference`).
One datapath runs them: the compiled 0/1-plane plan
(:mod:`repro.bnn.plan`), a functional model of the FPGA datapath whose
scores equal the eval-mode training network's.  A padded binary conv pads
with 0 in ±1 terms, as the training network does.  The bit-packed
XNOR-popcount form of the same arithmetic is the test suite's oracle.
"""

from .binarize import binarize_sign, clip_weights, ste_mask
from .export import load_folded_bnn, save_folded_bnn
from .inference import (
    FloatDenseHead,
    FoldedBNN,
    FoldedConv,
    FoldedDense,
    FoldedPool,
    fold_network,
)
from .plan import CompiledBNNPlan
from .layers import BinaryActivation, BinaryConv2D, BinaryDense
from .thresholding import ChannelThresholds, fold_batchnorm

__all__ = [
    "binarize_sign",
    "ste_mask",
    "clip_weights",
    "CompiledBNNPlan",
    "BinaryConv2D",
    "BinaryDense",
    "BinaryActivation",
    "ChannelThresholds",
    "fold_batchnorm",
    "FoldedBNN",
    "FoldedConv",
    "FoldedDense",
    "FoldedPool",
    "FloatDenseHead",
    "fold_network",
    "save_folded_bnn",
    "load_folded_bnn",
]
