"""The FINN CNV network of Table I.

Topology (no zero padding, as the paper's table states):

    input 32x32 RGB
    3x3-conv-64   -> 30x30
    3x3-conv-64   -> 28x28
    maxpool 2x2   -> 14x14
    3x3-conv-128  -> 12x12
    3x3-conv-128  -> 10x10
    maxpool 2x2   -> 5x5
    3x3-conv-256  -> 3x3
    3x3-conv-256  -> 1x1
    FC-64
    FC-64
    FC-64 (no activation)

The final layer has 64 outputs although CIFAR-10 has 10 classes: FINN pads
the last matrix to align with the PE/SIMD geometry, and only the first 10
outputs are used as class scores (``FoldedBNN.class_scores`` truncates).

Every conv/FC is binarized and followed by BatchNorm + sign activation,
except the last FC which keeps its BatchNorm affine output (paper: "the
last layer outputs non-binarised classification result and does not
require thresholding").
"""

from __future__ import annotations

import numpy as np

from ..bnn import BinaryActivation, BinaryConv2D, BinaryDense
from ..nn import BatchNorm, Flatten, MaxPool2D, Sequential

__all__ = ["CNV_CHANNELS", "CNV_FC_WIDTH", "scaled_channels", "build_finn_cnv"]

CNV_CHANNELS = (64, 64, 128, 128, 256, 256)
CNV_FC_WIDTH = 64


def scaled_channels(scale: float) -> tuple[int, ...]:
    """Width-scaled conv channels, floored at 8 and rounded to multiples of 4."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return tuple(max(8, int(round(c * scale / 4)) * 4) for c in CNV_CHANNELS)


def build_finn_cnv(
    scale: float = 1.0,
    rng: np.random.Generator | None = None,
    image_size: int = 32,
) -> Sequential:
    """Build the (optionally width-scaled) trainable binarized CNV network.

    ``scale=1.0`` is the exact Table I topology; smaller scales shrink the
    conv widths for laptop-scale training (see DESIGN.md section 5) while
    preserving depth, pooling structure, and the padded 64-wide FC head.
    """
    rng = rng or np.random.default_rng(0)
    c = scaled_channels(scale)

    def conv_block(cin, cout):
        return [
            BinaryConv2D(cin, cout, 3, rng=rng),
            BatchNorm(cout),
            BinaryActivation(),
        ]

    layers = []
    layers += conv_block(3, c[0])
    layers += conv_block(c[0], c[1])
    layers.append(MaxPool2D(2))
    layers += conv_block(c[1], c[2])
    layers += conv_block(c[2], c[3])
    layers.append(MaxPool2D(2))
    layers += conv_block(c[3], c[4])
    layers += conv_block(c[4], c[5])
    layers.append(Flatten())

    net = Sequential(layers, name=f"finn_cnv(scale={scale})")
    flat = net.output_shape((3, image_size, image_size))[0]

    net.add(BinaryDense(flat, CNV_FC_WIDTH, rng=rng))
    net.add(BatchNorm(CNV_FC_WIDTH))
    net.add(BinaryActivation())
    net.add(BinaryDense(CNV_FC_WIDTH, CNV_FC_WIDTH, rng=rng))
    net.add(BatchNorm(CNV_FC_WIDTH))
    net.add(BinaryActivation())
    net.add(BinaryDense(CNV_FC_WIDTH, CNV_FC_WIDTH, rng=rng))
    net.add(BatchNorm(CNV_FC_WIDTH))
    return net
