"""FINN-format oracle for the compiled BNN plan: bit-packed XNOR-popcount.

FINN's compute engines evaluate binarized dot products as
``dot = n - 2 * popcount(xor(a, w))`` over bit vectors where bit 1
encodes +1 and bit 0 encodes -1.  This module implements that arithmetic
with numpy ``uint8`` words, and :func:`forward_oracle` runs a
:class:`repro.bnn.FoldedBNN` with it: ±1 float maps between stages, every
binary stage an XNOR-popcount over ±1 im2col rows, every threshold
:meth:`ChannelThresholds.apply`.  No folding, no planes, no lanes, no
tiling — nothing the plan (:mod:`repro.bnn.plan`) does to be fast.

A padded conv's pad taps are 0 in ±1 terms, as in the training network:
they carry a *valid* bit of 0 and count for nothing
(``dot = popcount(valid) - 2 * popcount(xor(a, w) & valid)``).

``np.bitwise_count`` needs NumPy >= 2.0 while the project supports
``numpy>=1.24``, so :func:`popcount` falls back to a byte lookup table.
"""

from __future__ import annotations

import numpy as np

from repro.bnn import FloatDenseHead, FoldedConv, FoldedPool
from repro.nn import MaxPool2D
from repro.nn import functional as F

#: True when the native NumPy>=2.0 popcount ufunc is available.  Module
#: state so tests can monkeypatch it to exercise the lookup table.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte bit counts.
LUT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Elementwise set-bit count of a uint8 array."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    return LUT8[words]


def pack_pm1(values: np.ndarray, validate: bool = True) -> tuple[np.ndarray, int]:
    """Pack a {-1, +1} matrix (M, n) into (M, ceil(n/8)) uint8 words.

    Returns ``(packed, n)``; padding bits are 0.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[None, :]
    if validate and not np.isin(values, (-1.0, 1.0)).all():
        raise ValueError("pack_pm1 expects values in {-1, +1}")
    return np.packbits(values > 0, axis=1), values.shape[1]


def unpack_pm1(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_pm1`."""
    return np.unpackbits(packed, axis=1)[:, :n].astype(np.float64) * 2.0 - 1.0


def xnor_popcount_matmul(
    a_packed: np.ndarray,
    w_packed: np.ndarray,
    n: int,
    chunk: int = 512,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """(M, N) int64 ±1 dot products of packed rows against packed weights.

    Padding bits are 0 in both operands, so they never disagree and
    ``dot = n - 2 * popcount(xor)``.  ``valid`` (packed like ``a_packed``)
    marks the real taps of each row; the rest count for nothing.
    ``chunk`` bounds the (chunk, N, B) XOR broadcast.
    """
    if a_packed.shape[1] != w_packed.shape[1]:
        raise ValueError("operand word widths differ")
    out = np.empty((a_packed.shape[0], w_packed.shape[0]), dtype=np.int64)
    for start in range(0, a_packed.shape[0], chunk):
        xor = a_packed[start : start + chunk, None, :] ^ w_packed[None, :, :]
        taps = n
        if valid is not None:
            mask = valid[start : start + chunk]
            xor &= mask[:, None, :]
            taps = popcount(mask).sum(axis=1, dtype=np.int64)[:, None]
        out[start : start + chunk] = taps - 2 * popcount(xor).sum(axis=2, dtype=np.int64)
    return out


def binary_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Scalar ±1 dot product via the packed path."""
    ap, n = pack_pm1(a.reshape(1, -1))
    bp, _ = pack_pm1(b.reshape(1, -1))
    return int(xnor_popcount_matmul(ap, bp, n)[0, 0])


def binary_matmul(rows: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
    """Rows in {-1, 0, +1} (0 = pad tap) against (N, K) ±1 weights, as float64."""
    valid = np.packbits(rows != 0, axis=1)
    w_words, n = pack_pm1(weight_matrix, validate=False)
    acc = xnor_popcount_matmul(np.packbits(rows > 0, axis=1), w_words, n, valid=valid)
    return acc.astype(np.float64)


def oracle_stage(stage, x: np.ndarray) -> np.ndarray:
    """One folded stage on ±1 float input (NCHW maps or (n, features) rows)."""
    n = x.shape[0]
    if isinstance(stage, FoldedPool):
        return MaxPool2D(stage.window, stage.stride).forward(x)
    if isinstance(stage, FloatDenseHead):
        out = x.reshape(n, -1) @ stage.weight
        return out if stage.bias is None else out + stage.bias
    if isinstance(stage, FoldedConv):
        k, s, p = stage.kernel_size, stage.stride, stage.pad
        oh = F.conv_output_size(x.shape[2], k, s, p)
        ow = F.conv_output_size(x.shape[3], k, s, p)
        cols = F.im2col(x, k, k, s, p)
        if stage.binary_input:
            acc = binary_matmul(cols, stage.weight_matrix)
        else:
            acc = cols @ stage.weight_matrix.T
        acc = acc.reshape(n, oh, ow, stage.out_channels).transpose(0, 3, 1, 2)
        return stage.thresholds.apply(acc, channel_axis=1)
    acc = binary_matmul(x.reshape(n, -1), stage.weight_matrix)
    if stage.thresholds is not None:
        return stage.thresholds.apply(acc, channel_axis=1)
    if stage.output_scale is not None:
        acc = acc * stage.output_scale + stage.output_offset
    return acc


def forward_oracle(folded, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Raw scores of *folded*, chunk by chunk (``batch_size`` images each,
    so the float GEMMs match a plan compiled for that micro-batch)."""
    outputs = []
    for start in range(0, images.shape[0], batch_size):
        x = np.asarray(images[start : start + batch_size], dtype=np.float64)
        for stage in folded.stages:
            x = oracle_stage(stage, x)
        outputs.append(x)
    return np.concatenate(outputs, axis=0)
