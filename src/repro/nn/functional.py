"""Stateless tensor operations shared by layers.

All image tensors are NCHW (batch, channels, height, width).  Convolution
is implemented by im2col + matrix multiplication, which is both the fastest
pure-numpy route and exactly the lowering FINN uses in hardware (the paper
cites Chellapilla et al. [7] for unrolling convolutions into matrix-matrix
products), so the same code path later feeds the binarized engine model.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "pool_output_size",
    "pad_nchw",
    "im2col",
    "col2im",
    "log_softmax",
    "one_hot",
    "sigmoid",
]


def conv_output_size(size: int, kernel: int, stride: int = 1, pad: int = 0) -> int:
    """Spatial output size of a convolution along one dimension.

    Raises
    ------
    ValueError
        If the kernel (plus padding) does not fit in the input.
    """
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"kernel {kernel} (stride {stride}, pad {pad}) does not fit input of size {size}"
        )
    return out


def pool_output_size(size: int, window: int, stride: int | None = None, pad: int = 0) -> int:
    """Spatial output size of a pooling window along one dimension."""
    return conv_output_size(size, window, stride if stride is not None else window, pad)


def pad_nchw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of an NCHW tensor."""
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unroll sliding windows of ``x`` into a 2-D matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel_h, kernel_w:
        Window size.
    stride, pad:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    numpy.ndarray
        Shape ``(N * OH * OW, C * kernel_h * kernel_w)``.  Row ``i`` holds
        the receptive field of output pixel ``i`` in (C, kh, kw) order —
        the same ordering FINN's SIMD lanes consume.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel_h, stride, pad)
    ow = conv_output_size(w, kernel_w, stride, pad)
    xp = pad_nchw(x, pad)

    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, oh, ow, kernel_h, kernel_w),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, OH, OW, C, KH, KW) -> rows indexed by output pixel.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kernel_h * kernel_w)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` for the backward pass.

    Overlapping contributions are summed, which is exactly the gradient of
    the unrolling operation.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kernel_h, stride, pad)
    ow = conv_output_size(w, kernel_w, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad

    cols6 = cols.reshape(n, oh, ow, c, kernel_h, kernel_w).transpose(0, 3, 1, 2, 4, 5)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for kh in range(kernel_h):
        h_end = kh + stride * oh
        for kw in range(kernel_w):
            w_end = kw + stride * ow
            out[:, :, kh:h_end:stride, kw:w_end:stride] += cols6[:, :, :, :, kh, kw]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
