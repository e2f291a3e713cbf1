"""Inference fast path: a compiled, allocation-free forward for Sequential nets.

``Sequential.forward`` is a training loop in disguise: every layer keeps
backward bookkeeping alive (im2col matrices, ReLU masks, pooling argmax
indices), re-allocates its activations per call, and walks NCHW tensors
through transposes that force copies in the next layer.  None of that is
needed to *serve* a trained host model (Table III Models A/B/C), and after
the PR 2 kernel speedups the float host path dominates the Eq. (1) budget
``t_multi = max(t_fp * R_rerun, t_bnn)`` — so the host forward is now the
hot path worth compiling.

:class:`InferenceEngine` walks the layer stack once at construction and
emits a flat list of eval-only steps:

* **NHWC dataflow** — convolution becomes im2col + one GEMM whose output
  *is* the next layer's NHWC input: the per-conv ``transpose(0, 3, 1, 2)``
  copy of the training path disappears entirely.
* **Conv2D + ReLU fusion** — the ReLU is applied in place on the GEMM
  output buffer before it is ever re-read.
* **Preallocated buffers** — step outputs, padded inputs, pooling and LRN
  scratch are allocated once per (step, image geometry), sized for a full
  micro-batch, and reused across calls as leading-row views whatever the
  chunk size; padded borders are zeroed exactly once.  Temporaries that
  die with their step (im2col matrices, Winograd slabs) come from two
  flat slots shared by every step, so a step starts in memory its
  predecessor left in cache.
* **Winograd F(4x4, 3x3) for "same" 3x3 convolutions** — a Conv2D with
  kernel 3, stride 1, pad 1 and at least 16 input *and* output channels
  (Model C's conv2/conv4/conv5, Model B's 3x3) runs Lavin & Gray's
  minimal filtering: 6x6 input tiles at stride 4, the input transform
  ``kron(Bᵀ, Bᵀ)`` as one GEMM, 36 GEMMs against ``U = G·g·Gᵀ``
  (computed once at compile time in float64, then cast), the output
  transform ``kron(Aᵀ, Aᵀ)`` as one GEMM, and a scatter that fuses the
  ReLU — 36 multiplies per 4x4 output tile instead of 144.  Speeds below
  are per layer against its im2col step, on one Sapphire Rapids core
  with one OpenBLAS thread.  F(2x2, 3x3) saves only 2.25x of the
  multiplies and measured 0.94–1.20x: its numpy transforms cost as much
  as the multiplies they save.  Everything else stays im2col: thinner
  convs (conv1's 3 channels; 8 channels measured 0.91x at batch 1),
  stride-2 and 1x1 convs, Models A/B's 5x5 convs, unpadded convs (a
  valid 3x3 conv turns a power-of-two map into ``4k - 2`` rows and
  wastes up to 44 % of the tile grid: Model C's conv7, 8x8 → 6x6,
  measured 0.81–0.95x) and every conv of
  :class:`repro.nn.QuantizedEngine`, whose int32-exact GEMM has no
  Winograd form.  The transforms amplify rounding: in float32 a
  Winograd layer is within 3–5e-6 of max|output| of a float64 conv
  (im2col: 3–5e-7), Model C's logits stay within 7.2e-7 of max|logit|
  of the all-im2col engine's and no prediction changes over the 3,072
  images of the e2e benchmark's pools; float64 engines still track the
  training forward to ~1e-12.
* **LRN via cumulative sums** — the cross-channel sliding window is two
  cumsum slices (O(C) not O(C·size)), computed into reused scratch.
* **Dropout is a true no-op** and no step retains anything backward
  would need.
* **1x1 convolutions skip im2col** — the activation matrix is already the
  GEMM operand in NHWC layout (NiN's mlpconv stacks, Model B).

Determinism contract
--------------------
The engine processes inputs in fixed *micro-batches* (``micro_batch``
images at a time, remainder last).  Because each micro-batch is an
independent pure function of its pixels, any sharding of a request batch
**along micro-batch boundaries** reproduces the serial logits *bit for
bit* — this is what lets :class:`repro.parallel.ParallelHostRunner`
fan a batch out to worker processes and still return bit-identical
logits for any worker count.  (Splitting *inside* a micro-batch is not
bit-stable: BLAS GEMM accumulation order may change with the number of
rows.)

``dtype`` selects the inference precision.  ``float32`` — the precision
the paper's ARM host actually runs — roughly doubles GEMM and memory
throughput over the float64 training representation; logits then match
the float64 training forward to ~1e-5 relative (argmax preserved), while
float64 mode tracks it to ~1e-12.  Weights are snapshotted at
construction: compile *after* training / ``load_state_dict``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .layers.activations import HardTanh, ReLU, Sigmoid, Tanh
from .layers.batchnorm import BatchNorm
from .layers.conv import Conv2D
from .layers.dense import Dense
from .layers.dropout import Dropout
from .layers.flatten import Flatten
from .layers.lrn import LocalResponseNorm
from .layers.pool import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from . import functional as F

__all__ = ["InferenceEngine"]

_STRIDED = np.lib.stride_tricks.as_strided


class _BufferPool:
    """Per-engine scratch arrays, sized for a full ``micro_batch`` chunk.

    Every buffer is allocated once and handed out as a leading view: a
    chunk of any size 1…``micro_batch`` reuses the same memory, so the
    scratch set stops growing after the first call whatever batch sizes
    the host worker sends (every request's size is a multiple of the
    chunk's image count, which :meth:`InferenceEngine._run_chunk` sets
    in ``images``).  Two kinds:

    * :meth:`get` — one array per (step, role, per-image shape) for what
      outlives the step that fills it: step outputs and zero-bordered
      padded inputs;
    * :meth:`scratch` — step-local temporaries (im2col matrices, Winograd
      slabs), one flat array per slot shared by *every* step, so each
      step works in memory the previous one just left in cache.
    """

    def __init__(self, micro_batch: int):
        self._micro_batch = micro_batch
        self._arrays: dict[tuple, np.ndarray] = {}
        self.images = micro_batch

    def get(self, key: tuple, shape: tuple[int, ...], dtype, zero: bool = False):
        """Reusable buffer; freshly allocated ones are zeroed iff *zero*.

        A *zero* buffer is only cleared on allocation — callers rely on
        overwriting the interior every call while padded borders stay
        zero from the first fill (the zero-once padding trick); rows past
        the current chunk are never read.
        """
        rows_per_image = shape[0] // self.images
        full_key = key + (rows_per_image,) + shape[1:]
        buf = self._arrays.get(full_key)
        if buf is None:
            full = (rows_per_image * self._micro_batch,) + shape[1:]
            buf = np.zeros(full, dtype) if zero else np.empty(full, dtype)
            self._arrays[full_key] = buf
        return buf[: shape[0]]

    def scratch(self, slot: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Contiguous temporary of *shape*, dead once the calling step returns.

        The slot's flat array grows to the largest per-image request of
        any step (so it too stops growing after the first call) and the
        leading ``prod(shape)`` elements are handed out reshaped — any
        layout, not only image-major ones, is contiguous at every chunk
        size.  A step holds at most one live temporary per slot.
        """
        size = math.prod(shape)
        key = ("scratch", slot, np.dtype(dtype))
        buf = self._arrays.get(key)
        full = size // self.images * self._micro_batch
        if buf is None or buf.size < full:
            buf = np.empty(full, dtype)
            self._arrays[key] = buf
        return buf[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())


class InferenceEngine:
    """Compiled eval-only forward for a :class:`repro.nn.Sequential`.

    Parameters
    ----------
    net:
        The trained network.  Weights are snapshotted (cast to *dtype*)
        at construction; later weight mutations are not seen.
    dtype:
        Inference precision (default ``float32`` — see module docstring).
    micro_batch:
        Fixed processing chunk.  Larger amortizes numpy dispatch, smaller
        bounds memory; it also defines the bit-stable shard boundaries
        used by :class:`repro.parallel.ParallelHostRunner`.

    One caller at a time: every call reuses the engine's buffers, so
    concurrent calls queue on its lock.  Give each thread its own engine
    to run them in parallel.
    """

    def __init__(self, net, dtype=np.float32, micro_batch: int = 16):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError("InferenceEngine requires a float dtype")
        self.micro_batch = int(micro_batch)
        self.name = getattr(net, "name", "net")
        self._bufs = _BufferPool(self.micro_batch)
        self._lock = threading.Lock()  # held while a call uses self._bufs
        self._steps = self._compile(net)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # a lock does not pickle; the copy gets its own
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- compilation ---------------------------------------------------------
    def _compile(self, net) -> list:
        layers = list(net)
        steps: list = []
        i = 0
        while i < len(layers):
            layer = layers[i]
            fuse_relu = isinstance(layer, Conv2D) and i + 1 < len(layers) and isinstance(
                layers[i + 1], ReLU
            )
            step = self._compile_layer(len(steps), layer, fuse_relu)
            if step is not None:
                steps.append(step)
            i += 2 if fuse_relu else 1
        return steps

    def _compile_layer(self, idx: int, layer, fuse_relu: bool):
        dt = self.dtype
        if isinstance(layer, Conv2D):
            if _winograd_fits(layer):
                wmat, bias = _conv_operands(layer, np.float64)
                return _WinogradStep(idx, layer.pad, _winograd_filter(wmat).astype(dt),
                                     None if bias is None else bias.astype(dt), fuse_relu)
            return _ConvStep(idx, layer.kernel_size, layer.stride, layer.pad,
                             *_conv_operands(layer, dt), fuse_relu)
        if isinstance(layer, Dense):
            wmat = np.ascontiguousarray(layer.weight.value, dtype=dt)
            bias = None if layer.bias is None else layer.bias.value.astype(dt)
            return _DenseStep(idx, wmat, bias)
        if isinstance(layer, (MaxPool2D, AvgPool2D)):
            return _PoolStep(
                idx, layer.window, layer.stride, layer.pad, isinstance(layer, MaxPool2D)
            )
        if isinstance(layer, LocalResponseNorm):
            return _LRNStep(idx, layer.size, layer.alpha, layer.beta, layer.k)
        if isinstance(layer, GlobalAvgPool2D):
            return _GlobalAvgStep(idx)
        if isinstance(layer, Flatten):
            return _FlattenStep(idx)
        if isinstance(layer, BatchNorm):
            inv_std = 1.0 / np.sqrt(layer.running_var.value + layer.eps)
            scale = (layer.gamma.value * inv_std).astype(dt)
            shift = (layer.beta.value - layer.running_mean.value * layer.gamma.value * inv_std).astype(dt)
            return _BatchNormStep(idx, scale, shift)
        if isinstance(layer, ReLU):
            return _ElementwiseStep(idx, "relu")
        if isinstance(layer, Tanh):
            return _ElementwiseStep(idx, "tanh")
        if isinstance(layer, Sigmoid):
            return _ElementwiseStep(idx, "sigmoid")
        if isinstance(layer, HardTanh):
            return _ElementwiseStep(idx, "hardtanh")
        if isinstance(layer, Dropout):
            return None  # true no-op in eval: no RNG draw, no mask, no copy
        raise ValueError(
            f"InferenceEngine cannot compile layer {layer!r}; "
            "extend repro.nn.infer or fall back to Sequential.forward"
        )

    # -- execution ------------------------------------------------------------
    def _run_chunk(self, chunk: np.ndarray) -> np.ndarray:
        n, c, h, w = chunk.shape
        self._bufs.images = n
        entry = self._bufs.get(("entry",), (n, h, w, c), self.dtype)
        # Single cast + layout change: NCHW (any float dtype) -> NHWC dtype.
        entry[...] = chunk.transpose(0, 2, 3, 1)
        a = entry
        for step in self._steps:
            a = step.run(a, self._bufs, self.dtype)
        return a

    def predict_scores(self, images: np.ndarray) -> np.ndarray:
        """Class scores ``(N, C)`` in engine dtype, micro-batched."""
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        n = images.shape[0]
        out: np.ndarray | None = None
        with self._lock:
            for start in range(0, n, self.micro_batch):
                scores = self._run_chunk(images[start : start + self.micro_batch])
                if out is None:
                    out = np.empty((n,) + scores.shape[1:], self.dtype)
                out[start : start + scores.shape[0]] = scores
        if out is None:
            # Class count without running data: ask the first Dense/conv head.
            return np.empty((0, self.num_classes_hint()), self.dtype)
        return out

    def predict_classes(self, images: np.ndarray) -> np.ndarray:
        return self.predict_scores(images).argmax(axis=1)

    __call__ = predict_scores

    def num_classes_hint(self) -> int:
        """Best-effort output width for empty-batch calls."""
        for step in reversed(self._steps):
            width = step.out_width()
            if width is not None:
                return width
        return 0

    def scratch_nbytes(self) -> int:
        """Bytes currently held by the reusable buffer pool."""
        return self._bufs.nbytes()


class _Step:
    __slots__ = ("idx",)

    def out_width(self) -> int | None:
        return None


class _ConvStep(_Step):
    __slots__ = ("k", "stride", "pad", "wmat", "bias", "fuse_relu")

    def __init__(self, idx, k, stride, pad, wmat, bias, fuse_relu):
        self.idx = idx
        self.k = k
        self.stride = stride
        self.pad = pad
        self.wmat = wmat
        self.bias = bias
        self.fuse_relu = fuse_relu

    def out_width(self):
        return self.wmat.shape[1]

    def _gather(self, a, bufs, dt):
        """im2col into a reused buffer; returns ``(cols, n, oh, ow)``."""
        n, h, w, c = a.shape
        k, st, p = self.k, self.stride, self.pad
        oh = F.conv_output_size(h, k, st, p)
        ow = F.conv_output_size(w, k, st, p)
        if p:
            padded = bufs.get((self.idx, "pad"), (n, h + 2 * p, w + 2 * p, c), dt, zero=True)
            padded[:, p : p + h, p : p + w, :] = a
            src = padded
        else:
            src = a
        if k == 1 and st == 1:
            cols = src.reshape(n * oh * ow, c)  # NHWC rows are the GEMM operand
        else:
            cols = bufs.scratch(0, (n * oh * ow, k * k * c), dt)
            sn, sh, sw, sc = src.strides
            windows = _STRIDED(
                src,
                shape=(n, oh, ow, k, k, c),
                strides=(sn, sh * st, sw * st, sh, sw, sc),
                writeable=False,
            )
            cols.reshape(n, oh, ow, k, k, c)[...] = windows  # one strided gather
        return cols, n, oh, ow

    def _gemm(self, cols, bufs, dt):
        out = bufs.get((self.idx, "out"), (cols.shape[0], self.wmat.shape[1]), dt)
        np.matmul(cols, self.wmat, out=out)
        return out

    def run(self, a, bufs, dt):
        cols, n, oh, ow = self._gather(a, bufs, dt)
        out = self._gemm(cols, bufs, dt)
        if self.bias is not None:
            out += self.bias
        if self.fuse_relu:
            np.maximum(out, 0.0, out=out)
        return out.reshape(n, oh, ow, self.wmat.shape[1])


def _conv_operands(layer, dtype):
    """``(k·k·C_in, C_out)`` im2col weight matrix and bias of a Conv2D in *dtype*."""
    wmat = layer.weight.value.transpose(2, 3, 1, 0).reshape(-1, layer.out_channels)
    bias = None if layer.bias is None else layer.bias.value.astype(dtype)
    return np.ascontiguousarray(wmat, dtype=dtype), bias


# Lavin & Gray's F(4x4, 3x3) matrices: a 6x6 input tile d and 3x3 filter g
# give the 4x4 correlation output Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A.
_WINO_BT = np.array([[4, 0, -5, 0, 1, 0],
                     [0, -4, -4, 1, 1, 0],
                     [0, 4, -4, -1, 1, 0],
                     [0, -2, -1, 2, 1, 0],
                     [0, 2, -1, -2, 1, 0],
                     [0, 4, 0, -5, 0, 1]], dtype=np.float64)
_WINO_G = np.array([[1 / 4, 0, 0],
                    [-1 / 6, -1 / 6, -1 / 6],
                    [-1 / 6, 1 / 6, -1 / 6],
                    [1 / 24, 1 / 12, 1 / 6],
                    [1 / 24, -1 / 12, 1 / 6],
                    [0, 0, 1]], dtype=np.float64)
_WINO_AT = np.array([[1, 1, 1, 1, 1, 0],
                     [0, 1, -1, 2, -2, 0],
                     [0, 1, 1, 4, 4, 0],
                     [0, 1, -1, 8, -8, 1]], dtype=np.float64)
# Both sides of a tile at once: vec(Bᵀ d B) = kron(Bᵀ, Bᵀ) vec(d), so each
# data transform is a single GEMM over every tile and channel of a chunk.
_WINO_KB = np.kron(_WINO_BT, _WINO_BT)  # (36, 36)
_WINO_KA = np.kron(_WINO_AT, _WINO_AT)  # (16, 36)
# Aᵀ's column 1 is all ones, so a value added to Winograd-domain slab
# (1, 1) reaches all 16 outputs of its tile exactly once: the bias slot.
_WINO_BIAS_SLAB = 1 * 6 + 1
_WINO_MIN_CHANNELS = 16


def _winograd_fits(layer) -> bool:
    """The fixed shape rule for :class:`_WinogradStep` (see module docstring)."""
    return (layer.kernel_size == 3 and layer.stride == 1 and layer.pad == 1
            and min(layer.in_channels, layer.out_channels) >= _WINO_MIN_CHANNELS)


def _winograd_filter(wmat: np.ndarray) -> np.ndarray:
    """``U = G g Gᵀ`` per channel pair of a float64 3x3 im2col weight matrix.

    Returns ``(36, C_in, C_out)`` float64, slab ``i·6 + j`` = ``U[i, j]``.
    """
    c_in, c_out = wmat.shape[0] // 9, wmat.shape[1]
    gg = (_WINO_G @ wmat.reshape(3, -1)).reshape(6, 3, -1)  # (i, b, C_in·C_out)
    return np.matmul(_WINO_G, gg).reshape(36, c_in, c_out)


class _WinogradStep(_Step):
    """Stride-1 3x3 convolution as Winograd F(4x4, 3x3) over NHWC chunks.

    Per chunk: gather 6x6 input tiles (stride 4) of the zero-padded map
    into ``(36, tiles, C_in)`` slabs, input transform (one GEMM), 36
    slab GEMMs against the compile-time ``U``, output transform (one
    GEMM), then scatter the 4x4 tiles into the NHWC output with the
    ReLU fused into the scatter.
    """

    __slots__ = ("pad", "u", "kb", "ka", "bias", "fuse_relu")

    def __init__(self, idx, pad, u, bias, fuse_relu):
        self.idx = idx
        self.pad = pad
        self.u = u
        self.kb = _WINO_KB.astype(u.dtype)  # small integers: exact in float32
        self.ka = _WINO_KA.astype(u.dtype)
        self.bias = bias
        self.fuse_relu = fuse_relu

    def out_width(self):
        return self.u.shape[2]

    def run(self, a, bufs, dt):
        n, h, w, c = a.shape
        co = self.u.shape[2]
        p = self.pad
        oh, ow = h + 2 * p - 2, w + 2 * p - 2
        th, tw = -(-oh // 4), -(-ow // 4)
        t = n * th * tw
        # Tiles cover 4·th+2 rows: the zero border also fills the last
        # partial tile when the output is not a multiple of 4.
        padded = bufs.get((self.idx, "pad"), (n, 4 * th + 2, 4 * tw + 2, c), dt, zero=True)
        padded[:, p : p + h, p : p + w, :] = a
        sn, sh, sw, sc = padded.strides
        tiles = _STRIDED(
            padded,
            shape=(6, 6, n, th, tw, c),
            strides=(sh, sw, sn, 4 * sh, 4 * sw, sc),
            writeable=False,
        )
        # Two scratch slots, each reused once its first tenant is dead:
        # slot 0 holds the tiles d, then m; slot 1 holds v, then y.
        d = bufs.scratch(0, (6, 6, n, th, tw, c), dt)
        d[...] = tiles
        v = bufs.scratch(1, (36, t, c), dt)
        np.matmul(self.kb, d.reshape(36, t * c), out=v.reshape(36, t * c))
        m = bufs.scratch(0, (36, t, co), dt)
        np.matmul(v, self.u, out=m)
        if self.bias is not None:
            m[_WINO_BIAS_SLAB] += self.bias
        y = bufs.scratch(1, (16, t, co), dt)
        np.matmul(self.ka, m.reshape(36, t * co), out=y.reshape(16, t * co))
        out = bufs.get((self.idx, "out"), (n, oh, ow, co), dt)
        aligned = (oh, ow) == (4 * th, 4 * tw)
        # m is dead: an unaligned map is scattered whole into slot 0, then cropped.
        tiled = out if aligned else bufs.scratch(0, (n, 4 * th, 4 * tw, co), dt)
        src = y.reshape(4, 4, n, th, tw, co)
        dst = tiled.reshape(n, th, 4, tw, 4, co).transpose(2, 4, 0, 1, 3, 5)
        if self.fuse_relu:
            np.maximum(src, 0.0, out=dst)
        else:
            dst[...] = src
        if not aligned:
            out[...] = tiled[:, :oh, :ow]
        return out


class _DenseStep(_Step):
    __slots__ = ("wmat", "bias")

    def __init__(self, idx, wmat, bias):
        self.idx = idx
        self.wmat = wmat
        self.bias = bias

    def out_width(self):
        return self.wmat.shape[1]

    def _gemm(self, a, bufs, dt):
        out = bufs.get((self.idx, "out"), (a.shape[0], self.wmat.shape[1]), dt)
        np.matmul(a, self.wmat, out=out)
        return out

    def run(self, a, bufs, dt):
        out = self._gemm(a, bufs, dt)
        if self.bias is not None:
            out += self.bias
        return out


class _PoolStep(_Step):
    __slots__ = ("window", "stride", "pad", "is_max")

    def __init__(self, idx, window, stride, pad, is_max):
        self.idx = idx
        self.window = window
        self.stride = stride
        self.pad = pad
        self.is_max = is_max

    def run(self, a, bufs, dt):
        n, h, w, c = a.shape
        win, st, p = self.window, self.stride, self.pad
        if p:
            padded = bufs.get((self.idx, "pad"), (n, h + 2 * p, w + 2 * p, c), dt, zero=True)
            padded[:, p : p + h, p : p + w, :] = a
            src = padded
        else:
            src = a
        oh = F.pool_output_size(h, win, st, p)
        ow = F.pool_output_size(w, win, st, p)
        sn, sh, sw, sc = src.strides
        windows = _STRIDED(
            src,
            shape=(n, oh, ow, win, win, c),
            strides=(sn, sh * st, sw * st, sh, sw, sc),
            writeable=False,
        )
        out = bufs.get((self.idx, "out"), (n, oh, ow, c), dt)
        if self.is_max:
            np.amax(windows, axis=(3, 4), out=out)
        else:
            np.mean(windows, axis=(3, 4), out=out)
        return out


class _LRNStep(_Step):
    __slots__ = ("size", "alpha", "beta", "k")

    def __init__(self, idx, size, alpha, beta, k):
        self.idx = idx
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def run(self, a, bufs, dt):
        n, h, w, c = a.shape
        half = self.size // 2
        # x^2 embedded in a zero halo; the halo never needs re-zeroing.
        padded = bufs.get((self.idx, "sq"), (n, h, w, c + 2 * half), dt, zero=True)
        np.multiply(a, a, out=padded[..., half : half + c])
        csum = bufs.get((self.idx, "csum"), padded.shape, dt)
        np.cumsum(padded, axis=-1, out=csum)
        # Sliding-window sum over the channel axis as two cumsum slices.
        scale = bufs.get((self.idx, "scale"), (n, h, w, c), dt)
        scale[...] = csum[..., self.size - 1 :]
        scale[..., 1:] -= csum[..., : c - 1]
        scale *= self.alpha / self.size
        scale += self.k
        np.power(scale, -self.beta, out=scale)
        out = bufs.get((self.idx, "out"), (n, h, w, c), dt)
        np.multiply(a, scale, out=out)
        return out


class _GlobalAvgStep(_Step):
    __slots__ = ()

    def __init__(self, idx):
        self.idx = idx

    def run(self, a, bufs, dt):
        out = bufs.get((self.idx, "out"), (a.shape[0], a.shape[3]), dt)
        np.mean(a, axis=(1, 2), out=out)
        return out


class _FlattenStep(_Step):
    __slots__ = ()

    def __init__(self, idx):
        self.idx = idx

    def run(self, a, bufs, dt):
        n, h, w, c = a.shape
        # Dense weights expect the training layout: flat (C, H, W) order.
        out = bufs.get((self.idx, "out"), (n, c * h * w), dt)
        out.reshape(n, c, h, w)[...] = a.transpose(0, 3, 1, 2)
        return out


class _BatchNormStep(_Step):
    __slots__ = ("scale", "shift")

    def __init__(self, idx, scale, shift):
        self.idx = idx
        self.scale = scale
        self.shift = shift

    def run(self, a, bufs, dt):
        out = bufs.get((self.idx, "out"), a.shape, dt)
        np.multiply(a, self.scale, out=out)  # channels are the last axis in NHWC
        out += self.shift
        return out


class _ElementwiseStep(_Step):
    __slots__ = ("kind",)

    def __init__(self, idx, kind):
        self.idx = idx
        self.kind = kind

    def run(self, a, bufs, dt):
        if self.kind == "relu":
            np.maximum(a, 0.0, out=a)
        elif self.kind == "tanh":
            np.tanh(a, out=a)
        elif self.kind == "hardtanh":
            np.clip(a, -1.0, 1.0, out=a)
        else:  # sigmoid — stable form, allocates (rare in the host models)
            a = F.sigmoid(a).astype(dt, copy=False)
        return a
