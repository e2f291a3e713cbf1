"""Inference fast path: a compiled, allocation-free forward for Sequential nets.

``Sequential.forward`` is a training loop in disguise: every layer keeps
backward bookkeeping alive (im2col matrices, ReLU masks, pooling argmax
indices), re-allocates its activations per call, and walks NCHW tensors
through transposes that force copies in the next layer.  None of that is
needed to *serve* a trained host model (Table III Models A/B/C), and after
the PR 2 kernel speedups the float host path dominates the Eq. (1) budget
``t_multi = max(t_fp * R_rerun, t_bnn)`` — so the host forward is now the
hot path worth compiling.

:class:`InferenceEngine` walks the layer stack once at construction,
snapshots each layer's operands into one eval-only stage, and compiles
the stages per input geometry:

* **NHWC dataflow** — convolution becomes im2col + one GEMM whose output
  *is* the next layer's NHWC input: the per-conv ``transpose(0, 3, 1, 2)``
  copy of the training path disappears entirely.
* **Conv2D + ReLU fusion** — the ReLU is applied in place on the GEMM
  output buffer before it is ever re-read.
* **One compiled Program** — the engine is a
  :class:`repro.nn.program.Program`: per input geometry every stage's
  outputs, padded inputs (borders zeroed once), pooling and LRN scratch
  are allocated once, sized for a full micro-batch, and temporaries that
  die with their stage (im2col matrices, Winograd slabs) share two flat
  scratch slots, so a stage starts in memory its predecessor left in
  cache.  Each chunk size replays one flat call list whose windows,
  slices and reshapes were resolved when it was built.  Stages are named
  by layer kind (``conv1``, ``pool1``, ``lrn1``, ``fc1``, ...) and traced
  as ``host.<label>`` spans (``int<bits>.<label>`` in a
  :class:`repro.nn.QuantizedEngine`).
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

from functools import partial

import numpy as np

from .layers.activations import HardTanh, ReLU, Sigmoid, Tanh
from .layers.batchnorm import BatchNorm
from .layers.conv import Conv2D
from .layers.dense import Dense
from .layers.dropout import Dropout
from .layers.flatten import Flatten
from .layers.lrn import LocalResponseNorm
from .layers.pool import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from .program import Compiler, Program
from . import functional as F

__all__ = ["InferenceEngine"]

_STRIDED = np.lib.stride_tricks.as_strided

#: The input each stage kind needs; the rest take maps or rows alike.
_NEEDS = {
    "im2col": "map", "winograd": "map", "pool": "map", "lrn": "map",
    "global_avg": "map", "flatten": "map", "dense": "rows",
}


class InferenceEngine(Program):
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

    One caller at a time (see :class:`repro.nn.program.Program`): give
    each thread its own engine to run them in parallel.
    """

    prefix = "host"
    #: Convs that fit the shape rule run Winograd (see module docstring).
    _winograd = True

    def __init__(self, net, dtype=np.float32, micro_batch: int = 16):
        super().__init__(micro_batch, "engine")
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError("InferenceEngine requires a float dtype")
        self.name = getattr(net, "name", "net")
        self._specs = self._stage_specs(net)

    # -- construction: one (label, kind, operands) spec per stage -------------
    def _stage_specs(self, net) -> list:
        layers = list(net)
        specs: list = []
        counts: dict[str, int] = {}
        i = 0
        while i < len(layers):
            layer = layers[i]
            relu = isinstance(layer, Conv2D) and i + 1 < len(layers) and isinstance(
                layers[i + 1], ReLU
            )
            spec = self._stage_spec(len(specs), layer, relu)
            if spec is not None:
                label, kind, operands = spec
                counts[label] = counts.get(label, 0) + 1
                specs.append((f"{label}{counts[label]}", kind, operands))
            i += 2 if relu else 1
        return specs

    def _stage_spec(self, index: int, layer, relu: bool):
        dt = self.dtype
        if isinstance(layer, Conv2D):
            if self._winograd and _winograd_fits(layer):
                wmat, bias = _conv_operands(layer, np.float64)
                return "conv", "winograd", dict(
                    pad=layer.pad, u=_winograd_filter(wmat).astype(dt),
                    bias=None if bias is None else bias.astype(dt), relu=relu,
                )
            wmat, bias = _conv_operands(layer, dt)
            return "conv", "im2col", dict(
                index=index, k=layer.kernel_size, stride=layer.stride, pad=layer.pad,
                wmat=wmat, bias=bias, relu=relu,
            )
        if isinstance(layer, Dense):
            wmat = np.ascontiguousarray(layer.weight.value, dtype=dt)
            bias = None if layer.bias is None else layer.bias.value.astype(dt)
            return "fc", "dense", dict(index=index, wmat=wmat, bias=bias)
        if isinstance(layer, (MaxPool2D, AvgPool2D)):
            return "pool", "pool", dict(
                window=layer.window, stride=layer.stride, pad=layer.pad,
                is_max=isinstance(layer, MaxPool2D),
            )
        if isinstance(layer, LocalResponseNorm):
            return "lrn", "lrn", dict(size=layer.size, alpha=layer.alpha, beta=layer.beta,
                                      k=layer.k)
        if isinstance(layer, GlobalAvgPool2D):
            return "pool", "global_avg", {}
        if isinstance(layer, Flatten):
            return "flatten", "flatten", {}
        if isinstance(layer, BatchNorm):
            inv_std = 1.0 / np.sqrt(layer.running_var.value + layer.eps)
            scale = (layer.gamma.value * inv_std).astype(dt)
            shift = (layer.beta.value - layer.running_mean.value * layer.gamma.value * inv_std).astype(dt)
            return "bn", "batchnorm", dict(scale=scale, shift=shift)
        for kind, name in ((ReLU, "relu"), (Tanh, "tanh"), (Sigmoid, "sigmoid"),
                           (HardTanh, "hardtanh")):
            if isinstance(layer, kind):
                return name, "activation", dict(fn=name)
        if isinstance(layer, Dropout):
            return None  # true no-op in eval: no RNG draw, no mask, no copy
        raise ValueError(
            f"InferenceEngine cannot compile layer {layer!r}; "
            "extend repro.nn.infer or fall back to Sequential.forward"
        )

    # -- compile: the Program's stage compiler --------------------------------
    def _gemm_op(self) -> str:
        """The GEMM op this engine's stages compile with."""
        return "float"

    def _compile(self, geometry: tuple):
        c, h, w = geometry
        compiler = _HostCompiler(self, self.dtype, self._gemm_op())
        stages: list = []
        state: tuple = ("map", h, w, c)
        for label, kind, operands in self._specs:
            if _NEEDS.get(kind, state[0]) != state[0]:
                raise ValueError(f"{label} ({kind}) cannot take {state[0]} input")
            build, state = getattr(compiler, kind)(state, **operands)
            stages.append((label, kind, [build]))
        if not stages:
            raise ValueError("InferenceEngine needs at least one stage")
        stages[0][2].insert(0, compiler.entry(c, h, w))
        return stages, compiler

    # -- runtime ----------------------------------------------------------------
    def predict_scores(self, images: np.ndarray) -> np.ndarray:
        """Class scores ``(N, C)`` in engine dtype, micro-batched."""
        return self.forward(images)

    def predict_classes(self, images: np.ndarray) -> np.ndarray:
        return self.predict_scores(images).argmax(axis=1)


def _record_maxabs(record: dict, index: int, x: np.ndarray) -> None:
    record[index] = max(record[index], float(np.abs(x).max()))


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, F.sigmoid(x))  # the stable form allocates (rare in the host models)


class _HostCompiler(Compiler):
    """The host engines' stage compiler over NHWC maps / ``(n, features)`` rows.

    ``state`` is ``("map", H, W, C)`` or ``("rows", features)``.  Every
    GEMM stage multiplies through :meth:`gemm`, whose *op* the engine
    picks: ``"float"``, ``"record"`` (a float GEMM after a running
    ``max|x|`` record: calibration) or ``"int"`` (the quantized GEMM).
    """

    def __init__(self, program, dtype, op: str):
        super().__init__(program, dtype)
        self.op = op
        self.engine = program

    def entry(self, c: int, h: int, w: int):
        """The first build: one cast + layout change, NCHW (any dtype) -> NHWC."""
        entry = self.buffer((self.micro_batch, h, w, c))

        def build(n: int, _x: None):
            x = entry[:n]
            return [partial(np.copyto, x.transpose(0, 3, 1, 2), casting="unsafe")], x

        return build

    def gemm(self, index: int, rows: int, wmat: np.ndarray, qweights=None):
        """``mm(x, out)``: the calls computing ``x @ wmat`` into *out* (at
        most *rows* rows) with this compile's op."""
        if self.op == "float":
            return lambda x, out: [partial(np.matmul, x, wmat, out=out)]
        if self.op == "record":
            record = self.engine._record
            return lambda x, out: [
                partial(_record_maxabs, record, index, x),
                partial(np.matmul, x, wmat, out=out),
            ]
        # dequant(rint(clip(x / s)) @ qW) with int32 accumulation.
        qw, w_scale = qweights
        qmax = self.engine.qmax
        act_scale = self.engine._scales[index]
        inv_act_scale, deq_scale = 1.0 / act_scale, act_scale * w_scale
        qf = self.buffer((rows, wmat.shape[0]))
        qi = self.buffer((rows, wmat.shape[0]), np.int32)
        acc = self.buffer((rows, qw.shape[1]), np.int32)

        def mm(x, out):
            m = x.shape[0]
            f, i, a = qf[:m], qi[:m], acc[:m]
            return [
                partial(np.multiply, x, inv_act_scale, out=f),
                partial(np.clip, f, -qmax, qmax, out=f),
                partial(np.rint, f, out=f),
                partial(np.copyto, i, f, casting="unsafe"),
                partial(np.matmul, i, qw, out=a),
                partial(np.multiply, a, deq_scale, out=out),
            ]

        return mm

    def im2col(self, state, index, k, stride, pad, wmat, bias, relu, qweights=None):
        _, h, w, c = state
        st, p, nb = stride, pad, self.micro_batch
        oh = F.conv_output_size(h, k, st, p)
        ow = F.conv_output_size(w, k, st, p)
        width, fan_in = wmat.shape[1], k * k * c
        if p:
            padded = self.buffer((nb, h + 2 * p, w + 2 * p, c), zero=True)
        pointwise = k == 1 and st == 1
        if not pointwise:
            self.scratch(0, nb * oh * ow * fan_in)
        out_buf = self.buffer((nb * oh * ow, width))
        mm = self.gemm(index, nb * oh * ow, wmat, qweights)

        def build(n: int, x: np.ndarray):
            calls, m = [], n * oh * ow
            if p:
                calls.append(partial(np.copyto, padded[:n, p : p + h, p : p + w], x))
                x = padded[:n]
            if pointwise:
                cols = x.reshape(m, c)  # NHWC rows are the GEMM operand
            else:
                cols = self.temp(0, (m, fan_in))
                sn, sh, sw, sc = x.strides
                windows = _STRIDED(
                    x, shape=(n, oh, ow, k, k, c),
                    strides=(sn, sh * st, sw * st, sh, sw, sc), writeable=False,
                )
                calls.append(partial(np.copyto, cols.reshape(windows.shape), windows))
            out = out_buf[:m]
            calls += mm(cols, out)
            if bias is not None:
                calls.append(partial(np.add, out, bias, out=out))
            if relu:
                calls.append(partial(np.maximum, out, 0.0, out=out))
            return calls, out.reshape(n, oh, ow, width)

        return build, ("map", oh, ow, width)

    def winograd(self, state, pad, u, bias, relu):
        """Stride-1 3x3 convolution as Winograd F(4x4, 3x3) over NHWC chunks.

        Per chunk: gather 6x6 input tiles (stride 4) of the zero-padded
        map into ``(36, tiles, C_in)`` slabs, input transform (one GEMM),
        36 slab GEMMs against the compile-time ``U``, output transform (one
        GEMM), then scatter the 4x4 tiles into the NHWC output with the
        ReLU fused into the scatter.
        """
        _, h, w, c = state
        co, p, nb = u.shape[2], pad, self.micro_batch
        oh, ow = h + 2 * p - 2, w + 2 * p - 2
        th, tw = -(-oh // 4), -(-ow // 4)
        aligned = (oh, ow) == (4 * th, 4 * tw)
        kb = _WINO_KB.astype(u.dtype)  # small integers: exact in float32
        ka = _WINO_KA.astype(u.dtype)
        # Tiles cover 4·th+2 rows: the zero border also fills the last
        # partial tile when the output is not a multiple of 4.
        padded = self.buffer((nb, 4 * th + 2, 4 * tw + 2, c), zero=True)
        out_buf = self.buffer((nb, oh, ow, co))
        # Slot 0 holds the tiles d, then m, then an unaligned map's tiles;
        # slot 1 holds v, then y.  Each tenant starts once the last is dead.
        tiles_max = nb * th * tw
        self.scratch(0, 36 * tiles_max * max(c, co))
        self.scratch(1, tiles_max * max(36 * c, 16 * co))

        def build(n: int, x: np.ndarray):
            t, src = n * th * tw, padded[:n]
            sn, sh, sw, sc = src.strides
            tiles = _STRIDED(
                src, shape=(6, 6, n, th, tw, c),
                strides=(sh, sw, sn, 4 * sh, 4 * sw, sc), writeable=False,
            )
            d, v = self.temp(0, tiles.shape), self.temp(1, (36, t, c))
            m, y = self.temp(0, (36, t, co)), self.temp(1, (16, t, co))
            out = out_buf[:n]
            tiled = out if aligned else self.temp(0, (n, 4 * th, 4 * tw, co))
            calls = [
                partial(np.copyto, src[:, p : p + h, p : p + w], x),
                partial(np.copyto, d, tiles),
                partial(np.matmul, kb, d.reshape(36, t * c), out=v.reshape(36, t * c)),
                partial(np.matmul, v, u, out=m),
            ]
            if bias is not None:
                slab = m[_WINO_BIAS_SLAB]
                calls.append(partial(np.add, slab, bias, out=slab))
            calls.append(partial(np.matmul, ka, m.reshape(36, t * co), out=y.reshape(16, t * co)))
            tile_out = y.reshape(4, 4, n, th, tw, co)
            dst = tiled.reshape(n, th, 4, tw, 4, co).transpose(2, 4, 0, 1, 3, 5)
            if relu:
                calls.append(partial(np.maximum, tile_out, 0.0, out=dst))
            else:
                calls.append(partial(np.copyto, dst, tile_out))
            if not aligned:
                calls.append(partial(np.copyto, out, tiled[:, :oh, :ow]))
            return calls, out

        return build, ("map", oh, ow, co)

    def dense(self, state, index, wmat, bias, qweights=None):
        features, width = state[1], wmat.shape[1]
        if features != wmat.shape[0]:
            raise ValueError(f"dense fan-in {wmat.shape[0]} cannot take {features} features")
        out_buf = self.buffer((self.micro_batch, width))
        mm = self.gemm(index, self.micro_batch, wmat, qweights)

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            calls = mm(x, out)
            if bias is not None:
                calls.append(partial(np.add, out, bias, out=out))
            return calls, out

        return build, ("rows", width)

    def pool(self, state, window, stride, pad, is_max):
        _, h, w, c = state
        win, st, p = window, stride, pad
        if p:
            padded = self.buffer((self.micro_batch, h + 2 * p, w + 2 * p, c), zero=True)
        oh = F.pool_output_size(h, win, st, p)
        ow = F.pool_output_size(w, win, st, p)
        out_buf = self.buffer((self.micro_batch, oh, ow, c))
        reduce = np.amax if is_max else np.mean

        def build(n: int, x: np.ndarray):
            calls = []
            if p:
                calls.append(partial(np.copyto, padded[:n, p : p + h, p : p + w], x))
                x = padded[:n]
            sn, sh, sw, sc = x.strides
            windows = _STRIDED(
                x, shape=(n, oh, ow, win, win, c),
                strides=(sn, sh * st, sw * st, sh, sw, sc), writeable=False,
            )
            out = out_buf[:n]
            return calls + [partial(reduce, windows, axis=(3, 4), out=out)], out

        return build, ("map", oh, ow, c)

    def lrn(self, state, size, alpha, beta, k):
        """Cross-channel LRN as two cumsum slices (O(C), not O(C·size))."""
        _, h, w, c = state
        half, nb = size // 2, self.micro_batch
        # x^2 embedded in a zero halo; the halo never needs re-zeroing.
        sq_buf = self.buffer((nb, h, w, c + 2 * half), zero=True)
        csum_buf = self.buffer(sq_buf.shape)
        scale_buf = self.buffer((nb, h, w, c))
        out_buf = self.buffer((nb, h, w, c))

        def build(n: int, x: np.ndarray):
            sq, csum, scale, out = sq_buf[:n], csum_buf[:n], scale_buf[:n], out_buf[:n]
            tail = scale[..., 1:]
            return [
                partial(np.multiply, x, x, out=sq[..., half : half + c]),
                partial(np.cumsum, sq, axis=-1, out=csum),
                # Sliding-window sum over the channel axis as two cumsum slices.
                partial(np.copyto, scale, csum[..., size - 1 :]),
                partial(np.subtract, tail, csum[..., : c - 1], out=tail),
                partial(np.multiply, scale, alpha / size, out=scale),
                partial(np.add, scale, k, out=scale),
                partial(np.power, scale, -beta, out=scale),
                partial(np.multiply, x, scale, out=out),
            ], out

        return build, state

    def global_avg(self, state):
        out_buf = self.buffer((self.micro_batch, state[3]))

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            return [partial(np.mean, x, axis=(1, 2), out=out)], out

        return build, ("rows", state[3])

    def flatten(self, state):
        _, h, w, c = state
        out_buf = self.buffer((self.micro_batch, c * h * w))

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            # Dense weights expect the training layout: flat (C, H, W) order.
            return [partial(np.copyto, out.reshape(n, c, h, w), x.transpose(0, 3, 1, 2))], out

        return build, ("rows", c * h * w)

    def batchnorm(self, state, scale, shift):
        out_buf = self.buffer((self.micro_batch,) + state[1:])

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            return [
                partial(np.multiply, x, scale, out=out),  # channels are the last axis
                partial(np.add, out, shift, out=out),
            ], out

        return build, state

    def activation(self, state, fn):
        if fn == "sigmoid":
            out_buf = self.buffer((self.micro_batch,) + state[1:])

            def build_sigmoid(n: int, x: np.ndarray):
                out = out_buf[:n]
                return [partial(_sigmoid_into, x, out)], out

            return build_sigmoid, state

        def build(n: int, x: np.ndarray):  # in place on the previous output
            if fn == "relu":
                return [partial(np.maximum, x, 0.0, out=x)], x
            if fn == "tanh":
                return [partial(np.tanh, x, out=x)], x
            return [partial(np.clip, x, -1.0, 1.0, out=x)], x

        return build, state


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
    """The fixed shape rule for a Winograd conv stage (see module docstring)."""
    return (layer.kernel_size == 3 and layer.stride == 1 and layer.pad == 1
            and min(layer.in_channels, layer.out_channels) >= _WINO_MIN_CHANNELS)


def _winograd_filter(wmat: np.ndarray) -> np.ndarray:
    """``U = G g Gᵀ`` per channel pair of a float64 3x3 im2col weight matrix.

    Returns ``(36, C_in, C_out)`` float64, slab ``i·6 + j`` = ``U[i, j]``.
    """
    c_in, c_out = wmat.shape[0] // 9, wmat.shape[1]
    gg = (_WINO_G @ wmat.reshape(3, -1)).reshape(6, 3, -1)  # (i, b, C_in·C_out)
    return np.matmul(_WINO_G, gg).reshape(36, c_in, c_out)
