"""Compiled FoldedBNN inference: unpack once, stay unpacked.

:meth:`repro.bnn.FoldedBNN.compile_inference` returns a
:class:`CompiledBNNPlan` — the BNN-side counterpart of
:meth:`repro.nn.Sequential.compile_inference`.  The uncompiled
:meth:`FoldedBNN.forward_uncompiled` keeps activations bit-packed between
stages, which is FINN's wire format but the wrong one for BLAS: every
layer packs its output only for the next layer to unpack it once per
kernel offset.  The plan instead carries activations as **0/1 float
planes** (NHWC maps, ``(n, features)`` rows) from the first threshold to
the last layer:

* **conv1** (real-valued input) runs the same im2col + float64 GEMM as
  the uncompiled path and thresholds its accumulator straight into a 0/1
  map — one compare, written through ``out=``.
* **every later binary stage** is three passes: gather ``k·C``-float
  runs of the map into an im2col plane, one GEMM against
  compile-time-folded weights, one ``prod >= bound`` compare written into
  the next map.  No ``*2``, no ``+c``, no sign flip, no pack, no unpack.
* **two images per lane**: a binary conv of fan-in K fed a chunk of
  n >= 2 images packs its two halves into one plane, ``x[:⌈n/2⌉] +
  B·x[⌈n/2⌉:]`` with B the smallest power of two >= 2K + 2 (FINN packs
  many binary operands into one wide datapath word; a float32 mantissa
  holds two).  One GEMM over half the rows returns ``v = p_lo + B·p_hi``
  for both images at once; since ``|p| <= K < B/2``, ``rint(v/B)`` is
  ``p_hi`` and ``v − B·p_hi`` is ``p_lo``, and both compare against the
  unchanged bound.  Every partial sum is an integer of magnitude <=
  ``(B + 1)·K``, so the lanes are exact when that stays below 2²⁴ —
  checked at compile time (:func:`_lane_base`); a stage that fails it,
  a float64 plan, and a one-image chunk run unpacked.  CNV at scale 0.25
  (K = 144…576), batch 32, one core: conv2 0.098 → 0.066 ms/img, conv3
  0.028 → 0.020, conv4 0.034 → 0.022, the plan 0.26 → 0.19–0.21; batch 1
  is unchanged (no partner image).
* **max-pool** on 0/1 maps is ``np.maximum`` over window slices (FINN's
  boolean OR).
* **the affine output layer** rescales its handful of popcounts to ±1
  dot products and applies the BatchNorm affine.

The fold (:func:`_fold_threshold`) is FINN's τ⁺ = (τ + S)/2 in exact
integer algebra.  With ``p = a01·w`` and ``sw = Σw`` the ±1 dot product is
``2p − sw``, so ``dot >= ⌈τ⌉`` iff ``p >= ⌈(⌈τ⌉ + sw)/2⌉``; negative-γ
channels negate their weight column (``−dot >= −⌊τ⌋``), constant (γ = 0)
channels become ``∓inf`` bounds.  Planes are float32 — every product and
partial sum is an integer below ``_F32_EXACT_LIMIT`` — and float64 when a
fan-in reaches that limit.

Scheduling is fixed at compile time, as FINN fixes each engine's
folding at synthesis: the gather→GEMM→compare loop of a conv stage runs
over image groups sized so one im2col tile fits ``_PLANE_TILE_BYTES``
(it is read back by the GEMM while still cache-resident).  ``threads=``
maps those tiles over a thread pool capped at the CPUs the process may
run on; without it they run serially, and integer-exact tiles make the
result independent of the split.  ``backend=`` only selects the kernel
of non-fused suffix stages: a stage that breaks the chain (float head,
padded inner conv) gets the map packed once at the boundary and runs,
with everything after it, through the uncompiled per-stage calls inside
the same chunk loop — results stay identical for *any* foldable
topology.  ``packed=False`` networks do not compile
(:class:`PlanUnsupported`).

Buffers: every plane, product and map buffer is allocated once, at
compile time, sized for ``micro_batch``; smaller chunks use ``[:n]``
views, so the set never grows, whatever batch sizes arrive.

Bit-identity contract: binary stages are exact integers under any
tiling, and the one float GEMM issues the identical BLAS call per chunk,
so ``plan.forward(x)`` equals ``FoldedBNN.forward_uncompiled(x,
batch_size=B)`` bit-for-bit whenever ``micro_batch == B`` (BLAS results
may depend on the GEMM's M dimension, so matched chunking is the stable
boundary).

Tracing: per-stage ``bnn.<label>`` spans (``repro trace`` keys its
Eqs. (3)-(5) residuals off them) plus ``bnn.plan.compile`` /
``bnn.plan.forward``; ``kernel.<name>`` spans appear only for suffix
stages, which still call a kernel backend.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import obs
from ..nn import functional as F
from .inference import FoldedConv, FoldedDense, FoldedPool, _run_stage
from .kernels import available_cpus, get_kernel
from .kernels.base import _F32_EXACT_LIMIT
from .packing import PackedMaps, PackedRows
from .thresholding import ChannelThresholds

__all__ = ["CompiledBNNPlan", "PlanUnsupported"]

#: Budget for one im2col plane tile.  A tile is written by the gather and
#: read back by the GEMM, so it should still be in L2 when BLAS packs it.
_PLANE_TILE_BYTES = 1 << 20


class PlanUnsupported(TypeError):
    """The folded network cannot be compiled (e.g. ``packed=False``)."""


def _fold_threshold(
    weight_t: np.ndarray, thresholds: ChannelThresholds, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a stage's thresholds into its weights: ``(W', bound')``.

    ``weight_t`` is the (K, N) ±1 weight matrix in the plane's column
    order.  For any 0/1 activation row ``a``, ``(a @ W') >= bound'`` is
    the decision ``ChannelThresholds.apply_bits`` takes on the ±1
    accumulator ``(2a − 1) @ weight_t``, bit for bit.
    """
    k = weight_t.shape[0]
    neg = thresholds.sign < 0
    w = np.where(neg[None, :], -weight_t, weight_t)
    # The accumulator is an integer, so dot >= tau iff dot >= ceil(tau) and
    # dot <= tau iff -dot >= -floor(tau); with dot = 2p - sw either reads
    # p >= (bound_on_dot + sw) / 2, rounded up because p is an integer too.
    dot_bound = np.where(neg, -np.floor(thresholds.tau), np.ceil(thresholds.tau))
    bound = np.ceil((dot_bound + w.sum(axis=0)) / 2.0)
    # |p| <= K: clipping keeps every decision and every bound exact in dtype.
    bound = np.clip(bound, -(k + 1), k + 1)
    bound = _constant_bounds(thresholds, bound)
    return np.ascontiguousarray(w, dtype=dtype), bound.astype(dtype)


def _fold_float(
    weight_matrix: np.ndarray, thresholds: ChannelThresholds
) -> tuple[np.ndarray, np.ndarray]:
    """Sign-folded float GEMM operands for the real-valued first conv.

    Negating weight rows is IEEE-exact (products and partial sums of the
    negated row are exact negations of the originals), so the GEMM emits
    ``sign * acc`` bitwise, and ``sign * (acc - tau) >= 0`` iff
    ``sign * acc >= sign * tau`` (subtraction of doubles is zero only on
    equality and never flips sign).
    """
    weight_t = np.ascontiguousarray((weight_matrix * thresholds.sign[:, None]).T)
    return weight_t, _constant_bounds(thresholds, thresholds.tau * thresholds.sign)


def _constant_bounds(thresholds: ChannelThresholds, bound: np.ndarray) -> np.ndarray:
    """γ = 0 channels: always-true / never-true comparands."""
    constant = np.where(thresholds.constant > 0, -np.inf, np.inf)
    return np.where(thresholds.sign == 0, constant, bound)


def _lane_base(fan_in: int, dtype) -> int | None:
    """Base B of a two-image lane ``lo + B·hi`` for a binary GEMM of
    fan-in K, or ``None`` when packing would not be exact.

    Both lanes' dot products are integers with ``|p| <= K``; B is the
    smallest power of two ``>= 2K + 2`` (so ``|p_lo| < B/2`` and dividing
    by B is exact), and every partial sum of the packed GEMM is bounded
    by ``(B + 1)·K``, which must stay below float32's exact-integer limit.
    """
    if np.dtype(dtype) != np.float32:
        return None
    base = 1 << (2 * fan_in + 1).bit_length()
    return base if (base + 1) * fan_in < _F32_EXACT_LIMIT else None


def _hwc_weight_t(weight_matrix: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """(OD, C*H*W) weights in (c, h, w) column order -> (H*W*C, OD)."""
    od = weight_matrix.shape[0]
    return weight_matrix.reshape(od, c, h, w).transpose(2, 3, 1, 0).reshape(h * w * c, od)


class CompiledBNNPlan:
    """A preplanned, buffer-reusing executor for one :class:`FoldedBNN`.

    Build via :meth:`repro.bnn.FoldedBNN.compile_inference`.  Not
    thread-safe: each plan owns one set of buffers, so give each serving
    thread (or replica) its own plan — the cascade server's single BNN
    worker thread is the intended consumer.  A plan asked for tile
    threads owns a small thread pool, released with the plan.

    Parameters
    ----------
    folded:
        The folded network to compile (must have ``packed=True``).
    micro_batch:
        Fixed chunk size the buffers are sized for.  Also the
        bit-stability boundary: output equals
        ``folded.forward_uncompiled(x, batch_size=micro_batch)`` exactly.
    backend:
        Kernel backend of non-fused suffix stages; ``None`` defers to the
        folded network's backend.  Fused stages run the plane dataflow
        whatever the backend.  An unknown name raises ``KeyError``.
    threads:
        Thread count for the fused stages' tile loop: ``None`` (serial)
        or >= 1, capped at the CPUs the process may run on.
    """

    def __init__(
        self,
        folded,
        micro_batch: int = 64,
        backend: str | None = None,
        threads: int | None = None,
    ):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        if threads is not None and threads < 1:
            raise ValueError(f"threads must be None or >= 1, got {threads}")
        if not folded.packed:
            raise PlanUnsupported(
                "compile_inference requires a packed-pipeline FoldedBNN "
                "(packed=False is the float equivalence path)"
            )
        self.folded = folded
        self.micro_batch = int(micro_batch)
        self.backend = backend if backend is not None else folded.backend
        get_kernel(self.backend)  # reject unknown names now
        self.threads = threads
        self.stages = list(folded.stages)
        self.labels = folded.stage_labels
        self.emit = folded._emit_plan()
        self._buffers: list[np.ndarray] = []
        self._ops: list | None = None  # resolved lazily at first chunk
        self._geometry: tuple | None = None
        self._executor: ThreadPoolExecutor | None = None

    # -- compile-time resolution -------------------------------------------

    def _tile_threads(self) -> int:
        """``threads=`` capped at the available CPUs, else serial."""
        if self.threads is None:
            return 1
        return min(self.threads, available_cpus())

    def _buffer(self, shape: tuple, dtype, zero: bool = False) -> np.ndarray:
        """A buffer sized for the full micro-batch; chunks use ``[:n]`` views,
        so the plan holds one set however batch sizes vary."""
        buf = (np.zeros if zero else np.empty)(shape, dtype=dtype)
        self._buffers.append(buf)
        return buf

    def _compile(self, geometry: tuple) -> None:
        """Build one callable per stage for the given (C, H, W) input.

        Runs once per geometry.  ``state`` is the representation flowing
        into the next stage: ``("float", C, H, W)`` images, ``("map", H,
        W, C)`` / ``("rows", features)`` 0/1 planes, or ``None`` once a
        stage has left the fused chain (everything after runs uncompiled).
        """
        fan_ins = [
            s.fan_in for s in self.stages if isinstance(s, (FoldedConv, FoldedDense))
        ]
        self._dtype = np.dtype(
            np.float32 if max(fan_ins, default=0) < _F32_EXACT_LIMIT else np.float64
        )
        self._threads = self._tile_threads()
        self._buffers = []
        ops: list = []
        state: tuple | None = ("float",) + tuple(geometry)
        for i, stage in enumerate(self.stages):
            op = None
            if state is None:
                pass
            elif isinstance(stage, FoldedConv) and self.emit[i]:
                if state[0] == "float" and not stage.binary_input:
                    op, state = self._conv_float_op(stage, state)
                elif (
                    state[0] == "map" and stage.binary_input and stage.pad == 0
                    and state[3] == stage.in_channels
                ):
                    op, state = self._conv_plane_op(stage, state)
            elif isinstance(stage, FoldedPool) and state[0] == "map":
                op, state = self._pool_op(stage, state)
            elif isinstance(stage, FoldedDense) and state[0] in ("map", "rows"):
                if stage.thresholds is None or self.emit[i]:
                    op, state = self._dense_op(stage, state)
            if op is None:
                op = self._suffix_op(i, state)
                state = None
            ops.append(op)
        self._ops = ops
        self._geometry = tuple(geometry)

    def _conv_float_op(self, stage, state: tuple):
        _, c, h, w = state
        k, s, p = stage.kernel_size, stage.stride, stage.pad
        oh = F.conv_output_size(h, k, s, p)
        ow = F.conv_output_size(w, k, s, p)
        oc, rows = stage.out_channels, self.micro_batch * oh * ow
        weight_t, bound = _fold_float(stage.weight_matrix, stage.thresholds)
        hp, wp = h + 2 * p, w + 2 * p
        # Flat source index of every im2col element, (oy, ox, c, kh, kw)
        # order: the gather becomes one np.take per chunk instead of a 6-d
        # strided copy with 3-element runs, and fills the same matrix.
        index = np.arange(c * hp * wp).reshape(c, hp, wp)
        sc, sh, sw = index.strides
        index = np.lib.stride_tricks.as_strided(
            index, shape=(oh, ow, c, k, k), strides=(sh * s, sw * s, sc, sh, sw)
        ).reshape(-1)
        # Borders of the padded input are zero-filled here and never
        # written again.
        padded = self._buffer((self.micro_batch, c, hp, wp), np.float64, zero=True) if p else None
        cols_buf = self._buffer((rows, c * k * k), np.float64)
        acc_buf = self._buffer((rows, oc), np.float64)
        out_buf = self._buffer((self.micro_batch, oh, ow, oc), self._dtype)

        def run(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            m = n * oh * ow
            # Any real dtype widens to float64 exactly, as the float GEMM
            # of the uncompiled path would widen it.
            x = np.asarray(x, dtype=np.float64)
            if p:
                padded[:n, :, p : p + h, p : p + w] = x
                x = padded[:n]
            cols, acc, out = cols_buf[:m], acc_buf[:m], out_buf[:n]
            # Indices are in range by construction; "clip" skips the check.
            np.take(x.reshape(n, -1), index, axis=1, out=cols.reshape(n, -1), mode="clip")
            np.matmul(cols, weight_t, out=acc)
            np.greater_equal(acc, bound, out=out.reshape(m, oc))
            return out

        return run, ("map", oh, ow, oc)

    def _conv_plane_op(self, stage, state: tuple):
        _, h, w, c = state
        k, s = stage.kernel_size, stage.stride
        oh = F.conv_output_size(h, k, s, 0)
        ow = F.conv_output_size(w, k, s, 0)
        oc, nb, dtype = stage.out_channels, self.micro_batch, self._dtype
        weight_t, bound = _fold_threshold(
            _hwc_weight_t(stage.weight_matrix, c, k, k), stage.thresholds, dtype
        )
        fan_in, run_len, pixels = k * k * c, k * c, oh * ow
        base = _lane_base(fan_in, dtype) if nb >= 2 else None
        # Packed images per full chunk: two per lane when packing.
        rows_nb = nb if base is None else -(-nb // 2)
        group = min(rows_nb, max(1, _PLANE_TILE_BYTES // (pixels * fan_in * dtype.itemsize)))
        slots = min(self._threads, -(-rows_nb // group))
        planes = self._buffer((slots, group * pixels, fan_in), dtype)
        prods = self._buffer((slots, group * pixels, oc), dtype)
        out_buf = self._buffer((nb, oh, ow, oc), dtype)
        if base is not None:
            lanes_buf = self._buffer((rows_nb, h, w, c), dtype)
            his = self._buffer((slots, group * pixels, oc), dtype)

        def gemm(slot: int, x: np.ndarray) -> np.ndarray:
            """gather -> GEMM over the images of *x*; the product rows."""
            g = x.shape[0]
            sn, sh, sw, sc = x.strides
            # Row dy of a window is k adjacent pixels: one k*C-float run.
            windows = np.lib.stride_tricks.as_strided(
                x, shape=(g, oh, ow, k, run_len),
                strides=(sn, sh * s, sw * s, sh, sc), writeable=False,
            )
            plane = planes[slot, : g * pixels]
            plane.reshape(g, oh, ow, k, run_len)[...] = windows
            prod = prods[slot, : g * pixels]
            np.matmul(plane, weight_t, out=prod)
            return prod

        def run(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            out = out_buf[:n]
            if base is None or n < 2:

                def tile(slot: int, lo: int, hi: int) -> None:
                    prod = gemm(slot, x[lo:hi])
                    np.greater_equal(prod, bound, out=out[lo:hi].reshape(-1, oc))

                self._run_tiles(tile, n, group)
                return out
            # Image i shares a lane with image half + i; an odd chunk's
            # middle image has no partner and rides alone (hi lane 0).
            half = -(-n // 2)
            pairs = n - half
            lanes = lanes_buf[:half]
            np.multiply(x[half:], base, out=lanes[:pairs])
            np.add(lanes[:pairs], x[:pairs], out=lanes[:pairs])
            lanes[pairs:] = x[pairs:half]

            def packed_tile(slot: int, lo: int, hi: int) -> None:
                prod = gemm(slot, lanes[lo:hi])
                # |p_lo| <= K < B/2, so v/B rounds to p_hi and v - B*p_hi
                # is p_lo; every step is exact in float32.
                hi_lane = his[slot, : prod.shape[0]]
                np.multiply(prod, 1.0 / base, out=hi_lane)
                np.rint(hi_lane, out=hi_lane)
                top = max(0, min(hi, pairs) - lo)
                np.greater_equal(
                    hi_lane[: top * pixels], bound,
                    out=out[half + lo : half + lo + top].reshape(-1, oc),
                )
                np.multiply(hi_lane, base, out=hi_lane)
                np.subtract(prod, hi_lane, out=prod)
                np.greater_equal(prod, bound, out=out[lo:hi].reshape(-1, oc))

            self._run_tiles(packed_tile, half, group)
            return out

        return run, ("map", oh, ow, oc)

    def _pool_op(self, stage, state: tuple):
        _, h, w, c = state
        win, s = stage.window, stage.stride
        oh = (h - win) // s + 1
        ow = (w - win) // s + 1
        if oh <= 0 or ow <= 0:
            return None, state
        out_buf = self._buffer((self.micro_batch, oh, ow, c), self._dtype)
        offsets = [(dy, dx) for dy in range(win) for dx in range(win)]

        def run(x: np.ndarray) -> np.ndarray:
            out = out_buf[: x.shape[0]]
            # max over {0, 1} is FINN's boolean OR; one strided binary
            # ufunc per window offset keeps the inner loop on 4-d views.
            views = [
                x[:, dy : dy + s * (oh - 1) + 1 : s, dx : dx + s * (ow - 1) + 1 : s]
                for dy, dx in offsets
            ]
            if len(views) == 1:
                out[...] = views[0]
                return out
            np.maximum(views[0], views[1], out=out)
            for view in views[2:]:
                np.maximum(out, view, out=out)
            return out

        return run, ("map", oh, ow, c)

    def _dense_op(self, stage, state: tuple):
        nb, dtype, od = self.micro_batch, self._dtype, stage.out_features
        if state[0] == "map":
            _, h, w, c = state
            features = h * w * c
            weight_t = _hwc_weight_t(stage.weight_matrix, c, h, w)
        else:
            features = state[1]
            weight_t = stage.weight_matrix.T
        if features != stage.fan_in:
            return None, state
        prod_buf = self._buffer((nb, od), dtype)

        if stage.thresholds is not None:
            weight_t, bound = _fold_threshold(weight_t, stage.thresholds, dtype)
            out_buf = self._buffer((nb, od), dtype)

            def run(x: np.ndarray) -> np.ndarray:
                n = x.shape[0]
                prod, out = prod_buf[:n], out_buf[:n]
                np.matmul(x.reshape(n, features), weight_t, out=prod)
                np.greater_equal(prod, bound, out=out)
                return out

            return run, ("rows", od)

        weight_t = np.ascontiguousarray(weight_t, dtype=dtype)
        weight_sum = stage.weight_matrix.sum(axis=1)
        out_buf = self._buffer((nb, od), np.float64)

        def run_affine(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            prod, out = prod_buf[:n], out_buf[:n]
            np.matmul(x.reshape(n, features), weight_t, out=prod)
            # Back to the ±1 accumulator, dot = 2p - sw (exact integers).
            np.multiply(prod, 2.0, out=out)
            np.subtract(out, weight_sum, out=out)
            if stage.output_scale is not None:
                np.multiply(out, stage.output_scale, out=out)
                np.add(out, stage.output_offset, out=out)
            return out

        return run_affine, None

    def _suffix_op(self, i: int, state: tuple | None):
        """Stage *i* through the uncompiled code path.

        The first suffix stage packs the incoming 0/1 plane (once, at the
        boundary); later ones receive whatever the previous stage emitted.
        """
        stage, emit, backend = self.stages[i], self.emit[i], self.backend
        kind = state[0] if state is not None else None

        def run(x):
            if kind == "map":
                x = PackedMaps(np.packbits(x != 0, axis=3), state[3])
            elif kind == "rows":
                x = PackedRows(np.packbits(x != 0, axis=1), state[1])
            return _run_stage(stage, x, emit, backend)

        return run

    # -- runtime ------------------------------------------------------------

    def _run_tiles(self, tile, n: int, group: int) -> None:
        """Call ``tile(slot, lo, hi)`` for every image group of the chunk.

        Tiles with the same slot never run concurrently (a slot owns one
        plane/product buffer pair).
        """
        bounds = [(lo, min(lo + group, n)) for lo in range(0, n, group)]
        workers = min(self._threads, len(bounds))
        if workers <= 1:
            for lo, hi in bounds:
                tile(0, lo, hi)
            return
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._threads, thread_name_prefix="repro-bnn-plan"
            )

        def run_slot(slot: int) -> None:
            for lo, hi in bounds[slot::workers]:
                tile(slot, lo, hi)

        # list() reads every result, so a worker's exception surfaces here.
        list(self._executor.map(run_slot, range(workers)))

    def _run_chunk(self, x):
        for label, op in zip(self.labels, self._ops):
            with obs.trace_span("bnn." + label, category="bnn"):
                x = op(x)
        return x

    def forward(self, images: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Raw output scores, bit-identical to the uncompiled forward.

        ``batch_size`` is accepted for signature compatibility but must
        match the plan's ``micro_batch`` when given — chunking is part of
        the compiled layout (and of the bit-identity contract).
        """
        if batch_size is not None and int(batch_size) != self.micro_batch:
            raise ValueError(
                f"plan compiled for micro_batch={self.micro_batch}, "
                f"got batch_size={batch_size}; recompile instead"
            )
        images = np.asarray(images)
        if images.ndim != 4:
            raise ValueError(f"expected NCHW images, got shape {images.shape}")
        with obs.trace_span(
            "bnn.plan.forward", category="bnn",
            images=int(images.shape[0]), micro_batch=self.micro_batch,
        ):
            if self._geometry != images.shape[1:]:
                with obs.trace_span("bnn.plan.compile", category="bnn"):
                    self._compile(images.shape[1:])
            result: np.ndarray | None = None
            for start in range(0, images.shape[0], self.micro_batch):
                out = np.asarray(self._run_chunk(images[start : start + self.micro_batch]))
                if result is None:
                    result = np.empty(
                        (images.shape[0],) + out.shape[1:], dtype=out.dtype
                    )
                # Copy out of the reused buffer before the next chunk
                # overwrites it.
                result[start : start + out.shape[0]] = out
            if result is None:
                raise ValueError("cannot run inference on an empty batch")
        return result

    def class_scores(self, images: np.ndarray) -> np.ndarray:
        """Scores truncated to the real classes (FINN pads the last layer)."""
        return self.forward(images)[:, : self.folded.num_classes]

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.class_scores(images).argmax(axis=1)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        return self.forward(images)
