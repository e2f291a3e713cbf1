"""The compiled BNN plan: the one executor of a :class:`FoldedBNN`.

:meth:`repro.bnn.FoldedBNN.compile_inference` returns a
:class:`CompiledBNNPlan` — the BNN-side counterpart of
:meth:`repro.nn.Sequential.compile_inference` — and
:meth:`FoldedBNN.forward` always runs one.  FINN's bit-packed XNOR-popcount
words are the hardware's wire format, the wrong one for BLAS, so the plan
carries activations as **0/1 float planes** (NHWC maps, ``(n, features)``
rows) from the first threshold to the last layer:

* **conv1** (real-valued input) copies the chunk into a float64 input
  buffer, gathers its im2col plane transposed, ``(C, k, k, n, OH, OW)``,
  in one strided copy whose runs are ``OW`` contiguous floats, runs a
  float64 GEMM that takes the plane as a transposed operand (same dgemm,
  same ``(c, kh, kw)`` K order, so the accumulator is the row layout's
  bit for bit), and thresholds the accumulator straight into a 0/1 map —
  one compare, written through ``out=``.  CNV at scale 0.25, one core:
  0.086 → 0.054 ms at batch 1 and 3.8 → 3.2 ms per 32-image chunk,
  against ``np.take`` into ``(n·OH·OW, K)`` rows and a per-channel bound.
* **every later binary stage** is three passes: gather ``k·C``-float
  runs of the map into an im2col plane, one GEMM against
  compile-time-folded weights, one ``prod >= bound`` compare written into
  the next map.  No ``*2``, no ``+c``, no sign flip, no pack, no unpack.
  Every conv's bound is a compile-time (OH, OW, OC) table, so the compare
  over an image's contiguous products is one long inner loop rather than
  one OC-long loop per pixel (at batch 1 the compare costs about half).
* **padded binary convs** zero-pad the 0/1 map.  The training network
  pads its ±1 maps with 0, so a pad tap adds nothing to the dot product:
  ``dot = 2p − sw_valid(pos)``, where ``sw_valid`` sums only the weights
  on real pixels.  The folded bound then differs by output position;
  interior positions hold the unpadded bound.
* **two images per lane**: a binary conv of fan-in K fed a chunk of
  n >= 2 images packs its two halves into one plane, ``x[:⌈n/2⌉] +
  B·x[⌈n/2⌉:]`` with B the smallest power of two >= 2K + 2 (FINN packs
  many binary operands into one wide datapath word; a float32 mantissa
  holds two).  One GEMM over half the rows returns ``v = p_lo + B·p_hi``
  for both images at once; since ``|p| <= K < B/2``, ``rint(v/B)`` is
  ``p_hi`` and ``v − B·p_hi`` is ``p_lo``, and both compare against the
  unchanged bound.  Every partial sum is an integer of magnitude <=
  ``(B + 1)·K``, so the lanes are exact when that stays below 2²⁴ —
  checked at compile time (:func:`_lane_base`); a stage that fails it
  and a float64 plan run unpacked.  CNV at scale 0.25 (K = 144…576),
  batch 32, one core: conv2 0.098 → 0.066 ms/img, conv3 0.028 → 0.020,
  conv4 0.034 → 0.022, the plan 0.26 → 0.19–0.21.
* **half-image lanes**: a one-image chunk has no partner image, so a
  stage whose one-image plane reaches ``_SPLIT_PLANE_BYTES`` packs the
  image's top and bottom output rows instead, ``x[rows_top] +
  B·x[rows_bottom]``.  Each half reads ``(rows − 1)·s + k`` input rows
  (the slabs overlap by ``k − s``), a shorter bottom half leaves its tail
  at hi = 0, and a padded conv compares each half against its own rows
  of the bound table.  The rule is fixed by the stage's geometry: a small
  plane does not repay the packing and decode calls.  CNV at scale 0.25,
  batch 1, one core: conv2 0.116 → 0.081 ms; conv3 and conv4 stay
  unpacked (split, they measured 1.31x and 1.05x slower).
* **max-pool** on 0/1 maps is ``np.maximum`` over window slices (FINN's
  boolean OR).
* **the affine output layer** rescales its handful of popcounts to ±1
  dot products and applies the BatchNorm affine.
* **a float head** (partially-binarised network) maps its 0/1 input back
  to ±1 float64 in the training network's (c, h, w) flatten order and
  runs the float GEMM + bias.  A network that ends in a thresholding
  stage returns its ±1 output the same way (NCHW maps, or rows).

The fold (:func:`_fold_threshold`) is FINN's τ⁺ = (τ + S)/2 in exact
integer algebra.  With ``p = a01·w`` and ``sw = Σw`` the ±1 dot product is
``2p − sw``, so ``dot >= ⌈τ⌉`` iff ``p >= ⌈(⌈τ⌉ + sw)/2⌉``; negative-γ
channels negate their weight column (``−dot >= −⌊τ⌋``), constant (γ = 0)
channels become ``∓inf`` bounds.  Planes are float32 — every product and
partial sum is an integer below ``_F32_EXACT_LIMIT`` — and float64 when a
fan-in reaches that limit.

The plan is a :class:`repro.nn.program.Program` (one compile per input
geometry, one replayed call list per chunk size).  Its views carry
everything that depends on the chunk size n: the ``as_strided`` windows,
the ``[:n]`` slices, the tile bounds and slot assignment, the lane halves
and an odd chunk's unpartnered image, a one-image chunk's row halves, the
decode slices.  A conv stage's gather→GEMM→compare runs over image groups
sized so one im2col tile fits ``_PLANE_TILE_BYTES`` (it is read back by
the GEMM while still cache-resident).  ``threads=`` gives each of up to
that many slots its own call list and maps the lists over the Program's
thread pool; without it the tiles run serially, and integer-exact tiles
make the result independent of the split.  Every foldable topology
compiles; a stage whose input cannot feed it (wrong channel count or
fan-in, a window that does not fit, a stage after the output layer)
raises ``ValueError``.

Bit-identity contract: binary stages are exact integers under any tiling,
and each float GEMM (conv1, a float head) issues the same BLAS call per
chunk, so scores do not depend on ``threads`` and are reproducible for a
fixed ``micro_batch`` (BLAS results may depend on the GEMM's M dimension,
so matched chunking is the stable boundary).  The test suite checks the
plan bit for bit against an XNOR-popcount oracle at matched chunking, and
against the eval-mode training network.

Tracing: one ``bnn.<label>`` span per stage and chunk (``repro trace``
keys its Eqs. (3)-(5) residuals off them) inside ``bnn.plan.forward``,
plus ``bnn.plan.compile``: once per input geometry, and once per chunk
size (``chunk=n``) when its call list is built.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..nn import functional as F
from ..nn.program import Compiler, Program
from .inference import FloatDenseHead, FoldedConv, FoldedDense, FoldedPool
from .thresholding import ChannelThresholds

__all__ = ["CompiledBNNPlan"]

#: Above this fan-in float32 accumulation could round; planes switch to f64.
_F32_EXACT_LIMIT = 1 << 24

#: Budget for one im2col plane tile.  A tile is written by the gather and
#: read back by the GEMM, so it should still be in L2 when BLAS packs it.
_PLANE_TILE_BYTES = 1 << 20

#: Smallest one-image im2col plane (bytes) whose binary conv splits a
#: one-image chunk into two half-image lanes.  Splitting adds five fixed
#: ufunc calls (pack, decode) and saves half the gather and GEMM rows, so
#: it wins only on large planes.  One pinned Xeon CPU, OpenBLAS 0.3.31 on
#: one thread, 3x3 stages at n = 1, split / unpacked stage time: K = 144,
#: 16 channels: 1.25 at 113 KB, 1.02 at 147 KB, 0.96 at 187 KB, 0.69 at
#: 452 KB (CNV conv2); K = 144, 32 channels: 1.31 at 83 KB (CNV conv3),
#: 0.79 at 113 KB; K = 288, 32 channels: 1.05 at 115 KB (CNV conv4), 0.78
#: at 166 KB.  The crossover lies at 113-187 KB; this is its middle.
_SPLIT_PLANE_BYTES = 1 << 17


def _fold_threshold(
    weight_t: np.ndarray,
    thresholds: ChannelThresholds,
    dtype,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a stage's thresholds into its weights: ``(W', bound')``.

    ``weight_t`` is the (K, N) ±1 weight matrix in the plane's column
    order.  For any 0/1 activation row ``a``, ``(a @ W') >= bound'`` is
    the decision ``ChannelThresholds.apply`` takes on the ±1 accumulator
    ``(2a − 1) @ weight_t``, bit for bit.

    ``valid`` (P, K) marks, per output position of a padded conv, the
    columns that are real pixels (1) rather than zero pad (0).  A pad tap
    adds 0 to the ±1 accumulator, which is then ``(2a − 1)·valid @
    weight_t``, and ``bound'`` becomes a (P, N) table.
    """
    k = weight_t.shape[0]
    neg = thresholds.sign < 0
    w = np.where(neg[None, :], -weight_t, weight_t)
    # The accumulator is an integer, so dot >= tau iff dot >= ceil(tau) and
    # dot <= tau iff -dot >= -floor(tau); with dot = 2p - sw either reads
    # p >= (bound_on_dot + sw) / 2, rounded up because p is an integer too.
    # sw sums the weights on real pixels only (pad taps have a = 0).
    dot_bound = np.where(neg, -np.floor(thresholds.tau), np.ceil(thresholds.tau))
    weight_sum = w.sum(axis=0) if valid is None else valid @ w
    bound = np.ceil((dot_bound + weight_sum) / 2.0)
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


def _position_table(bound: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """A conv's bound as a contiguous (OH, OW, OC) table: one per channel
    (OC,) or one per output position (OH·OW, OC).  Compared against an
    image's contiguous products, the compare is one long inner loop
    instead of one OC-long loop per pixel."""
    oc = bound.shape[-1]
    return np.ascontiguousarray(np.broadcast_to(bound, (oh * ow, oc)).reshape(oh, ow, oc))


def _valid_taps(h: int, w: int, k: int, s: int, p: int, c: int) -> np.ndarray:
    """(OH·OW, K·K·C) 0/1: which im2col plane columns of each output
    position are real pixels of an (h, w) map padded by ``p``, in the
    plane's (kh, kw, c) column order."""
    oh, ow = F.conv_output_size(h, k, s, p), F.conv_output_size(w, k, s, p)
    ys = np.arange(oh)[:, None] * s + np.arange(k)[None, :] - p
    xs = np.arange(ow)[:, None] * s + np.arange(k)[None, :] - p
    inside_y, inside_x = (ys >= 0) & (ys < h), (xs >= 0) & (xs < w)
    taps = inside_y[:, None, :, None] & inside_x[None, :, None, :]  # (oh, ow, k, k)
    return np.repeat(taps.reshape(oh * ow, k * k), c, axis=1).astype(np.float64)


def _check_channels(stage: FoldedConv, channels: int) -> None:
    if channels != stage.in_channels:
        raise ValueError(f"conv expects {stage.in_channels} input channels, got {channels}")


def _hwc_weight_t(weight_matrix: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    """(OD, C*H*W) weights in (c, h, w) column order -> (H*W*C, OD)."""
    od = weight_matrix.shape[0]
    return weight_matrix.reshape(od, c, h, w).transpose(2, 3, 1, 0).reshape(h * w * c, od)


class _Compiler(Compiler):
    """The plan's stage compiler: one method per stage kind.

    Each stage method allocates the stage's buffers, sized for
    ``micro_batch``, and returns ``(build, state)``; see
    :class:`repro.nn.program.Compiler`.
    """

    def tiles(self, tile, n: int, group: int) -> list:
        """The calls of every image group of an n-image chunk, ``tile(slot,
        lo, hi)`` each.  Groups with the same slot never run concurrently
        (a slot owns one plane/product buffer pair)."""
        bounds = [(lo, min(lo + group, n)) for lo in range(0, n, group)]
        workers = min(self.threads, len(bounds))
        if workers <= 1:
            return [call for lo, hi in bounds for call in tile(0, lo, hi)]
        slots = [
            [call for lo, hi in bounds[slot::workers] for call in tile(slot, lo, hi)]
            for slot in range(workers)
        ]
        return [self.parallel(slots)]

    def conv_float(self, stage, state: tuple):
        _, c, h, w = state
        _check_channels(stage, c)
        k, s, p = stage.kernel_size, stage.stride, stage.pad
        oh = F.conv_output_size(h, k, s, p)
        ow = F.conv_output_size(w, k, s, p)
        oc, rows = stage.out_channels, self.micro_batch * oh * ow
        weight_t, bound = _fold_float(stage.weight_matrix, stage.thresholds)
        bound, fan_in = _position_table(bound, oh, ow), c * k * k
        # The chunk is copied into this buffer (padded: its interior; the
        # zero border is written here and never again), so every window
        # view below is built once.  Any real dtype widens to float64
        # exactly, as the training network's float GEMM would widen it.
        images = self.buffer((self.micro_batch, c, h + 2 * p, w + 2 * p), np.float64, zero=True)
        # The plane is gathered transposed, (C, k, k, n, OH, OW): one strided
        # copy whose runs are OW contiguous floats, where the (n·OH·OW, K)
        # layout copies 3-float runs.  The GEMM takes it as a transposed
        # operand: the same dgemm over the same (c, kh, kw) K order, so the
        # accumulator is bit for bit the row layout's.
        cols_buf = self.buffer((fan_in * rows,), np.float64)
        acc_buf = self.buffer((rows, oc), np.float64)
        out_buf = self.buffer((self.micro_batch, oh, ow, oc), self.dtype)

        def build(n: int, _x: None):
            m = n * oh * ow
            cols_t = cols_buf[: fan_in * m].reshape(fan_in, m)
            acc, out = acc_buf[:m], out_buf[:n]
            x = images[:n]
            sn, sc, sh, sw = x.strides
            windows = np.lib.stride_tricks.as_strided(
                x, shape=(c, k, k, n, oh, ow),
                strides=(sc, sh, sw, sn, sh * s, sw * s), writeable=False,
            )
            return [
                partial(np.copyto, x[:, :, p : p + h, p : p + w]),
                partial(np.copyto, cols_t.reshape(windows.shape), windows),
                partial(np.matmul, cols_t.T, weight_t, out=acc),
                partial(np.greater_equal, acc.reshape(out.shape), bound, out=out),
            ], out

        return build, ("map", oh, ow, oc)

    def conv_plane(self, stage, state: tuple):
        _, h, w, c = state
        _check_channels(stage, c)
        k, s, p = stage.kernel_size, stage.stride, stage.pad
        oh = F.conv_output_size(h, k, s, p)
        ow = F.conv_output_size(w, k, s, p)
        hp, wp = h + 2 * p, w + 2 * p
        oc, nb, dtype = stage.out_channels, self.micro_batch, self.dtype
        # A padded conv's bound depends on how many taps are real pixels;
        # either way it becomes a (OH, OW, OC) table, broadcast against
        # each image's products.
        valid = _valid_taps(h, w, k, s, p, c) if p else None
        weight_t, bound = _fold_threshold(
            _hwc_weight_t(stage.weight_matrix, c, k, k), stage.thresholds, dtype, valid
        )
        bound = _position_table(bound, oh, ow)
        if p:
            # The zero border is written here and never again: a pad tap
            # is 0 in the plane, in the lanes built from it too.
            padded = self.buffer((nb, hp, wp, c), dtype, zero=True)
        fan_in, run_len, pixels = k * k * c, k * c, oh * ow
        base = _lane_base(fan_in, dtype)
        pair = base is not None and nb >= 2
        # A one-image chunk packs its top and bottom output rows into one
        # lane when the stage is big enough to repay the packing calls.
        split = (
            base is not None and oh >= 2
            and pixels * fan_in * dtype.itemsize >= _SPLIT_PLANE_BYTES
        )
        # Packed images per full chunk: two per lane when packing.
        rows_nb = -(-nb // 2) if pair else nb
        group = min(rows_nb, max(1, _PLANE_TILE_BYTES // (pixels * fan_in * dtype.itemsize)))
        slots = min(self.threads, -(-rows_nb // group))
        planes = self.buffer((slots, group * pixels, fan_in), dtype)
        prods = self.buffer((slots, group * pixels, oc), dtype)
        out_buf = self.buffer((nb, oh, ow, oc), dtype)
        if pair or split:
            lanes_buf = self.buffer((rows_nb, hp, wp, c), dtype)
            his = self.buffer((slots, group * pixels, oc), dtype)

        def gemm(slot: int, x: np.ndarray, rows: int = oh) -> tuple[list, np.ndarray]:
            """gather -> GEMM over the images of *x*, *rows* output rows
            each; the calls and the product rows they write."""
            g = x.shape[0]
            sn, sh, sw, sc = x.strides
            # Row dy of a window is k adjacent pixels: one k*C-float run.
            windows = np.lib.stride_tricks.as_strided(
                x, shape=(g, rows, ow, k, run_len),
                strides=(sn, sh * s, sw * s, sh, sc), writeable=False,
            )
            m = g * rows * ow
            plane, prod = planes[slot, :m], prods[slot, :m]
            return [
                partial(np.copyto, plane.reshape(g, rows, ow, k, run_len), windows),
                partial(np.matmul, plane, weight_t, out=prod),
            ], prod

        def decide(prod: np.ndarray, maps: np.ndarray, rows: slice = slice(None)):
            """Threshold product rows into the 0/1 output maps of their
            images, whose output rows are *rows* of the map."""
            return partial(np.greater_equal, prod.reshape(maps.shape), bound[rows], out=maps)

        def decode(slot: int, prod: np.ndarray, hi_maps: np.ndarray, hi_rows: slice):
            """Split lane products ``v = p_lo + B·p_hi``: decide the hi lane's
            leading rows into *hi_maps*; leave ``p_lo`` in *prod*."""
            # |p_lo| <= K < B/2, so v/B rounds to p_hi and v - B*p_hi is
            # p_lo; every step is exact in float32.
            hi_lane = his[slot, : prod.shape[0]]
            steps = [
                partial(np.multiply, prod, 1.0 / base, out=hi_lane),
                partial(np.rint, hi_lane, out=hi_lane),
            ]
            count = hi_maps.size // oc  # product rows of the hi lane's maps
            if count:
                steps.append(decide(hi_lane[:count], hi_maps, hi_rows))
            return steps + [
                partial(np.multiply, hi_lane, base, out=hi_lane),
                partial(np.subtract, prod, hi_lane, out=prod),
            ]

        def build(n: int, x: np.ndarray):
            out, calls = out_buf[:n], []
            if p:
                calls.append(partial(np.copyto, padded[:n, p : p + h, p : p + w], x))
                x = padded[:n]
            if n == 1 and split:
                return calls + split_image(x, out), out
            if not pair or n < 2:

                def tile(slot: int, lo: int, hi: int) -> list:
                    steps, prod = gemm(slot, x[lo:hi])
                    return steps + [decide(prod, out[lo:hi])]

                return calls + self.tiles(tile, n, group), out
            # Image i shares a lane with image half + i; an odd chunk's
            # middle image has no partner and rides alone (hi lane 0).
            half = -(-n // 2)
            pairs = n - half
            lanes = lanes_buf[:half]
            calls += [
                partial(np.multiply, x[half:], base, out=lanes[:pairs]),
                partial(np.add, lanes[:pairs], x[:pairs], out=lanes[:pairs]),
            ]
            if half > pairs:
                calls.append(partial(np.copyto, lanes[pairs:], x[pairs:half]))

            def packed_tile(slot: int, lo: int, hi: int) -> list:
                steps, prod = gemm(slot, lanes[lo:hi])
                top = out[half + lo : half + max(lo, min(hi, pairs))]
                steps += decode(slot, prod, top, slice(None))
                return steps + [decide(prod, out[lo:hi])]

            return calls + self.tiles(packed_tile, half, group), out

        def split_image(x: np.ndarray, out: np.ndarray) -> list:
            """One image as two half-height lanes: output rows [0, top) in
            the lo lane, [top, oh) in the hi lane.  Each half reads
            ``(rows - 1)·s + k`` input rows, so the slabs overlap by k - s
            rows; a shorter bottom half leaves its tail at hi = 0."""
            top = -(-oh // 2)
            top_in, bottom_in, start = (top - 1) * s + k, (oh - top - 1) * s + k, top * s
            lanes = lanes_buf[:1, :top_in]
            calls = [
                partial(np.multiply, x[:, start : start + bottom_in], base,
                        out=lanes[:, :bottom_in]),
                partial(np.add, lanes[:, :bottom_in], x[:, :bottom_in],
                        out=lanes[:, :bottom_in]),
            ]
            if top_in > bottom_in:
                calls.append(partial(np.copyto, lanes[:, bottom_in:], x[:, bottom_in:top_in]))
            steps, prod = gemm(0, lanes, top)
            steps += decode(0, prod, out[:, top:], slice(top, None))
            return calls + steps + [decide(prod, out[:, :top], slice(None, top))]

        return build, ("map", oh, ow, oc)

    def pool(self, stage, state: tuple):
        _, h, w, c = state
        win, s = stage.window, stage.stride
        oh = F.pool_output_size(h, win, s)
        ow = F.pool_output_size(w, win, s)
        out_buf = self.buffer((self.micro_batch, oh, ow, c), self.dtype)
        offsets = [(dy, dx) for dy in range(win) for dx in range(win)]

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            # max over {0, 1} is FINN's boolean OR; one strided binary
            # ufunc per window offset keeps the inner loop on 4-d views.
            views = [
                x[:, dy : dy + s * (oh - 1) + 1 : s, dx : dx + s * (ow - 1) + 1 : s]
                for dy, dx in offsets
            ]
            if len(views) == 1:
                return [partial(np.copyto, out, views[0])], out
            calls = [partial(np.maximum, views[0], views[1], out=out)]
            calls += [partial(np.maximum, out, view, out=out) for view in views[2:]]
            return calls, out

        return build, ("map", oh, ow, c)

    def dense(self, stage, state: tuple):
        nb, dtype, od = self.micro_batch, self.dtype, stage.out_features
        features = int(np.prod(state[1:]))
        if features != stage.fan_in:
            raise ValueError(f"dense fan-in {stage.fan_in} cannot take {features} features")
        if state[0] == "map":
            _, h, w, c = state
            weight_t = _hwc_weight_t(stage.weight_matrix, c, h, w)
        else:
            weight_t = stage.weight_matrix.T
        prod_buf = self.buffer((nb, od), dtype)

        if stage.thresholds is not None:
            weight_t, bound = _fold_threshold(weight_t, stage.thresholds, dtype)
            out_buf = self.buffer((nb, od), dtype)

            def build(n: int, x: np.ndarray):
                prod, out = prod_buf[:n], out_buf[:n]
                # Stage outputs are C-contiguous [:n] slices: the reshape is a view.
                return [
                    partial(np.matmul, x.reshape(n, features), weight_t, out=prod),
                    partial(np.greater_equal, prod, bound, out=out),
                ], out

            return build, ("rows", od)

        weight_t = np.ascontiguousarray(weight_t, dtype=dtype)
        weight_sum = stage.weight_matrix.sum(axis=1)
        out_buf = self.buffer((nb, od), np.float64)

        def build_affine(n: int, x: np.ndarray):
            prod, out = prod_buf[:n], out_buf[:n]
            calls = [
                partial(np.matmul, x.reshape(n, features), weight_t, out=prod),
                # Back to the ±1 accumulator, dot = 2p - sw (exact integers).
                partial(np.multiply, prod, 2.0, out=out),
                partial(np.subtract, out, weight_sum, out=out),
            ]
            if stage.output_scale is not None:
                calls += [
                    partial(np.multiply, out, stage.output_scale, out=out),
                    partial(np.add, out, stage.output_offset, out=out),
                ]
            return calls, out

        return build_affine, ("scores",)

    def pm1(self, state: tuple):
        """0/1 plane -> float64 ±1 in the training network's layout: NCHW
        maps, ``(n, features)`` rows.  Returns a build."""
        if state[0] == "map":
            _, h, w, c = state
            out_buf = self.buffer((self.micro_batch, c, h, w), np.float64)
            axes = (0, 3, 1, 2)
        else:
            out_buf = self.buffer((self.micro_batch, state[1]), np.float64)
            axes = (0, 1)

        def build(n: int, x: np.ndarray):
            out = out_buf[:n]
            return [
                partial(np.multiply, x.transpose(axes), 2.0, out=out),
                partial(np.subtract, out, 1.0, out=out),
            ], out

        return build

    def head(self, stage, state: tuple):
        """Float head: ±1 features in (c, h, w) flatten order, float64 GEMM + bias."""
        features = int(np.prod(state[1:]))
        if features != stage.weight.shape[0]:
            raise ValueError(
                f"float head fan-in {stage.weight.shape[0]} cannot take {features} features"
            )
        to_pm1 = self.pm1(state)
        out_buf = self.buffer((self.micro_batch, stage.out_features), np.float64)

        def build(n: int, x: np.ndarray):
            calls, pm1 = to_pm1(n, x)
            out = out_buf[:n]
            calls.append(partial(np.matmul, pm1.reshape(n, features), stage.weight, out=out))
            if stage.bias is not None:
                calls.append(partial(np.add, out, stage.bias, out=out))
            return calls, out

        return build, ("scores",)


class CompiledBNNPlan(Program):
    """The compiled :class:`repro.nn.program.Program` of one :class:`FoldedBNN`.

    Build via :meth:`repro.bnn.FoldedBNN.compile_inference`.  One caller
    at a time (see :class:`~repro.nn.program.Program`): the cascade
    server's single BNN worker thread is the intended consumer; give each
    serving thread (or replica) its own plan to run them in parallel.  A
    plan asked for tile threads owns a small thread pool, released with
    the plan.

    Parameters
    ----------
    folded:
        The folded network to compile.
    micro_batch:
        Fixed chunk size the buffers are sized for.  Also the
        bit-stability boundary of the float GEMMs (conv1, a float head).
    threads:
        Thread count for the binary convs' tile loop: ``None`` (serial)
        or >= 1, capped at the CPUs the process may run on.
    """

    prefix = "bnn"

    def __init__(self, folded, micro_batch: int = 64, threads: int | None = None):
        super().__init__(micro_batch, "plan", threads)
        self.folded = folded

    def _compile(self, geometry: tuple):
        """Resolve every stage for a (C, H, W) input.

        ``state`` is the representation flowing into the next stage:
        ``("float", C, H, W)`` images, ``("map", H, W, C)`` / ``("rows",
        features)`` 0/1 planes, or ``("scores",)`` after an output layer.
        A stage its input cannot feed raises ``ValueError``; a network
        that ends on a 0/1 plane returns it as ±1 floats in the training
        network's layout.
        """
        stages = self.folded.stages
        fan_ins = [s.fan_in for s in stages if isinstance(s, (FoldedConv, FoldedDense))]
        compiler = _Compiler(
            self, np.float32 if max(fan_ins, default=0) < _F32_EXACT_LIMIT else np.float64
        )
        compiled: list = []
        state: tuple = ("float",) + tuple(geometry)
        for label, stage in zip(self.folded.stage_labels, stages):
            kind = state[0]
            if isinstance(stage, FoldedConv) and not stage.binary_input and kind == "float":
                method = compiler.conv_float
            elif isinstance(stage, FoldedConv) and stage.binary_input and kind == "map":
                method = compiler.conv_plane
            elif isinstance(stage, FoldedPool) and kind == "map":
                method = compiler.pool
            elif isinstance(stage, FoldedDense) and kind in ("map", "rows"):
                method = compiler.dense
            elif isinstance(stage, FloatDenseHead) and kind in ("map", "rows"):
                method = compiler.head
            else:
                raise ValueError(f"{label} ({type(stage).__name__}) cannot take {kind} input")
            build, state = method(stage, state)
            compiled.append((label, method.__name__, [build]))
        if state[0] != "scores":
            compiled[-1][2].append(compiler.pm1(state))
        return compiled, compiler

    def class_scores(self, images: np.ndarray) -> np.ndarray:
        """Scores truncated to the real classes (FINN pads the last layer)."""
        return self.forward(images)[:, : self.folded.num_classes]

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.class_scores(images).argmax(axis=1)
