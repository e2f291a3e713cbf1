"""Post-training 2/4/8-bit quantized inference engines (ladder rungs).

The precision ladder (``docs/LADDER.md``) needs stages *between* the
1-bit BNN and the float host.  :class:`QuantizedEngine` builds them by
post-training uniform quantization of a trained float
:class:`repro.nn.Sequential` — no retraining, same compile idiom as the
float :class:`repro.nn.InferenceEngine` it subclasses (NHWC dataflow,
fused Conv2D+ReLU, preallocated buffers, fixed micro-batches).

Quantization scheme
-------------------
Only the GEMMs are quantized; pooling, LRN, BatchNorm and activations
run in float on the dequantized values (the standard post-training
"fake-quant at the matmuls" shape).  Every convolution stays an im2col
GEMM: the float engine's Winograd step has no integer-exact form.  For
``bits`` ∈ {2, 4, 8} and
``Q = 2^(bits-1) - 1`` (1, 7, 127):

* **Weights** — symmetric per-output-channel: ``w_scale[oc] =
  max|W[:, oc]| / Q`` and ``qW = rint(W / w_scale)`` as int32, computed
  once at compile time from the float64 training weights.
* **Activations** — symmetric per-tensor with a *static* scale frozen by
  :meth:`QuantizedEngine.calibrate`: a float pass over a calibration
  batch records ``max|x|`` of each GEMM's input operand (the im2col
  matrix for convs, the activation matrix for dense layers), then
  ``act_scale = max|x| / Q``.  Deployment quantizes with
  ``q = rint(clip(x / act_scale, -Q, Q))``.
* **Accumulation** — integer: ``acc = qX @ qW`` in int32.  This is
  overflow-safe for the host models: the widest GEMM contraction is a
  few thousand terms, each ``|q| ≤ 127``, so ``|acc| ≲ 10^8 < 2^31``.
* **Dequantization** — ``y = acc * (act_scale * w_scale[oc]) + bias``.

Determinism contract — *stronger* than the float engine
-------------------------------------------------------
Integer matmul is exact, quantization and dequantization are
elementwise, and activation scales are frozen constants, so a
calibrated engine's scores are bit-identical across **any** batch
chunking (not just micro-batch-aligned shards).  Tests assert this;
the fixed ``micro_batch`` is kept only for buffer reuse and to match
the shard boundaries :class:`repro.parallel.ParallelHostRunner` uses.

Accuracy expectations (documented tolerances, asserted by
``tests/nn/test_quantized.py`` on Models A/B/C):

* 8-bit: scores within ~2e-2 relative of the float64 reference
  (asserted at 5e-2) and ≥ 99% argmax preservation;
* 4-bit: degraded scores (~0.3 relative, asserted at 0.5) but high
  argmax preservation even on random-weight nets — measured ≥ 99% on
  Models A/B and ≥ 82% on the deeper Model C (asserted at 95%/75%);
  trained nets with real decision margins sit higher.  This is the
  useful middle-rung operating point of the worked example in
  ``docs/LADDER.md``;
* 2-bit: anything goes score-wise; it exists to make the *routing*
  ladder testable with a genuinely weak cheap stage.
"""

from __future__ import annotations

import numpy as np

from .infer import InferenceEngine, _conv_operands, _ConvStep, _DenseStep
from .layers.conv import Conv2D
from .layers.dense import Dense

__all__ = ["QuantizedEngine", "SUPPORTED_BITS"]

SUPPORTED_BITS = (2, 4, 8)


def _weight_qparams(wmat: np.ndarray, qmax: int):
    """Symmetric per-output-channel quantization of a (K, out) GEMM matrix."""
    w64 = wmat.astype(np.float64)
    maxabs = np.abs(w64).max(axis=0)
    w_scale = np.where(maxabs > 0.0, maxabs / qmax, 1.0)
    qw = np.rint(w64 / w_scale).astype(np.int32)
    return qw, w_scale


def _quantized_gemm(step, x, bufs, dt):
    """``dequant(rint(clip(x / s)) @ qW)`` with every operand preallocated."""
    rows, width = x.shape[0], step.qw.shape[1]
    qf = bufs.get((step.idx, "qf"), x.shape, dt)
    np.multiply(x, step.inv_act_scale, out=qf)
    np.clip(qf, -step.qmax, step.qmax, out=qf)
    np.rint(qf, out=qf)
    qi = bufs.get((step.idx, "qi"), x.shape, np.int32)
    qi[...] = qf
    acc = bufs.get((step.idx, "acc"), (rows, width), np.int32)
    np.matmul(qi, step.qw, out=acc)
    out = bufs.get((step.idx, "out"), (rows, width), dt)
    np.multiply(acc, step.deq_scale, out=out)
    return out


def _observe(step, x) -> None:
    if x.size:
        step.cal_maxabs = max(step.cal_maxabs, float(np.abs(x).max()))


def _freeze(step) -> None:
    step.act_scale = step.cal_maxabs / step.qmax if step.cal_maxabs > 0.0 else 1.0
    step.inv_act_scale = 1.0 / step.act_scale
    step.deq_scale = step.act_scale * step.w_scale  # (out,) float64


class _QConvStep(_ConvStep):
    """Conv GEMM with int32 accumulation; float path while calibrating."""

    __slots__ = ("qw", "w_scale", "qmax", "act_scale", "cal_maxabs",
                 "inv_act_scale", "deq_scale")

    def __init__(self, idx, k, stride, pad, wmat, bias, fuse_relu, qmax):
        super().__init__(idx, k, stride, pad, wmat, bias, fuse_relu)
        self.qmax = int(qmax)
        self.qw, self.w_scale = _weight_qparams(wmat, qmax)
        self.act_scale = None
        self.cal_maxabs = 0.0

    def _gemm(self, cols, bufs, dt):
        if self.act_scale is None:  # calibration: float GEMM, record range
            _observe(self, cols)
            return super()._gemm(cols, bufs, dt)
        return _quantized_gemm(self, cols, bufs, dt)


class _QDenseStep(_DenseStep):
    """Dense GEMM with int32 accumulation; float path while calibrating."""

    __slots__ = ("qw", "w_scale", "qmax", "act_scale", "cal_maxabs",
                 "inv_act_scale", "deq_scale")

    def __init__(self, idx, wmat, bias, qmax):
        super().__init__(idx, wmat, bias)
        self.qmax = int(qmax)
        self.qw, self.w_scale = _weight_qparams(wmat, qmax)
        self.act_scale = None
        self.cal_maxabs = 0.0

    def _gemm(self, a, bufs, dt):
        if self.act_scale is None:
            _observe(self, a)
            return super()._gemm(a, bufs, dt)
        return _quantized_gemm(self, a, bufs, dt)


class QuantizedEngine(InferenceEngine):
    """Compiled ``bits``-bit post-training-quantized forward.

    Parameters
    ----------
    net:
        Trained float :class:`repro.nn.Sequential` (weights snapshotted
        at construction, like the float engine).
    bits:
        GEMM operand width — one of :data:`SUPPORTED_BITS`.
    calibration_images:
        Optional batch handed straight to :meth:`calibrate`.  Without
        it the engine refuses to predict until calibrated — static
        activation scales are part of the deployed artifact.
    dtype / micro_batch:
        As on :class:`repro.nn.InferenceEngine` (dequantized activation
        precision and the chunk size; see module docstring for why the
        quantized engine is chunking-invariant anyway).
    """

    def __init__(self, net, bits: int = 8, calibration_images=None,
                 dtype=np.float32, micro_batch: int = 16):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
        # _compile (called by the parent constructor) reads these.
        self.bits = int(bits)
        self.qmax = 2 ** (bits - 1) - 1
        self._calibrated = False
        self._in_calibration = False
        super().__init__(net, dtype=dtype, micro_batch=micro_batch)
        self.name = f"{self.name}-int{bits}"
        if calibration_images is not None:
            self.calibrate(calibration_images)

    def _compile_layer(self, idx, layer, fuse_relu):
        if isinstance(layer, Conv2D):
            return _QConvStep(idx, layer.kernel_size, layer.stride, layer.pad,
                              *_conv_operands(layer, self.dtype), fuse_relu, self.qmax)
        if isinstance(layer, Dense):
            base = super()._compile_layer(idx, layer, fuse_relu)
            return _QDenseStep(idx, base.wmat, base.bias, self.qmax)
        return super()._compile_layer(idx, layer, fuse_relu)

    def _gemm_steps(self):
        return [s for s in self._steps if isinstance(s, (_QConvStep, _QDenseStep))]

    def calibrate(self, images: np.ndarray) -> "QuantizedEngine":
        """Freeze static activation scales from one float pass over *images*.

        Re-calibrating replaces the previous scales entirely.  Returns
        ``self`` so ``compile_quantized(...).calibrate(batch)`` chains.
        """
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        if images.shape[0] == 0:
            raise ValueError("calibration needs at least one image")
        for step in self._gemm_steps():
            step.act_scale = None
            step.cal_maxabs = 0.0
        self._calibrated = False
        self._in_calibration = True
        try:
            super().predict_scores(images)
        finally:
            self._in_calibration = False
        for step in self._gemm_steps():
            _freeze(step)
        self._calibrated = True
        return self

    def predict_scores(self, images: np.ndarray) -> np.ndarray:
        if not self._calibrated and not self._in_calibration:
            raise RuntimeError(
                "QuantizedEngine is uncalibrated: pass calibration_images at "
                "construction or call calibrate(batch) before predicting"
            )
        return super().predict_scores(images)

    def activation_scales(self) -> dict[int, float]:
        """``{step_index: act_scale}`` of the frozen calibration (for docs/tests)."""
        if not self._calibrated:
            raise RuntimeError("engine is not calibrated")
        return {s.idx: float(s.act_scale) for s in self._gemm_steps()}
