"""Post-training 2/4/8-bit quantized inference engines (ladder rungs).

The precision ladder (``docs/LADDER.md``) needs stages *between* the
1-bit BNN and the float host.  :class:`QuantizedEngine` builds them by
post-training uniform quantization of a trained float
:class:`repro.nn.Sequential` — no retraining.  It is the float
:class:`repro.nn.InferenceEngine`'s stage compiler with one more GEMM op
(NHWC dataflow, fused Conv2D+ReLU, one compiled
:class:`repro.nn.program.Program`, fixed micro-batches); its spans are
``int<bits>.<label>``.

Quantization scheme
-------------------
Only the GEMMs are quantized; pooling, LRN, BatchNorm and activations
run in float on the dequantized values (the standard post-training
"fake-quant at the matmuls" shape).  Every convolution stays an im2col
GEMM: the float engine's Winograd stage has no integer-exact form.  For
``bits`` ∈ {2, 4, 8} and
``Q = 2^(bits-1) - 1`` (1, 7, 127):

* **Weights** — symmetric per-output-channel: ``w_scale[oc] =
  max|W[:, oc]| / Q`` and ``qW = rint(W / w_scale)`` as int32, computed
  once at construction from the engine's snapshot of the weights.
* **Activations** — symmetric per-tensor with a *static* scale frozen by
  :meth:`QuantizedEngine.calibrate`: it compiles every GEMM as a float
  GEMM preceded by a running ``max|x|`` record of its input operand (the
  im2col matrix for convs, the activation matrix for dense layers), runs
  the calibration batch, freezes ``act_scale = max|x| / Q`` and compiles
  again with the int32 op.  Deployment quantizes with
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

from .infer import InferenceEngine

__all__ = ["QuantizedEngine", "SUPPORTED_BITS"]

SUPPORTED_BITS = (2, 4, 8)


def _weight_qparams(wmat: np.ndarray, qmax: int):
    """Symmetric per-output-channel quantization of a (K, out) GEMM matrix."""
    w64 = wmat.astype(np.float64)
    maxabs = np.abs(w64).max(axis=0)
    w_scale = np.where(maxabs > 0.0, maxabs / qmax, 1.0)
    qw = np.rint(w64 / w_scale).astype(np.int32)
    return qw, w_scale


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

    #: Every conv stays an im2col GEMM: Winograd has no integer-exact form.
    _winograd = False

    def __init__(self, net, bits: int = 8, calibration_images=None,
                 dtype=np.float32, micro_batch: int = 16):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
        self.bits = int(bits)
        self.qmax = 2 ** (bits - 1) - 1
        self.prefix = f"int{self.bits}"
        self._scales: dict[int, float] | None = None  # frozen, by stage index
        self._record: dict[int, float] | None = None  # max|x| while calibrating
        super().__init__(net, dtype=dtype, micro_batch=micro_batch)
        self.name = f"{self.name}-int{bits}"
        for _, _, operands in self._specs:
            if "wmat" in operands:
                operands["qweights"] = _weight_qparams(operands["wmat"], self.qmax)
        if calibration_images is not None:
            self.calibrate(calibration_images)

    def _gemm_op(self) -> str:
        if self._record is not None:
            return "record"
        if self._scales is None:
            raise RuntimeError(
                "QuantizedEngine is uncalibrated: pass calibration_images at "
                "construction or call calibrate(batch) before predicting"
            )
        return "int"

    def calibrate(self, images: np.ndarray) -> "QuantizedEngine":
        """Freeze static activation scales from one float pass over *images*.

        Re-calibrating replaces the previous scales entirely.  Returns
        ``self`` so ``compile_quantized(...).calibrate(batch)`` chains.
        """
        images = self._batch(images)
        if images.shape[0] == 0:
            raise ValueError("calibration needs at least one image")
        with self._lock:
            self._scales, self._geometry = None, None
            self._record = {
                index: 0.0
                for index, (_, _, operands) in enumerate(self._specs)
                if "qweights" in operands
            }
            try:
                self._forward(images)
                self._scales = {
                    index: maxabs / self.qmax if maxabs > 0.0 else 1.0
                    for index, maxabs in self._record.items()
                }
            finally:
                # Either way the next call compiles again: with the int32
                # op, or (calibration failed) refusing as uncalibrated.
                self._record, self._geometry = None, None
        return self

    def activation_scales(self) -> dict[int, float]:
        """``{stage_index: act_scale}`` of the frozen calibration (for docs/tests)."""
        if self._scales is None:
            raise RuntimeError("engine is not calibrated")
        return dict(self._scales)
