"""The multi-precision cascade (functional behaviour).

``MultiPrecisionPipeline`` wires the three components of Fig. 1 together:
the high-throughput BNN classifies every image, the DMU estimates
per-image confidence, and the high-accuracy floating-point network
re-classifies only the flagged subset.  This module computes *what* the
system answers; *when* it answers is the job of :mod:`repro.hetero`
(pipelined timing) and :mod:`repro.core.analytic` (closed forms).

This is the 2-rung special case of the N-stage precision ladder
(:mod:`repro.core.ladder`, ``docs/LADDER.md``): the BNN is rung 0, the
host is the final rung, ``rerun_ratio`` is the single forward ratio
``r_0``, and Eqs. (1)/(2) are Eq. (1N)/(2N) at N=2.  New code that may
ever grow a third stage should target :class:`repro.core.PrecisionLadder`.

It is deliberately *not* implemented on top of ``PrecisionLadder`` or of
:class:`repro.serve.CascadeServer`'s rung table, which both contain it
as their zero-middle-rung case: this class is the offline oracle the
serving tests compare served answers against
(``tests/serve/test_server.py``, ``tests/faults/test_property_faults.py``,
``tests/obs/test_traced_server.py``), and a reference implementation
stays independent of the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..bnn.inference import FoldedBNN
from ..nn import Sequential
from .dmu import DecisionMakingUnit

__all__ = ["CascadeResult", "MultiPrecisionPipeline"]


@dataclass
class CascadeResult:
    """Per-image outcome of one cascade run."""

    predictions: np.ndarray       # final multi-precision predictions
    bnn_predictions: np.ndarray   # what the BNN alone would answer
    confidence: np.ndarray        # DMU confidence per image
    rerun_mask: np.ndarray        # True where the host re-classified
    host_predictions: np.ndarray  # host answers on the rerun subset (compact)

    @property
    def rerun_ratio(self) -> float:
        """R_rerun: fraction of images re-processed on the host."""
        return float(self.rerun_mask.mean()) if self.rerun_mask.size else 0.0

    def accuracy(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        if labels.shape != self.predictions.shape:
            raise ValueError("labels shape mismatch")
        return float((self.predictions == labels).mean()) if labels.size else 0.0

    def bnn_accuracy(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return float((self.bnn_predictions == labels).mean()) if labels.size else 0.0

    def host_subset_accuracy(self, labels: np.ndarray) -> float:
        """Host accuracy on the flagged (hard) subset — Table V's footnote."""
        labels = np.asarray(labels)[self.rerun_mask]
        if labels.size == 0:
            return float("nan")
        return float((self.host_predictions == labels).mean())


class MultiPrecisionPipeline:
    """BNN + DMU + floating-point host network cascade.

    Parameters
    ----------
    bnn:
        Deployment-form binarized network (:class:`repro.bnn.FoldedBNN`).
    dmu:
        Trained confidence unit.
    host_net:
        Floating-point network (:class:`repro.nn.Sequential`) used for
        re-inference of flagged images.
    threshold:
        DMU threshold; defaults to the DMU's own setting.
    """

    def __init__(
        self,
        bnn: FoldedBNN,
        dmu: DecisionMakingUnit,
        host_net: Sequential,
        threshold: float | None = None,
    ):
        self.bnn = bnn
        self.dmu = dmu
        self.host_net = host_net
        self.threshold = dmu.threshold if threshold is None else float(threshold)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")

    def classify(
        self,
        images: np.ndarray,
        bnn_images: np.ndarray | None = None,
        batch_size: int = 128,
    ) -> CascadeResult:
        """Run the full cascade.

        Parameters
        ----------
        images:
            Host-network input images (N, 3, H, W), scaled as the host
            network was trained.
        bnn_images:
            Optionally a differently-scaled copy for the BNN (BinaryNet
            expects [-1, 1] inputs); defaults to ``images``.
        """
        if images.ndim != 4:
            raise ValueError("images must be (N, C, H, W)")
        bnn_in = images if bnn_images is None else bnn_images
        if bnn_in.shape[0] != images.shape[0]:
            raise ValueError("images and bnn_images must align")

        with obs.trace_span("cascade.bnn", images=int(images.shape[0])):
            scores = self.bnn.class_scores(bnn_in, batch_size=batch_size)
        with obs.trace_span("cascade.dmu"):
            bnn_pred = scores.argmax(axis=1)
            confidence = self.dmu.confidence(scores)
            rerun = confidence < self.threshold

        predictions = bnn_pred.copy()
        if rerun.any():
            with obs.trace_span("cascade.host", images=int(rerun.sum())):
                host_pred = self.host_net.predict_classes(images[rerun], batch_size=batch_size)
            predictions[rerun] = host_pred
        else:
            host_pred = np.empty(0, dtype=bnn_pred.dtype)
        obs.count("cascade.rerun", int(rerun.sum()))
        return CascadeResult(
            predictions=predictions,
            bnn_predictions=bnn_pred,
            confidence=confidence,
            rerun_mask=rerun,
            host_predictions=host_pred,
        )
