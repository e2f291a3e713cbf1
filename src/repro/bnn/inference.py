"""Folded BNN inference — the functional model of FINN's datapath.

:func:`fold_network` converts a *trained* binarized Sequential (built from
``BinaryConv2D``/``BinaryDense`` + ``BatchNorm`` + ``BinaryActivation`` +
``MaxPool2D``/``Flatten`` layers) into a :class:`FoldedBNN` that runs the
deployment arithmetic:

* first layer: real-valued inputs times {-1,+1} weights ("regular
  operations" in the paper), thresholded to {-1,+1};
* inner layers: binary matrix products followed by integer threshold
  comparison;
* last layer: binary accumulation with *no* activation — the raw class
  scores, to which the trained BatchNorm affine is applied so scores
  keep the scale the DMU was trained on (or a full-precision ``Dense``
  head, for a partially-binarised network).

The stages (:class:`FoldedConv`, :class:`FoldedDense`,
:class:`FoldedPool`, :class:`FloatDenseHead`) are plain weight/threshold
records.  There is one executor: :meth:`FoldedBNN.forward` runs a
:class:`~repro.bnn.plan.CompiledBNNPlan`, which carries 0/1 float planes
between stages with the thresholds folded into the weights
(:mod:`repro.bnn.plan`).  A padded binary conv pads with 0 in ±1 terms,
exactly as the training network does, so a pad tap adds nothing to a dot
product.  The bit-packed XNOR-popcount form of the same arithmetic —
FINN's wire format — lives in the test suite as the oracle the plan is
checked against, bit for bit.

The folded network's scores equal the eval-mode training network's
(verified by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers.batchnorm import BatchNorm
from ..nn.layers.dense import Dense
from ..nn.layers.flatten import Flatten
from ..nn.layers.pool import MaxPool2D
from ..nn.network import Sequential
from . import kernels
from .layers import BinaryActivation, BinaryConv2D, BinaryDense
from .thresholding import ChannelThresholds, fold_batchnorm

__all__ = [
    "FoldedConv",
    "FoldedDense",
    "FoldedPool",
    "FloatDenseHead",
    "FoldedBNN",
    "fold_network",
]


@dataclass
class FoldedConv:
    """A convolution engine: binary weights + thresholds."""

    weight_matrix: np.ndarray  # (OD, ID*K*K) in {-1,+1}, (c, kh, kw) columns
    kernel_size: int
    stride: int
    pad: int
    in_channels: int
    thresholds: ChannelThresholds
    binary_input: bool

    @property
    def out_channels(self) -> int:
        return int(self.weight_matrix.shape[0])

    @property
    def fan_in(self) -> int:
        return int(self.weight_matrix.shape[1])


@dataclass
class FoldedDense:
    """A fully-connected engine: binary weights + thresholds or affine out."""

    weight_matrix: np.ndarray  # (OD, ID) in {-1,+1}
    thresholds: ChannelThresholds | None
    output_scale: np.ndarray | None = None   # affine applied when not thresholding
    output_offset: np.ndarray | None = None

    @property
    def out_features(self) -> int:
        return int(self.weight_matrix.shape[0])

    @property
    def fan_in(self) -> int:
        return int(self.weight_matrix.shape[1])


@dataclass
class FoldedPool:
    """Max pooling over {-1,+1} maps — a boolean OR in FINN hardware."""

    window: int
    stride: int


@dataclass
class FloatDenseHead:
    """Full-precision output layer of a *partially-binarised* network.

    The paper (Section II) notes FINN's non-binarised operations "can also
    be extended to handle inputs and outputs in inner layers resulting in
    a partially-binarised network".  This stage is a regular float affine
    layer over the binarized features — the common arrangement where only
    the classifier head keeps full precision.
    """

    weight: np.ndarray            # (ID, OD) float
    bias: np.ndarray | None

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ValueError("weight must be (in, out)")
        if self.bias is not None and self.bias.shape != (self.weight.shape[1],):
            raise ValueError("bias shape mismatch")

    @property
    def out_features(self) -> int:
        return int(self.weight.shape[1])


class FoldedBNN:
    """Deployment-form binarized network (the FPGA's functional model).

    Parameters
    ----------
    stages:
        Engine list produced by :func:`fold_network` (or deserialized).
    num_classes:
        True class count (FINN pads the last layer).
    """

    def __init__(self, stages: list, num_classes: int = 10):
        if not stages:
            raise ValueError("folded network needs at least one stage")
        self.stages = stages
        self.num_classes = num_classes
        self._span_names: list[str] | None = None
        self._compiled: dict[int, object] = {}

    def compile_inference(self, micro_batch: int = 64, threads: int | None = None):
        """Preplan the dataflow end-to-end; see :mod:`repro.bnn.plan`.

        Returns a :class:`~repro.bnn.plan.CompiledBNNPlan` that carries 0/1
        float planes between stages in preallocated buffers, thresholds
        folded into the weights at compile time.  ``threads`` (``None`` or
        >= 1) maps the binary convs' tile loop over that many threads.
        """
        from .plan import CompiledBNNPlan

        return CompiledBNNPlan(self, micro_batch=micro_batch, threads=threads)

    def _auto_plan(self, batch_size: int):
        """The cached plan :meth:`forward` runs for ``batch_size`` chunks."""
        plan = self._compiled.get(batch_size)
        if plan is None:
            plan = self.compile_inference(micro_batch=batch_size)
            if len(self._compiled) >= 2:
                # Callers alternating batch sizes get at most two live
                # buffer sets; anything older is dropped.
                self._compiled.pop(next(iter(self._compiled)))
            self._compiled[batch_size] = plan
        return plan

    @property
    def stage_labels(self) -> list[str]:
        """CNV-style names per stage: ``conv1..convN``, ``pool1..``, ``fc1..``.

        Matches the paper's Table I engine naming for the standard CNV
        topology, so traced per-layer spans (``bnn.conv2`` ...) line up
        with the Eq. (3)-(5) cycle-model predictions layer for layer.
        """
        if self._span_names is None:
            counts = {"conv": 0, "fc": 0, "pool": 0, "head": 0}
            labels = []
            for stage in self.stages:
                if isinstance(stage, FoldedConv):
                    counts["conv"] += 1
                    labels.append(f"conv{counts['conv']}")
                elif isinstance(stage, FoldedDense):
                    counts["fc"] += 1
                    labels.append(f"fc{counts['fc']}")
                elif isinstance(stage, FoldedPool):
                    counts["pool"] += 1
                    labels.append(f"pool{counts['pool']}")
                else:
                    counts["head"] += 1
                    labels.append(f"head{counts['head']}")
            self._span_names = labels
        return self._span_names

    # -- inference -----------------------------------------------------------
    def forward(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Raw output scores (N, out_features of the last engine).

        Runs a cached :class:`~repro.bnn.plan.CompiledBNNPlan` compiled for
        ``batch_size``-image chunks (buffers are reused across calls).
        With a :mod:`repro.obs` tracer installed, every stage emits a
        ``bnn.<label>`` span (see :attr:`stage_labels`).
        """
        return self._auto_plan(batch_size).forward(images)

    def class_scores(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Scores truncated to the real classes (FINN pads the last layer)."""
        return self.forward(images, batch_size)[:, : self.num_classes]

    def predict(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        return self.class_scores(images, batch_size).argmax(axis=1)


def _conv_weight_matrix(layer: BinaryConv2D) -> np.ndarray:
    w = layer.binary_weight  # (OD, ID, K, K)
    return w.reshape(w.shape[0], -1)


def fold_network(
    net: Sequential, num_classes: int = 10, backend: str | None = None
) -> FoldedBNN:
    """Fold a trained binarized Sequential into deployment form.

    Recognized patterns (in order):

    * ``BinaryConv2D, BatchNorm, BinaryActivation`` -> :class:`FoldedConv`
    * ``BinaryDense, BatchNorm, BinaryActivation`` -> :class:`FoldedDense`
    * ``BinaryDense, BatchNorm`` (terminal) -> affine-output FoldedDense
    * ``Dense`` (regular, terminal) -> :class:`FloatDenseHead`
      (partially-binarised network, Section II)
    * ``MaxPool2D`` -> :class:`FoldedPool`
    * ``Flatten`` -> implicit (the plan flattens in the training order)

    ``backend`` is accepted only in the spellings of
    :mod:`repro.bnn.kernels` and changes nothing.
    """
    kernels.check_backend(backend)
    stages: list = []
    layers = list(net.layers)
    i = 0
    first_conv = True
    while i < len(layers):
        layer = layers[i]
        if isinstance(layer, BinaryConv2D):
            bn, act = _expect_bn_act(layers, i, layer)
            stages.append(
                FoldedConv(
                    weight_matrix=_conv_weight_matrix(layer),
                    kernel_size=layer.kernel_size,
                    stride=layer.stride,
                    pad=layer.pad,
                    in_channels=layer.in_channels,
                    thresholds=fold_batchnorm(bn),
                    binary_input=not first_conv,
                )
            )
            first_conv = False
            i += 3
        elif isinstance(layer, BinaryDense):
            if i + 2 < len(layers) and isinstance(layers[i + 2], BinaryActivation):
                bn, _ = _expect_bn_act(layers, i, layer)
                stages.append(
                    FoldedDense(layer.binary_weight.T.copy(), fold_batchnorm(bn))
                )
                i += 3
            elif i + 1 < len(layers) and isinstance(layers[i + 1], BatchNorm):
                bn = layers[i + 1]
                std = np.sqrt(bn.running_var.value + bn.eps)
                scale = bn.gamma.value / std
                offset = bn.beta.value - bn.gamma.value * bn.running_mean.value / std
                stages.append(
                    FoldedDense(
                        layer.binary_weight.T.copy(),
                        thresholds=None,
                        output_scale=scale,
                        output_offset=offset,
                    )
                )
                i += 2
            else:
                stages.append(FoldedDense(layer.binary_weight.T.copy(), thresholds=None))
                i += 1
        elif isinstance(layer, MaxPool2D):
            stages.append(FoldedPool(layer.window, layer.stride))
            i += 1
        elif isinstance(layer, Flatten):
            i += 1
        elif isinstance(layer, Dense) and i == len(layers) - 1:
            bias = layer.bias.value.copy() if layer.bias is not None else None
            stages.append(FloatDenseHead(layer.weight.value.copy(), bias))
            i += 1
        else:
            raise TypeError(
                f"fold_network cannot fold layer {type(layer).__name__}; "
                "binarized networks must be built from BinaryConv2D/BinaryDense/"
                "BatchNorm/BinaryActivation/MaxPool2D/Flatten, optionally with "
                "a terminal full-precision Dense head"
            )
    return FoldedBNN(stages, num_classes=num_classes)


def _expect_bn_act(layers, i, layer):
    if i + 2 >= len(layers) or not isinstance(layers[i + 1], BatchNorm) or not isinstance(
        layers[i + 2], BinaryActivation
    ):
        raise TypeError(
            f"{type(layer).__name__} at position {i} must be followed by "
            "BatchNorm and BinaryActivation"
        )
    return layers[i + 1], layers[i + 2]
