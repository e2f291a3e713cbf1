"""Folded BNN inference — the functional model of FINN's datapath.

:func:`fold_network` converts a *trained* binarized Sequential (built from
``BinaryConv2D``/``BinaryDense`` + ``BatchNorm`` + ``BinaryActivation`` +
``MaxPool2D``/``Flatten`` layers) into a :class:`FoldedBNN` that runs the
deployment arithmetic:

* first layer: real-valued inputs times {-1,+1} weights ("regular
  operations" in the paper), thresholded to {-1,+1};
* inner layers: bit-packed binary matrix products (a kernel backend,
  :mod:`repro.bnn.kernels`) followed by integer threshold comparison;
* last layer: binary accumulation with *no* activation — the raw class
  scores, to which the trained BatchNorm affine is applied so scores
  keep the scale the DMU was trained on.

Activations stay **bit-packed between stages** (:mod:`repro.bnn.packing`):
thresholds emit packed words directly, convolution unrolling is a packed
byte gather, and max pooling is a bitwise OR — unpacking happens only at
the network boundary, mirroring FINN's on-chip dataflow.  Every stage
still accepts plain ±1 float arrays when called standalone.

The folded network's class decisions are bit-exact equal to the eval-mode
training network (verified by the test suite), independent of the kernel
backend and of whether the packed pipeline is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..nn import functional as F
from ..nn.layers.batchnorm import BatchNorm
from ..nn.layers.dense import Dense
from ..nn.layers.flatten import Flatten
from ..nn.layers.pool import MaxPool2D
from ..nn.network import Sequential
from .kernels import get_kernel
from .layers import BinaryActivation, BinaryConv2D, BinaryDense
from .packing import PackedMaps, PackedRows, conv_weight_words, dense_weight_words_hwc, maxpool_packed
from .thresholding import ChannelThresholds, fold_batchnorm
from .xnor import pack_pm1

__all__ = [
    "FoldedConv",
    "FoldedDense",
    "FoldedPool",
    "FloatDenseHead",
    "FoldedBNN",
    "fold_network",
]

#: The kernel backend a network built with ``backend=None`` uses.
_DEFAULT_BACKEND = "bitplane"


def _kernel_matmul(
    prep_cache: dict,
    weight_words: np.ndarray,
    layout_key: str,
    a_words: np.ndarray,
    n_bits: int,
    backend: str | None,
) -> np.ndarray:
    """Run one backend matmul, caching per-(backend, layout) weight prep."""
    kernel = get_kernel(backend or _DEFAULT_BACKEND)
    key = (kernel.name, layout_key)
    prep = prep_cache.get(key)
    if prep is None:
        prep = kernel.prepare(weight_words, n_bits)
        prep_cache[key] = prep
    if not obs.enabled():
        return kernel.matmul(a_words, prep, n_bits)
    with obs.trace_span(
        "kernel." + kernel.name, category="kernel",
        m=int(a_words.shape[0]), n_out=int(weight_words.shape[0]), n_bits=int(n_bits),
    ):
        return kernel.matmul(a_words, prep, n_bits)


@dataclass
class FoldedConv:
    """A convolution engine: binary weights + thresholds."""

    weight_matrix: np.ndarray  # (OD, ID*K*K) in {-1,+1}
    kernel_size: int
    stride: int
    pad: int
    in_channels: int
    thresholds: ChannelThresholds
    binary_input: bool
    packed_weight: np.ndarray = field(init=False, repr=False)
    fan_in: int = field(init=False)
    _prep_cache: dict = field(init=False, default_factory=dict, repr=False)
    _spatial_weight: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.packed_weight, self.fan_in = pack_pm1(self.weight_matrix, validate=False)

    @property
    def out_channels(self) -> int:
        return int(self.weight_matrix.shape[0])

    def _spatial_weight_words(self) -> np.ndarray:
        if self._spatial_weight is None:
            self._spatial_weight = conv_weight_words(
                self.weight_matrix, self.in_channels, self.kernel_size
            )
        return self._spatial_weight

    def __call__(
        self,
        x: np.ndarray | PackedMaps,
        emit_packed: bool = False,
        backend: str | None = None,
    ) -> np.ndarray | PackedMaps:
        k = self.kernel_size
        if isinstance(x, PackedMaps):
            if not self.binary_input:
                raise TypeError("packed input fed to a real-valued-input engine")
            if self.pad != 0:
                raise ValueError("packed conv path requires pad == 0 (no ±1 zero-pad)")
            if x.channels != self.in_channels:
                raise ValueError(f"expected {self.in_channels} channels, got {x.channels}")
            n = x.batch
            oh = F.conv_output_size(x.height, k, self.stride, 0)
            ow = F.conv_output_size(x.width, k, self.stride, 0)
            rows = F.im2col_packed(x.words, k, k, self.stride)
            acc = _kernel_matmul(
                self._prep_cache, self._spatial_weight_words(), "spatial",
                rows, self.fan_in, backend,
            )
        else:
            n = x.shape[0]
            oh = F.conv_output_size(x.shape[2], k, self.stride, self.pad)
            ow = F.conv_output_size(x.shape[3], k, self.stride, self.pad)
            cols = F.im2col(x, k, k, self.stride, self.pad)
            if self.binary_input:
                packed, bits = pack_pm1(cols, validate=False)
                acc = _kernel_matmul(
                    self._prep_cache, self.packed_weight, "plain",
                    packed, bits, backend,
                )
            else:
                acc = cols @ self.weight_matrix.T
        if emit_packed:
            words = self.thresholds.apply_bits(acc)
            return PackedMaps(words.reshape(n, oh, ow, -1), self.out_channels)
        if acc.dtype != np.float64:
            acc = acc.astype(np.float64)
        acc = acc.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return self.thresholds.apply(acc, channel_axis=1)


@dataclass
class FoldedDense:
    """A fully-connected engine: binary weights + thresholds or affine out."""

    weight_matrix: np.ndarray  # (OD, ID) in {-1,+1}
    thresholds: ChannelThresholds | None
    output_scale: np.ndarray | None = None   # affine applied when not thresholding
    output_offset: np.ndarray | None = None
    packed_weight: np.ndarray = field(init=False, repr=False)
    fan_in: int = field(init=False)
    _prep_cache: dict = field(init=False, default_factory=dict, repr=False)
    _layout_weights: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.packed_weight, self.fan_in = pack_pm1(self.weight_matrix, validate=False)

    @property
    def out_features(self) -> int:
        return int(self.weight_matrix.shape[0])

    def _weights_for_layout(self, layout: tuple | None) -> tuple[np.ndarray, str]:
        if layout is None:
            return self.packed_weight, "plain"
        tag, h, w, c = layout
        if tag != "hwc":
            raise ValueError(f"unsupported input layout {layout!r}")
        words = self._layout_weights.get(layout)
        if words is None:
            words = dense_weight_words_hwc(self.weight_matrix, h, w, c)
            self._layout_weights[layout] = words
        return words, f"hwc:{h}x{w}x{c}"

    def __call__(
        self,
        x: np.ndarray | PackedRows,
        emit_packed: bool = False,
        backend: str | None = None,
    ) -> np.ndarray | PackedRows:
        if isinstance(x, PackedRows):
            if x.n != self.fan_in:
                raise ValueError(f"expected fan-in {self.fan_in}, got {x.n}")
            weight_words, layout_key = self._weights_for_layout(x.layout)
            acc = _kernel_matmul(
                self._prep_cache, weight_words, layout_key,
                x.words, self.fan_in, backend,
            )
        else:
            packed, bits = pack_pm1(x, validate=False)
            acc = _kernel_matmul(
                self._prep_cache, self.packed_weight, "plain",
                packed, bits, backend,
            )
        if self.thresholds is not None:
            if emit_packed:
                return PackedRows(self.thresholds.apply_bits(acc), self.out_features)
            return self.thresholds.apply(acc.astype(np.float64), channel_axis=1)
        acc = acc.astype(np.float64)
        if self.output_scale is not None:
            acc = acc * self.output_scale + self.output_offset
        return acc


@dataclass
class FoldedPool:
    """Max pooling over {-1,+1} maps — a boolean OR in FINN hardware.

    Packed inputs stay packed: pooling is then a literal bitwise OR over
    the window, matching the hardware datapath.  The float fallback keeps
    one :class:`MaxPool2D` for the life of the stage instead of building
    a fresh layer per invocation.
    """

    window: int
    stride: int
    _pool: MaxPool2D = field(init=False, repr=False)

    def __post_init__(self):
        self._pool = MaxPool2D(self.window, self.stride)

    def __call__(self, x: np.ndarray | PackedMaps) -> np.ndarray | PackedMaps:
        if isinstance(x, PackedMaps):
            return maxpool_packed(x, self.window, self.stride)
        # windows().max avoids MaxPool2D.forward's argmax bookkeeping (only
        # needed for backward) and leaves no cache alive between batches.
        return self._pool._windows(x).max(axis=(4, 5))


@dataclass
class FloatDenseHead:
    """Full-precision output layer of a *partially-binarised* network.

    The paper (Section II) notes FINN's non-binarised operations "can also
    be extended to handle inputs and outputs in inner layers resulting in
    a partially-binarised network".  This stage runs a regular float
    affine layer over the binarized features — the common arrangement
    where only the classifier head keeps full precision.
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

    def __call__(self, x: np.ndarray | PackedRows) -> np.ndarray:
        if isinstance(x, PackedRows):
            x = x.to_pm1()  # network boundary: back to full precision
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


def _run_stage(stage, x, emit_packed: bool, backend: str | None):
    """One uncompiled stage call, with the implicit Flatten before a
    dense engine (shared by ``forward_uncompiled`` and the compiled
    plan's non-fused suffix)."""
    if isinstance(stage, (FoldedDense, FloatDenseHead)):
        if isinstance(x, PackedMaps):
            x = x.flatten_rows()
        elif isinstance(x, np.ndarray) and x.ndim == 4:
            x = x.reshape(x.shape[0], -1)
    if isinstance(stage, (FoldedConv, FoldedDense)):
        return stage(x, emit_packed=emit_packed, backend=backend)
    return stage(x)


class FoldedBNN:
    """Deployment-form binarized network (the FPGA's functional model).

    Parameters
    ----------
    stages:
        Engine list produced by :func:`fold_network` (or deserialized).
    num_classes:
        True class count (FINN pads the last layer).
    backend:
        Binary-kernel backend of the uncompiled datapath and of the
        compiled plan's non-fused suffix stages: ``"reference"`` or
        ``"bitplane"`` (``None``, the default, means ``"bitplane"``).  An
        unknown name raises ``KeyError`` here.  Both are bit-exact, so
        this never changes a score.
    packed:
        Keep activations bit-packed between stages (default).  ``False``
        forces the float ±1 representation everywhere — same results,
        used for equivalence testing.
    """

    def __init__(
        self,
        stages: list,
        num_classes: int = 10,
        backend: str | None = None,
        packed: bool = True,
    ):
        if not stages:
            raise ValueError("folded network needs at least one stage")
        self.stages = stages
        self.num_classes = num_classes
        self.backend = backend or _DEFAULT_BACKEND
        get_kernel(self.backend)  # reject unknown names now
        self.packed = packed
        self._plan: list[bool] | None = None
        self._span_names: list[str] | None = None
        self._compiled: dict[int, object] = {}

    def with_backend(self, backend: str | None) -> "FoldedBNN":
        """Same stages (weight prep caches included), different backend."""
        return FoldedBNN(self.stages, self.num_classes, backend=backend, packed=self.packed)

    # -- compiled plan -------------------------------------------------------
    def compile_inference(
        self,
        micro_batch: int = 64,
        backend: str | None = None,
        threads: int | None = None,
    ):
        """Preplan the dataflow end-to-end; see :mod:`repro.bnn.plan`.

        Returns a :class:`~repro.bnn.plan.CompiledBNNPlan` whose
        ``forward`` is bit-identical to ``self.forward_uncompiled(x,
        batch_size=micro_batch)`` while carrying 0/1 float planes between
        stages in preallocated buffers, thresholds folded into the
        weights at compile time.  ``threads`` (``None`` or >= 1) maps the
        fused stages' tile loop over that many threads.  Raises
        :class:`~repro.bnn.plan.PlanUnsupported` when the network has no
        packed pipeline to compile (``packed=False``).
        """
        from .plan import CompiledBNNPlan

        return CompiledBNNPlan(
            self, micro_batch=micro_batch, backend=backend, threads=threads
        )

    def _auto_plan(self, batch_size: int):
        """Cached plan for ``forward`` (None for ``packed=False`` networks)."""
        if not self.packed:
            return None
        plan = self._compiled.get(batch_size)
        if plan is None:
            plan = self.compile_inference(micro_batch=batch_size)
            if len(self._compiled) >= 2:
                # Callers alternating batch sizes get at most two live
                # buffer sets; anything older is dropped.
                self._compiled.pop(next(iter(self._compiled)))
            self._compiled[batch_size] = plan
        return plan

    # -- packed-pipeline planning -------------------------------------------
    def _consumer_after(self, index: int):
        """Next non-pool stage (pools preserve representation)."""
        for stage in self.stages[index + 1 :]:
            if not isinstance(stage, FoldedPool):
                return stage
        return None

    def _emit_plan(self) -> list[bool]:
        """Which stages should emit packed bits instead of ±1 floats.

        A thresholding stage emits packed output when the next consuming
        stage can take bits: a pad-free binary-input conv, any dense
        engine, or the float head (which unpacks at the boundary).  The
        network output itself is always float.
        """
        if self._plan is None:
            plan = []
            for i, stage in enumerate(self.stages):
                emit = False
                if self.packed and (
                    isinstance(stage, FoldedConv)
                    or (isinstance(stage, FoldedDense) and stage.thresholds is not None)
                ):
                    consumer = self._consumer_after(i)
                    if isinstance(consumer, FoldedConv):
                        emit = consumer.binary_input and consumer.pad == 0
                    elif isinstance(consumer, (FoldedDense, FloatDenseHead)):
                        emit = True
                plan.append(emit)
            self._plan = plan
        return self._plan

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

        Packed networks always route through a cached
        :class:`~repro.bnn.plan.CompiledBNNPlan` (bit-identical,
        buffer-reusing); ``packed=False`` networks run
        :meth:`forward_uncompiled`.

        With a :mod:`repro.obs` tracer installed, every stage emits a
        ``bnn.<label>`` span (see :attr:`stage_labels`); without one the
        per-stage overhead is a single global read.
        """
        compiled = self._auto_plan(batch_size)
        if compiled is not None:
            return compiled.forward(images)
        return self.forward_uncompiled(images, batch_size)

    def forward_uncompiled(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """The per-call (no preplanned buffers) datapath — the reference
        the compiled plan is verified against bit-for-bit, and the path of
        ``packed=False`` networks."""
        plan = self._emit_plan()
        labels = self.stage_labels
        outputs = []
        for start in range(0, images.shape[0], batch_size):
            x: np.ndarray | PackedMaps | PackedRows = images[start : start + batch_size]
            for label, stage, emit in zip(labels, self.stages, plan):
                with obs.trace_span("bnn." + label, category="bnn"):
                    x = _run_stage(stage, x, emit, self.backend)
            outputs.append(x)
        return np.concatenate(outputs, axis=0)

    def class_scores(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Scores truncated to the real classes (FINN pads the last layer)."""
        return self.forward(images, batch_size)[:, : self.num_classes]

    def predict(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        return self.class_scores(images, batch_size).argmax(axis=1)


def _conv_weight_matrix(layer: BinaryConv2D) -> np.ndarray:
    w = layer.binary_weight  # (OD, ID, K, K)
    return w.reshape(w.shape[0], -1)


def fold_network(
    net: Sequential,
    num_classes: int = 10,
    backend: str | None = None,
    packed: bool = True,
) -> FoldedBNN:
    """Fold a trained binarized Sequential into deployment form.

    Recognized patterns (in order):

    * ``BinaryConv2D, BatchNorm, BinaryActivation`` -> :class:`FoldedConv`
    * ``BinaryDense, BatchNorm, BinaryActivation`` -> :class:`FoldedDense`
    * ``BinaryDense, BatchNorm`` (terminal) -> affine-output FoldedDense
    * ``Dense`` (regular, terminal) -> :class:`FloatDenseHead`
      (partially-binarised network, Section II)
    * ``MaxPool2D`` -> :class:`FoldedPool`
    * ``Flatten`` -> implicit (handled at runtime)

    ``backend`` and ``packed`` configure the runtime datapath (see
    :class:`FoldedBNN`); they do not affect the folded weights.
    """
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
    return FoldedBNN(stages, num_classes=num_classes, backend=backend, packed=packed)


def _expect_bn_act(layers, i, layer):
    if i + 2 >= len(layers) or not isinstance(layers[i + 1], BatchNorm) or not isinstance(
        layers[i + 2], BinaryActivation
    ):
        raise TypeError(
            f"{type(layer).__name__} at position {i} must be followed by "
            "BatchNorm and BinaryActivation"
        )
    return layers[i + 1], layers[i + 2]
