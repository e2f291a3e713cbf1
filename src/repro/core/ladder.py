"""N-stage precision ladder — the generalized cascade (``docs/LADDER.md``).

The paper's system is a 2-rung ladder: a BNN answers everything cheap,
a DMU forwards its low-confidence residue to one float host.  CascadeCNN
(PAPERS.md) shows the general form: a *ladder* of precision stages,
each with its own confidence unit, where stage ``i`` answers what it is
sure about and forwards only the residue to stage ``i+1``::

    images ──> stage 0 ──r_0──> stage 1 ──r_1──> ... ──> stage N-1
                 │a_0             │a_1                      │a_{N-1}
                 └answers         └answers                  └answers all

Every image is answered by exactly one stage (the partition invariant
that :meth:`LadderResult.check_partition` enforces), the fraction of
traffic reaching stage ``i`` is ``R_i = prod_{j<i} r_j`` (Eq. (1') in
:mod:`repro.core.analytic`), and the steady-state interval follows
Eq. (1N): ``t_ladder = max_i t_i * R_i``.

This module computes *what* the ladder answers on in-memory batches;
:class:`repro.serve.CascadeServer` runs the same topology as a live
multi-queue service, and :func:`repro.obs.ladder_eq1_residual` checks
measured serving numbers against the Eq. (1N) prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from .dmu import DecisionMakingUnit

__all__ = ["LadderStage", "LadderResult", "PrecisionLadder"]


@dataclass
class LadderStage:
    """One rung: a scoring engine plus (except on the last rung) its DMU.

    Parameters
    ----------
    name:
        Unique stage label, used in metrics/spans (``ladder.<name>``).
    scores_fn:
        ``(n, C, H, W) images -> (n, num_classes) scores``.  Any engine
        with this shape fits: :meth:`repro.bnn.FoldedBNN.class_scores`,
        a :class:`repro.nn.QuantizedEngine`, a float
        :class:`repro.nn.InferenceEngine`, or a plain closure.
    dmu:
        Per-stage confidence unit deciding accept-vs-forward.  Required
        on every rung except the last (which answers unconditionally).
    threshold:
        Override of ``dmu.threshold`` for this rung — the static knob of
        the routing policy.  ``None`` defers to the DMU's own setting.
    """

    name: str
    scores_fn: Callable[[np.ndarray], np.ndarray]
    dmu: DecisionMakingUnit | None = None
    threshold: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")

    @property
    def effective_threshold(self) -> float | None:
        if self.threshold is not None:
            return self.threshold
        return self.dmu.threshold if self.dmu is not None else None


@dataclass
class LadderResult:
    """Per-image outcome of one ladder run (generalizes ``CascadeResult``).

    ``stage_of[k]`` is the index of the rung that answered image ``k``;
    the compact per-stage arrays are ordered by arrival within each rung.
    """

    predictions: np.ndarray            # (n,) final answers
    stage_of: np.ndarray               # (n,) answering stage index
    stage_names: tuple[str, ...]
    arrived: np.ndarray                # (num_stages,) images reaching each rung
    forwarded: np.ndarray              # (num_stages,) images each rung sent up
    confidences: tuple[np.ndarray, ...] = field(default_factory=tuple)
    # ^ one compact array per non-final rung, over that rung's arrivals.

    @property
    def num_stages(self) -> int:
        return len(self.stage_names)

    @property
    def answered(self) -> np.ndarray:
        """Images answered per rung: ``arrived - forwarded``."""
        return self.arrived - self.forwarded

    @property
    def forward_ratios(self) -> list[float]:
        """Measured ``r_i`` per hop: forwarded / arrived (0 if starved)."""
        out = []
        for i in range(self.num_stages - 1):
            a = int(self.arrived[i])
            out.append(int(self.forwarded[i]) / a if a else 0.0)
        return out

    @property
    def reach_fractions(self) -> list[float]:
        """Measured ``R_i`` per rung: arrived / submitted."""
        n = int(self.predictions.shape[0])
        return [int(a) / n if n else 0.0 for a in self.arrived]

    @property
    def rerun_ratio(self) -> float:
        """2-stage compatibility: fraction answered above rung 0."""
        n = int(self.predictions.shape[0])
        return float((self.stage_of > 0).mean()) if n else 0.0

    def check_partition(self) -> None:
        """Every image answered by exactly one rung, books balancing.

        Raises ``ValueError`` if any sample was dropped or duplicated —
        the batch-level form of the serving-books invariant
        ``accepted + Σ rerun_i + degraded + failed == submitted``.
        """
        n = int(self.predictions.shape[0])
        if self.stage_of.shape != (n,):
            raise ValueError("stage_of must align with predictions")
        if int(self.answered.sum()) != n:
            raise ValueError(
                f"partition broken: stages answered {int(self.answered.sum())} "
                f"of {n} images"
            )
        counts = np.bincount(self.stage_of, minlength=self.num_stages)
        if not np.array_equal(counts, self.answered):
            raise ValueError("stage_of disagrees with per-stage answered counts")
        if int(self.forwarded[-1]) != 0:
            raise ValueError("the final rung cannot forward")

    def accuracy(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        if labels.shape != self.predictions.shape:
            raise ValueError("labels shape mismatch")
        return float((self.predictions == labels).mean()) if labels.size else 0.0

    def stage_accuracy(self, labels: np.ndarray, stage: int) -> float:
        """Accuracy on the subset a rung answered (NaN if it answered none)."""
        labels = np.asarray(labels)
        mask = self.stage_of == stage
        if not mask.any():
            return float("nan")
        return float((self.predictions[mask] == labels[mask]).mean())


class PrecisionLadder:
    """Ordered rungs, cheapest first; the last rung answers everything left.

    Every rung except the last needs a DMU.  ``classify`` walks the
    rungs over a shrinking active-index set, so each image is scored by
    every rung up to (and including) the one that answers it — exactly
    the multi-hop topology :class:`repro.serve.CascadeServer` runs live.
    """

    def __init__(self, stages: Sequence[LadderStage]):
        stages = list(stages)
        if len(stages) < 2:
            raise ValueError("a ladder needs at least 2 stages")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        for stage in stages[:-1]:
            if stage.dmu is None:
                raise ValueError(
                    f"stage {stage.name!r} forwards traffic and needs a DMU"
                )
        self.stages = tuple(stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def classify(
        self,
        images: np.ndarray,
        stage_images: Sequence[np.ndarray] | None = None,
    ) -> LadderResult:
        """Run the full ladder over a batch.

        Parameters
        ----------
        images:
            Input batch ``(N, C, H, W)`` fed to every rung by default.
        stage_images:
            Optional per-rung input variants (one array per rung, each
            aligned with ``images`` along axis 0) for engines trained on
            different scalings — the N-stage form of the 2-stage
            pipeline's ``bnn_images`` argument.
        """
        images = np.asarray(images)
        if images.ndim != 4:
            raise ValueError("images must be (N, C, H, W)")
        n = images.shape[0]
        if stage_images is None:
            stage_views: list[np.ndarray] = [images] * self.num_stages
        else:
            stage_views = [np.asarray(a) for a in stage_images]
            if len(stage_views) != self.num_stages:
                raise ValueError("stage_images must have one array per stage")
            if any(a.shape[0] != n for a in stage_views):
                raise ValueError("stage_images must align with images")

        predictions = np.full(n, -1, dtype=np.int64)
        stage_of = np.full(n, -1, dtype=np.int64)
        arrived = np.zeros(self.num_stages, dtype=np.int64)
        forwarded = np.zeros(self.num_stages, dtype=np.int64)
        confidences: list[np.ndarray] = []

        active = np.arange(n)
        for i, stage in enumerate(self.stages):
            arrived[i] = active.shape[0]
            if active.shape[0] == 0:
                if i < self.num_stages - 1:
                    confidences.append(np.empty(0, dtype=np.float64))
                continue
            with obs.trace_span(
                f"ladder.{stage.name}", images=int(active.shape[0]), stage=i
            ):
                scores = np.asarray(stage.scores_fn(stage_views[i][active]))
            preds = scores.argmax(axis=1)
            if i == self.num_stages - 1:
                accept = np.ones(active.shape[0], dtype=bool)
            else:
                conf = np.asarray(stage.dmu.confidence(scores), dtype=np.float64)
                confidences.append(conf)
                accept = conf >= stage.effective_threshold
            answered_idx = active[accept]
            predictions[answered_idx] = preds[accept]
            stage_of[answered_idx] = i
            forwarded[i] = int((~accept).sum())
            obs.count(f"ladder.{stage.name}.forwarded", int(forwarded[i]))
            active = active[~accept]

        result = LadderResult(
            predictions=predictions,
            stage_of=stage_of,
            stage_names=self.stage_names,
            arrived=arrived,
            forwarded=forwarded,
            confidences=tuple(confidences),
        )
        result.check_partition()
        return result
