"""Decision-Making Unit (Section III-B).

The DMU estimates, per image, whether the BNN classification succeeded.
Per the paper it is a trained single Softmax/logistic layer: "every
inference by the trained single-layer Softmax function consists of ten
floating-point multiplications and their sum, a bias addition, and
application of a Sigmoid positive transfer function."

Trained on the BNN's scores over the *training* set labelled with
success/failure, thresholded at deployment to trade accuracy against the
host re-inference rate.

In the N-stage precision ladder (``docs/LADDER.md``,
:mod:`repro.core.ladder`) every rung but the last carries one of these
units: rung ``i``'s DMU decides accept-vs-forward, its flag rate is the
per-hop forward ratio ``r_i`` of Eq. (1'), and the 2-stage quantities
below are the ``i = 0`` specialization (``rerun_ratio`` = ``r_0``,
``rerun_err_ratio`` = ``R_err_1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.score_dataset import ScoreDataset
from ..nn import BinaryCrossEntropy, Dense, SGD, Sequential
from ..nn import functional as F

__all__ = ["DMUCategories", "DecisionMakingUnit", "train_dmu", "threshold_sweep"]


@dataclass(frozen=True)
class DMUCategories:
    """The paper's four image categories, as fractions of the total.

    * ``fs``         (FS):   BNN correct,   DMU accepts  — FINN's net contribution.
    * ``fbar_sbar``  (F̄S̄): BNN incorrect, DMU flags    — useful reruns.
    * ``fbar_s``     (F̄S):  BNN incorrect, DMU accepts  — caps achievable accuracy.
    * ``f_sbar``     (FS̄):  BNN correct,   DMU flags    — wasted reruns.
    """

    fs: float
    fbar_sbar: float
    fbar_s: float
    f_sbar: float
    threshold: float

    def __post_init__(self):
        total = self.fs + self.fbar_sbar + self.fbar_s + self.f_sbar
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"category fractions must sum to 1, got {total}")

    @property
    def dmu_accuracy(self) -> float:
        """Softmax-layer accuracy = FS + F̄S̄ (paper Section III-B)."""
        return self.fs + self.fbar_sbar

    @property
    def rerun_ratio(self) -> float:
        """R_rerun of Eq. (1): fraction of images sent to the host.

        In ladder notation this is the stage's forward ratio ``r_i`` —
        the fraction of *its own arrivals* the DMU sends up one rung.
        """
        return self.fbar_sbar + self.f_sbar

    @property
    def rerun_err_ratio(self) -> float:
        """R_rerun_err of Eq. (2): correctly-classified images rerun anyway.

        The per-hop wasted-forward term ``R_err_{i+1}`` of Eq. (2N).
        """
        return self.f_sbar

    @property
    def max_achievable_accuracy(self) -> float:
        """1 - F̄S: the multi-precision accuracy cap (perfect host)."""
        return 1.0 - self.fbar_s


class DecisionMakingUnit:
    """Trained logistic confidence layer over the BNN's 10 class scores.

    The deployed arithmetic is exactly what the paper costs out — ten
    multiplications, a sum, a bias addition and a sigmoid.  The score
    vector is pre-sorted descending (``sort_inputs=True``, the default)
    so the unit is permutation-invariant over classes: correctness signal
    lives in the *shape* of the score distribution (winning margin), not
    in which class won.  Sorting costs nothing material next to the BNN
    inference and keeps the unit a single trainable linear layer.
    """

    def __init__(
        self,
        weights: np.ndarray,
        bias: float,
        threshold: float = 0.84,
        sort_inputs: bool = True,
    ):
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.ndim != 1:
            raise ValueError("weights must be 1-D")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.weights = weights
        self.bias = float(bias)
        self.threshold = float(threshold)
        self.sort_inputs = bool(sort_inputs)

    @classmethod
    def margin(cls, threshold: float, hop: int = 0) -> "DecisionMakingUnit":
        """Untrained unit reading one sorted-score margin of 10 class scores.

        Confidence is ``sigmoid(4 * (s[2*hop] - s[2*hop + 1]))`` over the
        descending-sorted scores ``s``: hop 0 reads the winning margin
        (top-1 minus top-2).  The margin is continuous, so some threshold
        realizes every forward ratio in (0, 1) — what the oracle-cascade
        harnesses (``docs/API.md``, :mod:`repro.serve.oracle`) need from a
        DMU.  Hop *k* of a ladder reads positions ``(2k, 2k + 1)``, a pair
        no other hop reads.
        """
        weights = np.zeros(10)
        weights[2 * hop], weights[2 * hop + 1] = 4.0, -4.0
        return cls(weights, bias=0.0, threshold=threshold)

    @property
    def num_inputs(self) -> int:
        return int(self.weights.shape[0])

    def _features(self, scores: np.ndarray) -> np.ndarray:
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if scores.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} scores per image, got {scores.shape[1]}"
            )
        if self.sort_inputs:
            return -np.sort(-scores, axis=1)
        return scores

    def confidence(self, scores: np.ndarray) -> np.ndarray:
        """P(BNN correct) for each score row — the Softmax estimate."""
        return F.sigmoid(self._features(scores) @ self.weights + self.bias)

    def accept(self, scores: np.ndarray, threshold: float | None = None) -> np.ndarray:
        """True where the BNN result is accepted (no host rerun)."""
        thr = self.threshold if threshold is None else threshold
        return self.confidence(scores) >= thr

    def flag_for_rerun(self, scores: np.ndarray, threshold: float | None = None) -> np.ndarray:
        """True where the image is sent to the high-accuracy host network."""
        return ~self.accept(scores, threshold)

    def categorize(
        self, dataset: ScoreDataset, threshold: float | None = None
    ) -> DMUCategories:
        """Compute the FS / F̄S̄ / F̄S / FS̄ fractions on a score dataset."""
        thr = self.threshold if threshold is None else threshold
        if len(dataset) == 0:
            raise ValueError("cannot categorize an empty dataset")
        accepted = self.accept(dataset.scores, thr)
        correct = dataset.correct.astype(bool)
        n = len(dataset)
        return DMUCategories(
            fs=float((correct & accepted).sum()) / n,
            fbar_sbar=float((~correct & ~accepted).sum()) / n,
            fbar_s=float((~correct & accepted).sum()) / n,
            f_sbar=float((correct & ~accepted).sum()) / n,
            threshold=thr,
        )


def train_dmu(
    dataset: ScoreDataset,
    epochs: int = 60,
    lr: float = 0.05,
    batch_size: int = 128,
    threshold: float = 0.84,
    rng: np.random.Generator | None = None,
) -> DecisionMakingUnit:
    """Train the logistic confidence layer on BNN training-set scores.

    Mirrors the paper's procedure: "we executed the FINN classification on
    CIFAR-10 training dataset and created a new dataset composed of the
    FINN output scores and its identification result ... used to train a
    Softmax layer with the 10 scores used as the input and the single
    identification result as the label."
    """
    if len(dataset) == 0:
        raise ValueError("cannot train a DMU on an empty dataset")
    rng = rng or np.random.default_rng(0)
    num_inputs = dataset.scores.shape[1]
    features = -np.sort(-dataset.scores, axis=1)

    # Standardize features for stable optimization, then fold the affine
    # standardization back into the deployed weights.
    mean = features.mean(axis=0)
    std = features.std(axis=0) + 1e-8
    x = (features - mean) / std
    y = dataset.correct

    net = Sequential([Dense(num_inputs, 1, rng=rng)])
    loss = BinaryCrossEntropy()
    opt = SGD(net.params(), lr=lr, momentum=0.9)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            opt.zero_grad()
            logits = net.forward(x[idx])
            loss.forward(logits, y[idx])
            net.backward(loss.backward())
            opt.step()

    dense = net[0]
    w_std = dense.weight.value.reshape(-1)
    b_std = float(dense.bias.value[0])
    weights = w_std / std
    bias = b_std - float((w_std * mean / std).sum())
    return DecisionMakingUnit(weights, bias, threshold)


def threshold_sweep(
    dmu: DecisionMakingUnit,
    dataset: ScoreDataset,
    thresholds: np.ndarray | None = None,
) -> list[DMUCategories]:
    """Fig. 5: category fractions across a threshold range (default 0.5-1)."""
    if thresholds is None:
        thresholds = np.arange(0.5, 1.0001, 0.05)
    return [dmu.categorize(dataset, float(t)) for t in thresholds]
