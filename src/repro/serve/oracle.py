"""The bench kit: what every sleep-oracle harness is built from.

The oracle cascade is the control experiment for Eq. (1)
(``t_multi = max(t_fp * R_rerun, t_bnn)``): stage costs are *set*, not
measured, so a served interval can be held against the bound exactly.
``serve-bench``, ``serve-load``, ``serve-net`` and the chaos tests all
run it; this module is the one place that says what it is
(``docs/API.md``, "The oracle cascade"):

* **Data** — :func:`oracle_images`: an "image" is already its 10 class
  scores, optionally followed by a label column.
* **Stages** — :class:`OracleStage`: sleep ``seconds_per_image * n``,
  then answer from the rows themselves (the scores, their argmax, the
  label column, or the scores boosted at the label).
* **Confidence** — :meth:`repro.core.DecisionMakingUnit.margin`.

Three harness utilities ride along, because every ``repro <command>``
needs them and nothing else does: :func:`write_report` (the JSON
artifact writer), :func:`pick` (a snapshot's named fields and
properties as a report section) and :func:`check_ranges` (the range
checks behind each ``*Config.__post_init__``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

__all__ = [
    "NUM_CLASSES",
    "ANSWERS",
    "LABEL_BOOST",
    "oracle_images",
    "OracleStage",
    "write_report",
    "pick",
    "check_ranges",
]

NUM_CLASSES = 10

#: What an :class:`OracleStage` can answer with.
ANSWERS = ("scores", "argmax", "label", "boosted")

#: Score added at the label column's class by a ``"boosted"`` stage.
LABEL_BOOST = 1.5


def oracle_images(
    n: int,
    seed: int = 0,
    signal: float = 0.0,
    labelled: bool = False,
    duplicate_fraction: float = 0.0,
) -> np.ndarray:
    """Seeded oracle "images": ``(n, 10)`` class scores, N(0, 1).

    With *labelled* a true label is drawn per row, *signal* is added to
    its class score and the label is appended as an eleventh column, so
    a stage can answer exactly.  *duplicate_fraction* of the rows are
    then overwritten with exact copies of earlier rows, so duplicates
    (mostly) arrive after their first showing and a content-addressed
    cache can win them back.
    """
    rng = np.random.default_rng(seed)
    if labelled:
        labels = rng.integers(0, NUM_CLASSES, size=n)
    images = rng.normal(0.0, 1.0, size=(n, NUM_CLASSES))
    if labelled:
        images[np.arange(n), labels] += signal
        images = np.concatenate([images, labels[:, None].astype(float)], axis=1)
    num_dup = int(round(duplicate_fraction * n))
    if num_dup:
        positions = rng.choice(np.arange(1, n), size=num_dup, replace=False)
        for pos in positions:
            images[pos] = images[rng.integers(0, pos)]
    return images


class OracleStage:
    """One rung of the oracle cascade: sleep, then answer from the rows.

    Sleeps ``seconds_per_image * len(images)`` (0 skips the sleep) and
    answers, per *answer*:

    * ``"scores"``  — the 10 class scores (a scoring rung: BNN, middles);
    * ``"argmax"``  — their argmax (a host with no label column to read);
    * ``"label"``   — the label column (a host that is always right);
    * ``"boosted"`` — the scores with :data:`LABEL_BOOST` added at the
      label's class: a middle rung that refines the cheap stage's answer,
      so most rows sharpen enough for its DMU to accept.

    A module-level class holding two plain attributes, so the ``spawn``
    start method can ship it to :class:`repro.parallel.ParallelHostRunner`
    workers and :class:`repro.net.ProcessReplica` children.
    """

    def __init__(self, seconds_per_image: float = 0.0, answer: str = "scores"):
        if answer not in ANSWERS:
            raise ValueError(f"answer must be one of {ANSWERS}, got {answer!r}")
        self.seconds_per_image = seconds_per_image
        self.answer = answer

    def __call__(self, images: np.ndarray) -> np.ndarray:
        if self.seconds_per_image:
            time.sleep(self.seconds_per_image * len(images))
        images = np.asarray(images)
        scores = images[:, :NUM_CLASSES]
        if self.answer == "scores":
            return scores
        if self.answer == "argmax":
            return scores.argmax(axis=1)
        labels = images[:, NUM_CLASSES].astype(int)
        if self.answer == "label":
            return labels
        scores = scores.copy()
        scores[np.arange(len(scores)), labels] += LABEL_BOOST
        return scores


def write_report(report: dict, path) -> Path:
    """Write a harness report as the JSON artifact format of
    ``benchmarks/results/BENCH_*.json`` (sorted keys, 2-space indent)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def pick(snapshot, *names: str) -> dict:
    """The named fields and properties of *snapshot* as a report section."""
    return {name: getattr(snapshot, name) for name in names}


_RANGES = {
    "positive": (lambda v: v > 0, "must be positive"),
    "at_least_one": (lambda v: v >= 1, "must be >= 1"),
    "non_negative": (lambda v: v >= 0, "must be >= 0"),
    "unit_interval": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
}


def check_ranges(config, **fields_by_range: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless every named field of *config* is in range.

    Keywords are ``positive``, ``at_least_one``, ``non_negative`` and
    ``unit_interval``, each a tuple of field names.  ``None`` (an unset
    optional) passes; a tuple-valued field is checked element by element.
    """
    for kind, names in fields_by_range.items():
        in_range, message = _RANGES[kind]
        for name in names:
            value = getattr(config, name)
            for item in value if isinstance(value, tuple) else (value,):
                if item is not None and not in_range(item):
                    raise ValueError(f"{name} {message}, got {value!r}")
