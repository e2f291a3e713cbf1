"""The paper's contribution: the multi-precision CNN framework.

* :mod:`repro.core.dmu` — the trainable Softmax/logistic Decision-Making
  Unit and the FS/F̄S̄/F̄S/FS̄ taxonomy (Section III-B, Fig. 5, Table II).
* :mod:`repro.core.analytic` — Eqs. (1) and (2) plus their N-stage
  generalizations Eq. (1N)/(2N) (``docs/LADDER.md``).
* :mod:`repro.core.pipeline` — the 2-stage BNN + DMU + float cascade.
* :mod:`repro.core.ladder` — the N-stage precision ladder the cascade
  is a special case of (per-stage DMUs, static threshold routing).
"""

from .ascii_chart import line_chart
from .calibration import CalibrationReport, ReliabilityBin, auroc, calibration_report
from .analytic import (
    MultiPrecisionEstimate,
    estimate,
    ladder_accuracy,
    ladder_interval,
    ladder_reach_fractions,
    multi_precision_accuracy,
    multi_precision_interval,
)
from .dmu import DecisionMakingUnit, DMUCategories, threshold_sweep, train_dmu
from .ladder import LadderResult, LadderStage, PrecisionLadder
from .pipeline import CascadeResult, MultiPrecisionPipeline
from .report import format_percent, format_rate, render_table

__all__ = [
    "line_chart",
    "CalibrationReport",
    "ReliabilityBin",
    "auroc",
    "calibration_report",
    "DecisionMakingUnit",
    "DMUCategories",
    "train_dmu",
    "threshold_sweep",
    "multi_precision_interval",
    "multi_precision_accuracy",
    "MultiPrecisionEstimate",
    "estimate",
    "ladder_reach_fractions",
    "ladder_interval",
    "ladder_accuracy",
    "LadderStage",
    "LadderResult",
    "PrecisionLadder",
    "MultiPrecisionPipeline",
    "CascadeResult",
    "render_table",
    "format_percent",
    "format_rate",
]
