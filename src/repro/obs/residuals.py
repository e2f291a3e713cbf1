"""Predicted-vs-measured residuals for the paper's timing equations.

Two predictions bracket the cascade:

* **Eq. (1)** ``t_multi = max(t_fp * R_rerun, t_bnn)`` predicts the
  *system* interval from the stage times and the realized rerun ratio;
  its N-stage form Eq. (1N) is ``max_i t_i * R_i``.
  :func:`ladder_eq1_residual` reports how far a measured serving run sits
  from that bound (positive residual = slower than predicted, the
  expected direction: Eq. (1) ignores batching quantization, queueing and
  thread scheduling).  It is the one predicted-vs-measured comparator for
  both forms: Eq. (1) is its two-stage call.
* **Eqs. (3)–(5)** (FINN's cycle model) predict *where time goes inside
  the BNN*: at full unfold (P = S = 1) a layer's cycle count is exactly
  its single-bit MAC count — ``OD * K*K*ID * OH * OW`` for conv (Eq. 3),
  ``OD * ID`` for FC (Eq. 4) — and FPS is clock over the pipeline
  maximum (Eq. 5).  Our software kernels share no clock with an FPGA, so
  the comparable quantity is the *share* of time per layer:
  :func:`eq345_layer_residuals` compares each binary layer's predicted
  work fraction against its measured time fraction.  A layer whose
  measured share far exceeds its op share is where the software datapath
  diverges from the hardware cost model (e.g. GEMM shape effects).

Stdlib-only except for :mod:`repro.core.analytic`, which owns the
Eq. (1)/(1N) closed form.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ladder_eq1_residual", "eq345_layer_residuals"]


def ladder_eq1_residual(
    measured_seconds_per_image: float,
    stage_times: Sequence[float],
    forward_ratios: Sequence[float],
    stage_names: Sequence[str] | None = None,
    num_host_workers: int = 1,
) -> dict:
    """Measured ladder interval vs the Eq. (1N) prediction, per stage.

    With reach fractions ``R_i = prod_{j<i} r_j`` the prediction is
    ``max_i t_i * R_i`` (``docs/LADDER.md``), and the per-stage busy terms
    say *which rung* the prediction makes the bottleneck.  The final
    (host) stage time is divided by the worker-pool size, as
    :func:`repro.core.analytic.ladder_interval` does.  Eq. (1) is the
    N = 2 call: ``stage_times=[t_bnn, t_fp]``, ``forward_ratios=[R_rerun]``.
    Returns a JSON-serializable dict with the prediction, the
    measurement, the absolute residual (seconds/image), the relative
    residual (fraction of the prediction) and a ``stages`` list carrying
    each rung's reach, busy seconds/image and share of the predicted
    bound.
    """
    from ..core.analytic import _ladder_busy_terms

    if stage_names is None:
        stage_names = [f"stage{i}" for i in range(len(stage_times))]
    if len(stage_names) != len(stage_times):
        raise ValueError("need one name per stage")
    times, reach, busy = _ladder_busy_terms(stage_times, forward_ratios, num_host_workers)
    predicted = max(busy)
    bottleneck = max(range(len(busy)), key=busy.__getitem__)
    residual = measured_seconds_per_image - predicted
    return {
        "predicted_seconds_per_image": predicted,
        "measured_seconds_per_image": measured_seconds_per_image,
        "residual_seconds_per_image": residual,
        "relative_residual": residual / predicted,
        "bottleneck_stage": stage_names[bottleneck],
        "num_host_workers": num_host_workers,
        "forward_ratios": [float(r) for r in forward_ratios],
        "stages": [
            {
                "name": name,
                "t_image": t,
                "reach_fraction": w,
                "busy_seconds_per_image": b,
                "share_of_bound": b / predicted if predicted > 0 else 0.0,
            }
            for name, t, w, b in zip(stage_names, times, reach, busy)
        ],
    }


def eq345_layer_residuals(layers: list[dict]) -> list[dict]:
    """Per-layer predicted work share (Eqs. 3–4) vs measured time share.

    Each input dict describes one binary layer:

    * ``label`` — layer name (``conv2`` ... ``fc3``);
    * ``rows_per_image`` — output pixels OH*OW (1 for FC);
    * ``n_out`` — output channels/features OD;
    * ``n_bits`` — fan-in K*K*ID (conv) or ID (fc);
    * ``measured_seconds`` — measured time of the layer's matmul.

    ``n_out * n_bits * rows_per_image`` is the Eq. (3)/(4) cycle count at
    P = S = 1, so the predicted fraction is each layer's share of total
    single-bit MAC work.  Returns one dict per layer with both fractions
    and the residual (measured − predicted), plus the op count feeding
    Eq. (5)'s ``FPS = clock / max(CC)`` bottleneck argument.
    """
    for layer in layers:
        for key in ("label", "rows_per_image", "n_out", "n_bits", "measured_seconds"):
            if key not in layer:
                raise ValueError(f"layer entry missing {key!r}: {layer}")
        if layer["measured_seconds"] < 0:
            raise ValueError("measured_seconds must be >= 0")
    total_ops = sum(l["n_out"] * l["n_bits"] * l["rows_per_image"] for l in layers)
    total_seconds = sum(l["measured_seconds"] for l in layers)
    if total_ops <= 0 or total_seconds <= 0:
        raise ValueError("need positive total work and total measured time")
    out = []
    for layer in layers:
        ops = layer["n_out"] * layer["n_bits"] * layer["rows_per_image"]
        predicted = ops / total_ops
        measured = layer["measured_seconds"] / total_seconds
        out.append(
            {
                "label": layer["label"],
                "ops": ops,
                "predicted_fraction": predicted,
                "measured_fraction": measured,
                "residual_fraction": measured - predicted,
                "measured_seconds": layer["measured_seconds"],
            }
        )
    return out
