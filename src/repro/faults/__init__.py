"""Deterministic fault injection for the cascade serving layer.

The paper's heterogeneous cascade (Fig. 1) is a distributed system in
miniature: an FPGA-style fast path, a host recovery path, and queues
between them.  Eq. (1) ``t_multi = max(t_fp * R_rerun, t_bnn)`` is a
statement about that system staying *up* — so this package makes its
failure modes first-class and replayable:

* :mod:`~repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`:
  seeded, JSON-serializable chaos scenarios (per-stage exception /
  latency / hang / corrupt-output faults with probabilities, arming
  windows and budgets).
* :mod:`~repro.faults.inject` — :class:`FaultInjector`: wraps the BNN,
  DMU and host callables; per-stage fault decisions are a pure function
  of ``(seed, stage, call_index)``, logged to a :class:`FaultLog` so any
  run can be replayed bit-for-bit.

The hardened :class:`repro.serve.CascadeServer` (crash-safe workers,
deadlines, retries, circuit breaker) is tested against this package in
``tests/faults``; ``repro serve-bench --fault-plan plan.json`` drives
the load harness through a scenario.  See ``docs/ROBUSTNESS.md``.
"""

from .inject import (
    FaultEvent,
    FaultInjector,
    FaultLog,
    InjectedFault,
    wrap_stack,
)
from .plan import FAULT_KINDS, STAGES, FaultPlan, FaultSpec, load_fault_plan

__all__ = [
    "STAGES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "load_fault_plan",
    "InjectedFault",
    "FaultEvent",
    "FaultLog",
    "FaultInjector",
    "wrap_stack",
]
