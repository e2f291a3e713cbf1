"""Binary-kernel backends for folded BNN inference.

Two bit-exact implementations of the packed {-1, +1} matrix product:

* ``reference`` — the chunked uint8 XOR + popcount datapath, the oracle
  every other path is tested against;
* ``bitplane``  — bit-planes through BLAS GEMM: the 0/1 activation
  plane against a ±1 float32 weight plane
  (``dot = 2*(a01 @ (2*w01 - 1).T) + n - 2*rowsum(w)``); the default.

Which one runs is fixed when the network is built
(:class:`repro.bnn.FoldedBNN` ``backend=``), and it matters only to
:meth:`~repro.bnn.FoldedBNN.forward_uncompiled` and to the compiled
plan's non-fused suffix stages: fused plan stages call no kernel backend
(:mod:`repro.bnn.plan`).  The one threading knob is the plan's
``threads=``.
"""

from .base import BinaryKernel, available_cpus
from .bitplane import BitplaneGemmKernel
from .reference import ReferenceXnorKernel

__all__ = [
    "BinaryKernel",
    "ReferenceXnorKernel",
    "BitplaneGemmKernel",
    "get_kernel",
    "available_backends",
    "available_cpus",
]

_KERNELS = {kernel.name: kernel for kernel in (ReferenceXnorKernel(), BitplaneGemmKernel())}

# -- Legacy spellings: kept only for the frozen end-to-end benchmark. --------
# benchmarks/e2e/config.json pins the backend "threaded@1", and
# benchmarks/e2e/layers.py imports clear_selection_cache() and builds a
# plan with backend="auto".  Both names run the serial bitplane plan they
# ran before the threaded kernel and run-time kernel selection were
# removed, so no measured number moves.  Delete this block (and its test)
# when the benchmark config moves to "bitplane".
_LEGACY_NAMES = {"auto": "bitplane", "threaded@1": "bitplane"}


def clear_selection_cache() -> None:
    """No-op: there is no kernel selection left to forget."""


# -- end of the legacy block -------------------------------------------------


def available_backends() -> tuple[str, ...]:
    """Backend names, reference first."""
    return tuple(_KERNELS)


def get_kernel(name: str) -> BinaryKernel:
    """Look up a backend by name; ``KeyError`` lists the valid names."""
    kernel = _KERNELS.get(_LEGACY_NAMES.get(name, name))
    if kernel is None:
        valid = ", ".join([*_KERNELS, *_LEGACY_NAMES])
        raise KeyError(f"unknown binary-kernel backend {name!r}; valid: {valid}")
    return kernel
