"""Binary-kernel backend contract.

A :class:`BinaryKernel` evaluates the {-1, +1} matrix product over
bit-packed operands:

* activations ``a_words``: (M, B) uint8, one row per receptive field;
* weights prepared once per layer via :meth:`BinaryKernel.prepare` from
  the same packed representation;
* ``n``: the number of *valid* bit positions per row.

This is the software stand-in for the paper's FPGA compute fabric: one
``matmul`` call corresponds to what a FINN PE×SIMD engine array does in
``CC`` cycles under Eqs. (3)-(4) (see :mod:`repro.finn`).

The packed layout contract is shared by every backend: bit 1 encodes +1,
bit 0 encodes -1, and any pad position (trailing byte fill or embedded
channel-group padding) is 0 in **both** operands.  Under that contract a
pad position contributes nothing to XOR-popcounts, 0/1 products, or row
popcounts, so every backend computes the exact integer dot product
``sum(a_i * w_i)`` over the ``n`` valid positions — backends are
interchangeable bit-for-bit.
"""

from __future__ import annotations

import abc
import os

import numpy as np

__all__ = ["BinaryKernel", "available_cpus"]

#: Above this fan-in float32 accumulation could round; planes switch to f64.
_F32_EXACT_LIMIT = 1 << 24


def available_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (a pinned process must not size thread pools by the machine),
    else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return max(1, len(getaffinity(0)))
    return os.cpu_count() or 1


class BinaryKernel(abc.ABC):
    """One implementation of the packed {-1, +1} matrix product."""

    #: Table name; subclasses set it.
    name: str = ""

    def prepare(self, w_words: np.ndarray, n: int):
        """Fold-time weight preparation; result is passed to :meth:`matmul`.

        The default keeps the packed words as-is.  Backends may unpack,
        widen, or precompute row statistics here — it runs once per
        (layer, backend) while ``matmul`` runs per batch.
        """
        return w_words

    @abc.abstractmethod
    def matmul(self, a_words: np.ndarray, w_prep, n: int) -> np.ndarray:
        """(M, N) int64 matrix of ±1 dot products over ``n`` valid bits."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
