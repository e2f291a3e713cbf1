"""Binary-kernel backend interface and registry.

A :class:`BinaryKernel` evaluates the {-1, +1} matrix product over
bit-packed operands:

* activations ``a_words``: (M, B) uint8, one row per receptive field;
* weights prepared once per layer via :meth:`BinaryKernel.prepare` from
  the same packed representation;
* ``n``: the number of *valid* bit positions per row.

This is the software stand-in for the paper's FPGA compute fabric: one
``matmul`` call corresponds to what a FINN PE×SIMD engine array does in
``CC`` cycles under Eqs. (3)-(4) (see :mod:`repro.finn`), which is why
the kernel benchmark compares per-layer measured time against that
cycle model (:func:`repro.obs.eq345_layer_residuals`).

The packed layout contract is shared by every backend: bit 1 encodes +1,
bit 0 encodes -1, and any pad position (trailing byte fill or embedded
channel-group padding) is 0 in **both** operands.  Under that contract a
pad position contributes nothing to XOR-popcounts, 0/1 products, or row
popcounts, so every backend computes the exact integer dot product
``sum(a_i * w_i)`` over the ``n`` valid positions — backends are
interchangeable bit-for-bit, and the autotuner may pick freely on speed.

Backend *variants* extend the registry with configured instances of a
registered backend: ``get_kernel("threaded@2")`` asks the ``threaded``
kernel for a 2-thread variant via :meth:`BinaryKernel.variant`.  The
autotuner uses variant names to race thread counts and tile sizes
against each other without registering one global instance per config.
"""

from __future__ import annotations

import abc
import os

import numpy as np

__all__ = [
    "BinaryKernel",
    "register_kernel",
    "get_kernel",
    "available_backends",
    "autotune_candidates",
    "default_backend",
    "available_cpus",
    "ENV_BACKEND",
]

#: Environment variable overriding the backend for every folded network:
#: one of the registered names (optionally with an ``@variant`` suffix),
#: or "auto" for the per-shape autotuner.
ENV_BACKEND = "REPRO_BNN_BACKEND"

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

    #: Registry name; subclasses set it.
    name: str = ""

    #: Whether the autotuner should race this backend by default.  Set
    #: False on backends that lose everywhere (they stay registered and
    #: selectable via ``REPRO_BNN_BACKEND`` / explicit ``backend=``, but
    #: stop burning autotune time).
    autotune: bool = True

    def prepare(self, w_words: np.ndarray, n: int):
        """Fold-time weight preparation; result is passed to :meth:`matmul`.

        The default keeps the packed words as-is.  Backends may unpack,
        widen, or precompute row statistics here — it runs once per
        (layer, backend) while ``matmul`` runs per batch.
        """
        return w_words

    @abc.abstractmethod
    def matmul(
        self, a_words: np.ndarray, w_prep, n: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(M, N) int64 matrix of ±1 dot products over ``n`` valid bits.

        ``out``, when given, is a preallocated C-contiguous (M, N) int64
        array the kernel writes into and returns.  Every backend must
        produce identical bits with or without it.
        """

    def variant(self, spec: str) -> "BinaryKernel":
        """Return a configured instance for ``"<name>@<spec>"`` lookups.

        The base implementation rejects the request; backends with
        tunable knobs (thread count, tile size) override it.  Variants
        share all bit-exactness guarantees with their base backend.
        """
        raise KeyError(f"backend {self.name!r} has no variants (got spec {spec!r})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, BinaryKernel] = {}


def register_kernel(kernel: BinaryKernel) -> BinaryKernel:
    """Add a kernel instance to the registry (last registration wins)."""
    if not kernel.name:
        raise ValueError("kernel must define a non-empty name")
    _REGISTRY[kernel.name] = kernel
    return kernel


def available_backends() -> tuple[str, ...]:
    """Registered backend names, reference first."""
    names = sorted(_REGISTRY)
    if "reference" in names:
        names.remove("reference")
        names.insert(0, "reference")
    return tuple(names)


def autotune_candidates() -> tuple[str, ...]:
    """Backends the autotuner races by default (``autotune=True`` only)."""
    return tuple(n for n in available_backends() if _REGISTRY[n].autotune)


def get_kernel(name: str) -> BinaryKernel:
    """Look up a backend by registry name, or a ``base@spec`` variant."""
    kernel = _REGISTRY.get(name)
    if kernel is not None:
        return kernel
    base, sep, spec = name.partition("@")
    if sep and base in _REGISTRY:
        return _REGISTRY[base].variant(spec)
    raise KeyError(
        f"unknown binary-kernel backend {name!r}; "
        f"available: {', '.join(available_backends())}"
    ) from None


def default_backend() -> str:
    """Session default: the ``REPRO_BNN_BACKEND`` override, else "auto".

    Read per call (not cached) so tests and long-lived servers can switch
    via the environment.
    """
    name = os.environ.get(ENV_BACKEND, "").strip()
    if not name:
        return "auto"
    if name != "auto":
        try:
            get_kernel(name)  # validates plain names and @variants alike
        except KeyError:
            raise KeyError(
                f"{ENV_BACKEND}={name!r} does not name a backend; "
                f"available: auto, {', '.join(available_backends())}"
            ) from None
    return name
