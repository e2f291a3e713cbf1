"""Pluggable binary-kernel backends for folded BNN inference.

Three bit-exact implementations of the packed {-1, +1} matrix product:

* ``reference`` — the original chunked uint8 XOR + popcount datapath;
* ``bitplane``  — bit-planes through BLAS GEMM: the 0/1 activation
  plane against a ±1 float32 weight plane
  (``dot = 2*(a01 @ (2*w01 - 1).T) + n - 2*rowsum(w)``);
* ``threaded``  — the same bitplane algebra, cache-blocked and fanned
  across per-thread output slabs (``threaded@<k>`` variants pin the
  thread count; ``REPRO_BNN_THREADS`` sets the process default).

Backend choice is threaded through :class:`repro.bnn.FoldedBNN`; the
default is ``"auto"``, which microbenchmarks the candidates on each
layer's actual matmul shape (:func:`select_backend`) under a null
tracer with fault injection suspended, and persists its decisions to a
versioned on-disk cache (``REPRO_KERNEL_CACHE``) so warm processes skip
re-benchmarking.  The ``REPRO_BNN_BACKEND`` environment variable
overrides the default for a whole process.
"""

from .base import (
    ENV_BACKEND,
    BinaryKernel,
    autotune_candidates,
    available_backends,
    available_cpus,
    default_backend,
    get_kernel,
    register_kernel,
)
from .bitplane import BitplaneGemmKernel
from .reference import ReferenceXnorKernel
from .select import (
    ENV_CACHE,
    clear_selection_cache,
    select_backend,
    selection_cache,
    selection_cache_path,
)
from .threaded import ENV_THREADS, ThreadedBitplaneKernel, resolve_bnn_threads

__all__ = [
    "BinaryKernel",
    "ReferenceXnorKernel",
    "BitplaneGemmKernel",
    "ThreadedBitplaneKernel",
    "register_kernel",
    "get_kernel",
    "available_backends",
    "available_cpus",
    "autotune_candidates",
    "default_backend",
    "resolve_bnn_threads",
    "select_backend",
    "selection_cache",
    "selection_cache_path",
    "clear_selection_cache",
    "ENV_BACKEND",
    "ENV_THREADS",
    "ENV_CACHE",
]
