"""Multi-threaded cache-blocked bitplane GEMM backend.

Same algebra as :class:`~repro.bnn.kernels.bitplane.BitplaneGemmKernel`
(``dot = 2*(a01 @ (2*w01 - 1).T) + n - 2*rowsum(w)``) with three
scheduling upgrades (used by the uncompiled packed pipeline and by the
compiled plan's non-fused suffix stages):

* **Per-thread output slabs.**  The M dimension is split into one
  contiguous row slab per thread; each thread unpacks, multiplies and
  writes only its own ``out[start:stop]`` slice, so threads never share
  a cache line of the output and no reduction/merge step exists.  BLAS
  releases the GIL inside the slab GEMMs, which is where the time goes.
* **Cache blocking.**  Inside a slab, rows are processed in tiles whose
  unpacked activation plane fits the configured element budget, and wide
  outputs are column-tiled so (tile × n_tile) products stay cache-sized.
* **Serial below a threshold.**  Threading only pays above a minimum
  per-thread row count; small shapes (FC layers, tail chunks) stay on
  the single-thread path automatically.  The autotuner races explicit
  ``threaded@<k>`` variants so the *decision* of how many threads a
  given shape deserves is empirical, not guessed.

Exactness: identical to the bitplane backend — every product is in
{-1, 0, +1} and every partial sum is an integer bounded by ``n``
(float32-exact for ``n < 2**24``, float64 planes beyond), so the result
is bit-identical to ``reference`` for *any* tiling, column split, or
thread count.  That invariance is what lets the autotuner and the
``REPRO_BNN_THREADS`` knob vary freely without perturbing decisions
downstream (DMU choices, cascade routing, test goldens).

The activation unpack runs through one fused gather —
``np.take(table, words, axis=0, out=plane)`` against a (256, 8)
byte→bit-plane table — instead of ``unpackbits`` + ``astype``: one pass,
zero allocations, straight into the per-thread scratch buffer.

Paper anchor: the M-dimension slabbing is the software analogue of
replicating FINN PE arrays — throughput scales with compute units while
Eqs. (3)-(5) arithmetic is untouched.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..bitops import popcount_rows
from ...obs import tracer as _tracer
from .base import _F32_EXACT_LIMIT, BinaryKernel, available_cpus, register_kernel

__all__ = ["ThreadedBitplaneKernel", "resolve_bnn_threads", "ENV_THREADS"]

#: Environment variable setting the default thread count for the
#: ``threaded`` backend ("" = auto: min(available CPUs, 8)).
ENV_THREADS = "REPRO_BNN_THREADS"

#: (256, 8) byte -> bit-plane tables, MSB first to match np.unpackbits.
_BYTE_PLANES_U8 = (
    (np.arange(256, dtype=np.uint16)[:, None] >> np.arange(7, -1, -1)[None, :]) & 1
).astype(np.uint8)
_BYTE_PLANES = {
    np.dtype(np.float32): _BYTE_PLANES_U8.astype(np.float32),
    np.dtype(np.float64): _BYTE_PLANES_U8.astype(np.float64),
}


def resolve_bnn_threads(threads: int | None = None) -> int:
    """Thread-count policy: explicit arg > ``REPRO_BNN_THREADS`` > auto.

    Auto is ``min(available_cpus(), 8)`` — the affinity count, so a pinned
    process does not fan out over CPUs it cannot use; beyond 8 the
    unpack+GEMM per slab is memory-bound and extra threads only fight
    over bandwidth.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(ENV_THREADS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{ENV_THREADS}={env!r} is not an integer") from None
    return min(available_cpus(), 8)


class ThreadedBitplaneKernel(BinaryKernel):
    """Cache-blocked bitplane GEMM with per-thread output slabs."""

    name = "threaded"

    def __init__(
        self,
        threads: int | None = None,
        row_tile: int | None = None,
        col_tile: int = 4096,
        min_rows_per_thread: int = 2048,
        plane_elements: int = 4 * 1024 * 1024,
    ):
        # threads=None re-reads REPRO_BNN_THREADS on every call so a
        # long-lived server can be retuned without rebuilding plans;
        # autotuner variants pin an explicit count.
        self.threads = threads
        # row_tile=None sizes tiles from the plane-element budget (a
        # ~16 MB float32 scratch per thread by default — L2/L3 friendly).
        self.row_tile = row_tile
        self.col_tile = int(col_tile)
        self.min_rows_per_thread = int(min_rows_per_thread)
        self.plane_elements = int(plane_elements)
        self._scratch = threading.local()
        self._pool_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        self._variants: dict[str, ThreadedBitplaneKernel] = {}

    # -- registry variants ------------------------------------------------

    def variant(self, spec: str) -> "ThreadedBitplaneKernel":
        """``threaded@<threads>`` or ``threaded@<threads>:<row_tile>``."""
        cached = self._variants.get(spec)
        if cached is not None:
            return cached
        try:
            threads_part, _, tile_part = spec.partition(":")
            threads = max(1, int(threads_part))
            row_tile = int(tile_part) if tile_part else None
        except ValueError:
            raise KeyError(
                f"bad threaded variant {spec!r}; expected '<threads>' or "
                "'<threads>:<row_tile>', e.g. 'threaded@2' or 'threaded@2:8192'"
            ) from None
        kernel = ThreadedBitplaneKernel(
            threads=threads,
            row_tile=row_tile,
            col_tile=self.col_tile,
            min_rows_per_thread=self.min_rows_per_thread,
            plane_elements=self.plane_elements,
        )
        kernel.name = f"{self.name}@{spec}"
        self._variants[spec] = kernel
        return kernel

    # -- weight preparation ----------------------------------------------

    def prepare(self, w_words: np.ndarray, n: int):
        dtype = np.float32 if n < _F32_EXACT_LIMIT else np.float64
        plane = np.unpackbits(w_words, axis=1).astype(dtype) * 2.0 - 1.0
        correction = (n - 2 * popcount_rows(w_words)).astype(np.int64)
        # Keep the correction in GEMM dtype too: adding it inside the
        # float product is exact (|2p'+c| <= n < 2**24) and saves an
        # int64 pass on the hot path.
        return np.ascontiguousarray(plane.T), correction, correction.astype(dtype)

    # -- scheduling -------------------------------------------------------

    def _effective_threads(self, m: int) -> int:
        threads = resolve_bnn_threads(self.threads)
        # Small shapes stay serial: never spread fewer than
        # min_rows_per_thread rows per worker.
        if self.min_rows_per_thread > 0:
            threads = min(threads, max(1, m // self.min_rows_per_thread))
        return max(1, threads)

    def _row_tile_for(self, k8: int) -> int:
        if self.row_tile is not None:
            return max(1, int(self.row_tile))
        return max(1, self.plane_elements // max(1, k8))

    def _get_pool(self, size: int) -> ThreadPoolExecutor:
        # One lazily-grown pool per kernel instance; thread creation is
        # amortized across calls (a per-call pool would dominate small
        # matmuls).
        with self._pool_lock:
            if self._pool is None or self._pool_size < size:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-bnn-gemm"
                )
                self._pool_size = size
            return self._pool

    def _buffers(self, tile: int, k8: int, n_tile: int, dtype: np.dtype):
        """Per-thread scratch: activation plane + product tile."""
        cache = getattr(self._scratch, "bufs", None)
        if cache is None:
            cache = self._scratch.bufs = {}
        key = (tile, k8, n_tile, dtype)
        bufs = cache.get(key)
        if bufs is None:
            plane = np.empty((tile, k8), dtype=dtype)
            prod = np.empty((tile, n_tile), dtype=dtype)
            bufs = cache[key] = (plane, prod)
        return bufs

    # -- the product ------------------------------------------------------

    def _run_slab(
        self,
        a_words: np.ndarray,
        w_plane_t: np.ndarray,
        corr_f: np.ndarray,
        out: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        dtype = w_plane_t.dtype
        k8 = a_words.shape[1] * 8
        n_out = w_plane_t.shape[1]
        table = _BYTE_PLANES[dtype]
        row_tile = self._row_tile_for(k8)
        col_tile = self.col_tile if n_out > self.col_tile else n_out
        for rs in range(start, stop, row_tile):
            re_ = min(rs + row_tile, stop)
            rows = re_ - rs
            plane_buf, prod_buf = self._buffers(row_tile, k8, col_tile, dtype)
            plane = plane_buf[:rows].reshape(rows, a_words.shape[1], 8)
            # Fused unpack: byte -> 8-wide bit plane, gathered straight
            # into the reusable scratch (bit-order matches unpackbits).
            # Indices are uint8 so they can never exceed 255; mode="clip"
            # skips the bounds-check pass.
            np.take(table, a_words[rs:re_], axis=0, out=plane, mode="clip")
            plane2d = plane_buf[:rows]
            for cs in range(0, n_out, col_tile):
                ce = min(cs + col_tile, n_out)
                prod = prod_buf[:rows, : ce - cs]
                np.matmul(plane2d, w_plane_t[:, cs:ce], out=prod)
                prod *= 2.0
                prod += corr_f[None, cs:ce]
                # Cast-assign into the caller's int64 slab; values are
                # exact integers so the cast is lossless.
                out[rs:re_, cs:ce] = prod

    def _slab_bounds(self, m: int, threads: int) -> list[tuple[int, int]]:
        # Contiguous row slabs, one per thread; bounds cover [0, m).
        base, extra = divmod(m, threads)
        bounds, pos = [], 0
        for i in range(threads):
            step = base + (1 if i < extra else 0)
            bounds.append((pos, pos + step))
            pos += step
        return bounds

    def matmul(
        self, a_words: np.ndarray, w_prep, n: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        w_plane_t, _correction, corr_f = w_prep
        m = a_words.shape[0]
        n_out = w_plane_t.shape[1]
        if out is None:
            out = np.empty((m, n_out), dtype=np.int64)
        threads = self._effective_threads(m)
        if threads <= 1 or m < 2:
            self._run_slab(a_words, w_plane_t, corr_f, out, 0, m)
        else:
            pool = self._get_pool(threads)
            futures = [
                pool.submit(
                    self._run_slab, a_words, w_plane_t, corr_f, out, lo, hi
                )
                for lo, hi in self._slab_bounds(m, threads)
                if hi > lo
            ]
            for future in futures:
                future.result()
        if _tracer.enabled():
            _tracer.gauge("kernel.threads", threads)
        return out


register_kernel(ThreadedBitplaneKernel())
