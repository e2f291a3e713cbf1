"""Bit-plane GEMM backend: the binary dot product through BLAS.

With bit encodings ``a, w`` in {0, 1} of ±1 vectors ``x = 2a - 1`` and
``y = 2w - 1``,

    x . y = 4*(a . w) - 2*sum(a) - 2*sum(w) + n

Substituting ``p' = a . (2w - 1) = 2*(a . w) - sum(a)`` folds the
activation row-sum into the product itself:

    x . y = 2*p' + n - 2*sum(w)

so the whole ±1 matmul is one dense GEMM of the 0/1 activation plane
against a ±1 weight plane plus a per-output-channel constant — routed
through BLAS (cache-blocked, SIMD, multi-threaded) instead of the
reference path's elementwise XOR broadcast, with no per-call popcount.

Exactness: every product is in {-1, 0, +1} and every partial sum is an
integer bounded by ``n``; float32 represents integers exactly up to
2**24, so the result is bit-exact for ``n < 2**24`` (float64 planes are
used beyond that).  Pad bits are 0 in the activation plane, so whatever
the weight plane holds at pad positions contributes nothing, and the
weight row-sum counts set bits (valid positions) only.

Paper anchor: computes the same binary-layer product FINN's PE array
evaluates (Sec. II-B, the workload Eqs. (3)-(4) count cycles for) —
the algebra above is just the fastest numpy route to that result.
"""

from __future__ import annotations

import numpy as np

from ..bitops import popcount_rows
from .base import _F32_EXACT_LIMIT, BinaryKernel

__all__ = ["BitplaneGemmKernel"]

#: Bounds the unpacked activation plane (elements, so ~128 MB of float32).
#: Chunking by a fixed *row* count would split small-K shapes into many
#: undersized GEMMs; bounding by elements keeps each chunk as large as
#: memory allows, which BLAS rewards.
_PLANE_ELEMENTS = 32 * 1024 * 1024


class BitplaneGemmKernel(BinaryKernel):
    """``dot = 2*(a01 @ (2*w01 - 1).T) + n - 2*rowsum(w)`` via GEMM."""

    name = "bitplane"

    def prepare(self, w_words: np.ndarray, n: int):
        dtype = np.float32 if n < _F32_EXACT_LIMIT else np.float64
        plane = np.unpackbits(w_words, axis=1).astype(dtype) * 2.0 - 1.0
        # Transposed once here so every matmul hits a plain (M,K)x(K,N) GEMM.
        correction = n - 2 * popcount_rows(w_words)
        return np.ascontiguousarray(plane.T), correction

    def matmul(self, a_words: np.ndarray, w_prep, n: int) -> np.ndarray:
        w_plane_t, correction = w_prep
        m = a_words.shape[0]
        row_chunk = max(1, _PLANE_ELEMENTS // max(1, a_words.shape[1] * 8))
        out = np.empty((m, w_plane_t.shape[1]), dtype=np.int64)
        for start in range(0, m, row_chunk):
            block = a_words[start : start + row_chunk]
            a_plane = np.unpackbits(block, axis=1).astype(w_plane_t.dtype)
            prod = (a_plane @ w_plane_t).astype(np.int64)
            prod *= 2
            prod += correction[None, :]
            out[start : start + row_chunk] = prod
        return out
