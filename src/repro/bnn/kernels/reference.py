"""Reference backend: chunked uint8 XOR + popcount (the seed implementation).

This is the straight software transliteration of the FINN PE datapath
the paper builds on (Sec. II-B): XNOR the packed ±1 operands, popcount,
then ``dot = n - 2 * popcount(xor(a, w))``.  The ``bitplane`` backend and
the compiled plan must match it bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..xnor import xnor_popcount_matmul
from .base import BinaryKernel

__all__ = ["ReferenceXnorKernel"]


class ReferenceXnorKernel(BinaryKernel):
    """Direct FINN arithmetic: ``dot = n - 2 * popcount(xor(a, w))``.

    Materializes a (chunk, N, B) uint8 XOR broadcast per row chunk —
    O(M·N·B) memory traffic with no BLAS — which makes it the ground
    truth the faster datapaths are verified against.
    """

    name = "reference"

    def matmul(self, a_words: np.ndarray, w_prep: np.ndarray, n: int) -> np.ndarray:
        return xnor_popcount_matmul(a_words, w_prep, n)
