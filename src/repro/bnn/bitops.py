"""Portable popcount primitives for bit-packed arrays.

``numpy.bitwise_count`` only exists from NumPy 2.0 while the project
supports ``numpy>=1.24`` (pyproject), so every popcount in the BNN stack
routes through this module: the native ufunc when available, otherwise
lookup tables (8-bit for byte arrays, 16-bit for uint64 words).  The
tables are tiny (256 B / 64 KiB) and built once at import.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAVE_BITWISE_COUNT",
    "LUT8",
    "LUT16",
    "popcount",
    "popcount_rows",
    "popcount_u64",
]

#: True when the native NumPy>=2.0 popcount ufunc is available.  Module
#: state (not a local) so tests can monkeypatch it to exercise the
#: lookup-table fallback on any NumPy.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte bit counts (pure-python init: 256 iterations at import).
LUT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: Per-uint16 bit counts, composed from the byte table.
_IDX16 = np.arange(65536, dtype=np.uint32)
LUT16 = (LUT8[_IDX16 >> 8] + LUT8[_IDX16 & 0xFF]).astype(np.uint8)
del _IDX16


def popcount(words: np.ndarray) -> np.ndarray:
    """Elementwise set-bit count of a uint8 array."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    return LUT8[words]


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Elementwise set-bit count of a uint64 array (result uint8)."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.uint8, copy=False)
    # Four 16-bit lookups per word; the view requires a contiguous last axis.
    v16 = np.ascontiguousarray(words).view(np.uint16)
    counts = LUT16[v16]
    return counts.reshape(*words.shape, 4).sum(axis=-1, dtype=np.uint8)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row total set bits of a packed (M, B) uint8 matrix, as int64."""
    return popcount(words).sum(axis=-1, dtype=np.int64)
