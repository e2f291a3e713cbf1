"""One deadline shared by the steps of a bounded ``close(timeout)``."""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["time_left"]


def time_left(timeout: float | None) -> Callable[[], float | None]:
    """Seconds left of one *timeout* that starts now (``None``: unbounded).

    A ``close(timeout)`` that joins several things shares one deadline
    between them, on the real clock (an injected clock may stand still).
    """
    end = None if timeout is None else time.monotonic() + timeout
    return lambda: None if end is None else max(0.0, end - time.monotonic())
