"""Kernel-backend spellings, kept only for the frozen end-to-end benchmark.

The compiled plan (:mod:`repro.bnn.plan`) is the only BNN executor, so
there are no kernel backends left to choose between.  This package is
the marked legacy block below and nothing else.
"""

# -- Legacy spellings: kept only for the frozen end-to-end benchmark. --------
# benchmarks/e2e/config.json pins the backend "threaded@1", and
# benchmarks/e2e/layers.py imports clear_selection_cache() and builds a
# plan with backend="auto".  fold_network(backend=) accepts these names
# (and None / "bitplane") and none of them changes anything, so no
# measured number moves.  Delete this package (and fold_network's
# backend= argument) when the benchmark stops naming a backend.
_LEGACY_BACKENDS = ("bitplane", "auto", "threaded@1")


def check_backend(name: str | None) -> None:
    """Reject a backend name the benchmark never used (``KeyError``)."""
    if name is not None and name not in _LEGACY_BACKENDS:
        valid = ", ".join(_LEGACY_BACKENDS)
        raise KeyError(f"unknown binary-kernel backend {name!r}; valid: {valid}")


def clear_selection_cache() -> None:
    """No-op: there is no kernel selection left to forget."""


# -- end of the legacy block -------------------------------------------------
