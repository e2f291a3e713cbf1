"""Per-shape backend autotuning with a persisted selection cache.

Which kernel wins depends on the matmul shape: tall-skinny conv unrollings
amortize the bit-plane GEMM's unpack cost, tiny FC layers may not, and the
relative cost of popcount vs BLAS varies across machines and NumPy builds.
``select_backend`` settles it empirically: microbenchmark every candidate
on synthetic operands of the actual layer shape and cache the winner, so
each folded network pays the (few-ms) tuning cost once per distinct shape
per process — and, with the on-disk cache, once per distinct shape per
*machine*: decisions are persisted to a versioned JSON file keyed by
(machine, python, numpy) so warm processes skip re-benchmarking entirely.

Candidates cover more than backend identity: the ``threaded`` backend is
raced at several explicit thread counts (``threaded@1``, ``threaded@2``,
...), so "how many threads does this shape deserve" is an empirical
per-shape decision — small shapes keep winning with 1 (i.e. stay serial)
while large-M conv unrollings can justify the fan-out on multi-core
machines.

Timing isolation: the microbenchmark loops run under a *null tracer*
and with fault injection *suspended* (:func:`repro.faults.suspend_faults`).
A traced, chaos-wrapped server would otherwise leak span bookkeeping and
injected latency into the timings and tune toward the wrong backend; the
``kernel.autotune`` span itself is still recorded on the tracer that was
active at entry.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

from ...obs.tracer import active as _active_tracer
from .base import autotune_candidates, available_cpus, get_kernel

__all__ = [
    "select_backend",
    "clear_selection_cache",
    "selection_cache",
    "selection_cache_path",
    "ENV_CACHE",
]

#: Environment variable overriding the on-disk cache location.  Set to a
#: path to relocate it, or to "" / "0" / "off" / "none" to disable
#: persistence for the process (in-memory caching still applies).
ENV_CACHE = "REPRO_KERNEL_CACHE"

#: Schema version of the persisted file; any mismatch is a cache miss.
_DISK_VERSION = 1

#: (m_bucket, n_out, n_bits, candidates) -> winning backend name.
_CACHE: dict[tuple, str] = {}

#: Guards _CACHE <-> disk synchronization (selection can race across
#: server stage threads compiling plans concurrently).
_LOCK = threading.RLock()

#: Environment keys already merged from disk into _CACHE this process.
_DISK_LOADED: set[str] = set()

#: Row count used for timing; larger M only amplifies the same per-row work.
_BENCH_ROWS = 128
#: Timing repetitions (after one warmup); best-of is robust to scheduler noise.
_BENCH_REPS = 2


def _bucket_rows(m: int) -> int:
    """Round M up to a power of two so batch-size jitter reuses the cache."""
    m = max(1, int(m))
    return 1 << (m - 1).bit_length()


def _environment_key() -> str:
    """Disk-cache namespace: decisions only transfer within one setup."""
    return "|".join(
        (
            platform.machine() or "unknown",
            f"py{platform.python_version()}",
            f"numpy{np.__version__}",
            f"cpus{available_cpus()}",
        )
    )


def selection_cache_path() -> Path | None:
    """Resolved on-disk cache file, or ``None`` when persistence is off."""
    raw = os.environ.get(ENV_CACHE)
    if raw is not None:
        raw = raw.strip()
        if raw.lower() in ("", "0", "off", "none"):
            return None
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "repro" / "kernel_select.json"


def _shape_key_str(key: tuple) -> str:
    m_bucket, n_out, n_bits, names = key
    return f"{m_bucket}x{n_out}x{n_bits}|{'+'.join(names)}"


def _load_disk(env_key: str) -> None:
    """Merge persisted decisions for *env_key* into the in-memory cache.

    Any unreadable, unparseable, schema-mismatched, or structurally wrong
    file is treated as a cache miss (same contract as the workbench
    cache): autotuning simply runs again and rewrites the file.
    """
    if env_key in _DISK_LOADED:
        return
    _DISK_LOADED.add(env_key)
    path = selection_cache_path()
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("version") != _DISK_VERSION:
            return
        machines = data.get("machines")
        if not isinstance(machines, dict):
            return
        entries = machines.get(env_key, {})
        if not isinstance(entries, dict):
            return
        for shape_str, winner in entries.items():
            if not isinstance(winner, str):
                continue
            try:
                dims, names_str = shape_str.split("|", 1)
                m_bucket, n_out, n_bits = (int(v) for v in dims.split("x"))
                names = tuple(names_str.split("+"))
                get_kernel(winner)  # stale entries for unregistered backends
            except (ValueError, KeyError):
                continue
            _CACHE.setdefault((m_bucket, n_out, n_bits, names), winner)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return


def _save_disk(env_key: str) -> None:
    """Rewrite the persisted file with this environment's decisions."""
    path = selection_cache_path()
    if path is None:
        return
    data: dict = {"version": _DISK_VERSION, "machines": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and existing.get("version") == _DISK_VERSION:
            machines = existing.get("machines")
            if isinstance(machines, dict):
                data["machines"] = machines
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        pass  # corrupt or absent: start a fresh file
    data["machines"][env_key] = {
        _shape_key_str(key): winner for key, winner in _CACHE.items()
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def selection_cache() -> dict[tuple, str]:
    """Read-only view of the tuning decisions made so far (for reporting)."""
    with _LOCK:
        return dict(_CACHE)


def clear_selection_cache() -> None:
    """Forget all decisions — in memory *and* on disk."""
    with _LOCK:
        _CACHE.clear()
        _DISK_LOADED.clear()
        path = selection_cache_path()
        if path is not None:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def _thread_variants(cpus: int | None = None) -> tuple[str, ...]:
    """``threaded@k`` candidates: powers of two up to min(available CPUs, 8).

    Always includes ``threaded@1`` so the cache-blocked serial path is
    raced against plain ``bitplane``; a process that may run on one CPU
    races nothing wider.
    """
    cpus = max(1, int(cpus if cpus is not None else available_cpus()))
    counts = []
    k = 1
    while k <= min(cpus, 8):
        counts.append(k)
        k *= 2
    return tuple(f"threaded@{k}" for k in counts)


def _expand_candidates(names: tuple[str, ...]) -> tuple[str, ...]:
    """Replace bare ``threaded`` with explicit thread-count variants."""
    expanded: list[str] = []
    for name in names:
        if name == "threaded":
            expanded.extend(_thread_variants())
        else:
            expanded.append(name)
    # Dedupe, preserving order (a caller may list overlapping variants).
    return tuple(dict.fromkeys(expanded))


def _time_kernel(kernel, a_words: np.ndarray, w_words: np.ndarray, n: int) -> float:
    prep = kernel.prepare(w_words, n)
    kernel.matmul(a_words, prep, n)  # warmup (allocations, lazy tables)
    best = float("inf")
    for _ in range(_BENCH_REPS):
        start = time.perf_counter()
        kernel.matmul(a_words, prep, n)
        best = min(best, time.perf_counter() - start)
    return best


def _isolated_timings(
    names: tuple[str, ...], a_words: np.ndarray, w_words: np.ndarray, n_bits: int
) -> dict[str, float]:
    """Time every candidate under a null tracer with faults suspended."""
    from ...faults import suspend_faults  # local: keep kernels importable alone

    previous = _active_tracer()
    try:
        # Detach whatever tracer is active so span/gauge bookkeeping
        # inside kernels does not pollute the timing comparison...
        from ...obs.tracer import uninstall as _uninstall, install as _install

        _uninstall()
        with suspend_faults():
            return {
                name: _time_kernel(get_kernel(name), a_words, w_words, n_bits)
                for name in names
            }
    finally:
        # ...then restore it for the caller's kernel.autotune span.
        if previous is not None:
            _install(previous)


def select_backend(
    m: int,
    n_out: int,
    n_bits: int,
    candidates: tuple[str, ...] | None = None,
) -> str:
    """Fastest backend for an (M, n_bits) x (n_bits, N) binary matmul.

    All backends are bit-exact, so the choice is purely a performance
    decision; results are cached per (bucketed M, N, n_bits, candidates)
    in memory and persisted to :func:`selection_cache_path`.  The
    returned name may be a variant (e.g. ``"threaded@2"``) — feed it to
    :func:`get_kernel` as-is.
    """
    names = tuple(candidates) if candidates is not None else autotune_candidates()
    names = _expand_candidates(names)
    if len(names) == 1:
        return names[0]
    m_bucket = _bucket_rows(m)
    key = (m_bucket, int(n_out), int(n_bits), names)
    env_key = _environment_key()
    with _LOCK:
        _load_disk(env_key)
        cached = _CACHE.get(key)
    if cached is not None:
        return cached

    rows = min(m_bucket, _BENCH_ROWS)
    words = -(-int(n_bits) // 8)
    rng = np.random.default_rng(n_bits * 7919 + n_out)
    a_words = rng.integers(0, 256, size=(rows, words), dtype=np.uint8)
    w_words = rng.integers(0, 256, size=(int(n_out), words), dtype=np.uint8)
    # Zero the pad bits so operands honor the packed-layout contract.
    tail = int(n_bits) % 8
    if tail:
        mask = np.uint8(0xFF << (8 - tail) & 0xFF)
        a_words[:, -1] &= mask
        w_words[:, -1] &= mask

    tracer = _active_tracer()
    tune_start = tracer.now() if tracer is not None else None
    timings = _isolated_timings(names, a_words, w_words, int(n_bits))
    winner = min(timings, key=timings.get)
    with _LOCK:
        # A racing thread may have tuned the same key; first write wins
        # so both threads return the same (persisted) decision.
        winner = _CACHE.setdefault(key, winner)
        _save_disk(env_key)
    if tracer is not None:
        # One span per cache miss: the autotune cost and its decision.
        tracer.add_span(
            "kernel.autotune", tune_start, tracer.now(), category="kernel",
            m_bucket=m_bucket, n_out=int(n_out), n_bits=int(n_bits), winner=winner,
            timings_ms={name: t * 1e3 for name, t in timings.items()},
        )
    return winner
