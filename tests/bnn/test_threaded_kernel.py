"""Threaded cache-blocked bitplane GEMM: bit-exact under any schedule.

Every (thread count, row tile, column tile) schedule must reproduce the
reference kernel exactly — products are in {-1, 0, +1} and partial sums
are integers below the float32-exact limit, so tiling can only change
*when* values are computed, never *what* they are.  Also pins the
scheduling policy itself: the serial threshold, the thread-count
resolution order (arg > env > auto), and the ``threaded@K[:TILE]``
variant grammar the autotuner races.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.kernels import available_cpus, get_kernel, select
from repro.bnn.kernels.threaded import (
    ENV_THREADS,
    ThreadedBitplaneKernel,
    resolve_bnn_threads,
)
from repro.bnn.xnor import pack_pm1


def _packed_case(seed, m, n_out, n_bits):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(m, n_bits))
    w = rng.choice([-1.0, 1.0], size=(n_out, n_bits))
    a_words, n = pack_pm1(a)
    w_words, _ = pack_pm1(w)
    return a_words, w_words, n, (a @ w.T).astype(np.int64)


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 40),
    n_out=st.integers(1, 12),
    n_bits=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 144, 200]),
    threads=st.sampled_from([1, 2, 3, 4]),
)
@settings(max_examples=40, deadline=None)
def test_matches_oracle_any_thread_count(seed, m, n_out, n_bits, threads):
    a_words, w_words, n, oracle = _packed_case(seed, m, n_out, n_bits)
    # min_rows_per_thread=1 forces the parallel path even on tiny M.
    kernel = ThreadedBitplaneKernel(threads=threads, min_rows_per_thread=1)
    out = kernel.matmul(a_words, kernel.prepare(w_words, n), n)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, oracle)


@pytest.mark.parametrize("row_tile,col_tile", [(1, 1), (3, 2), (7, 5), (64, 4096)])
def test_tiling_edges_and_tails(row_tile, col_tile):
    # M/N chosen to leave ragged tail tiles for every parametrized size.
    a_words, w_words, n, oracle = _packed_case(5, 29, 11, 100)
    kernel = ThreadedBitplaneKernel(
        threads=2, row_tile=row_tile, col_tile=col_tile, min_rows_per_thread=1
    )
    np.testing.assert_array_equal(
        kernel.matmul(a_words, kernel.prepare(w_words, n), n), oracle
    )


def test_out_buffer_is_written_and_returned():
    a_words, w_words, n, oracle = _packed_case(7, 17, 6, 64)
    kernel = ThreadedBitplaneKernel(threads=2, min_rows_per_thread=1)
    out = np.empty((17, 6), dtype=np.int64)
    result = kernel.matmul(a_words, kernel.prepare(w_words, n), n, out=out)
    assert result is out
    np.testing.assert_array_equal(out, oracle)


def test_serial_threshold_keeps_small_shapes_serial():
    kernel = ThreadedBitplaneKernel(threads=8, min_rows_per_thread=2048)
    assert kernel._effective_threads(16) == 1          # FC-sized: serial
    assert kernel._effective_threads(4096) == 2        # two full slabs
    assert kernel._effective_threads(1 << 20) == 8     # capped by threads
    # Threshold disabled: thread count passes through.
    assert ThreadedBitplaneKernel(threads=3, min_rows_per_thread=0)._effective_threads(2) == 3


def test_resolve_bnn_threads(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    assert resolve_bnn_threads(5) == 5             # explicit arg wins
    assert resolve_bnn_threads() >= 1              # auto: cpu-derived
    monkeypatch.setenv(ENV_THREADS, "3")
    assert resolve_bnn_threads() == 3              # env default
    assert resolve_bnn_threads(2) == 2             # arg still beats env
    monkeypatch.setenv(ENV_THREADS, "not-a-number")
    with pytest.raises(ValueError):
        resolve_bnn_threads()


def test_thread_defaults_follow_the_affinity_mask(monkeypatch):
    """A pinned process sizes by the CPUs it may use, not the machine's."""
    monkeypatch.delenv(ENV_THREADS, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert available_cpus() == 1
    assert resolve_bnn_threads() == 1
    assert select._thread_variants() == ("threaded@1",)
    assert select._environment_key().endswith("cpus1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert resolve_bnn_threads() == 4
    assert select._thread_variants() == ("threaded@1", "threaded@2", "threaded@4")
    assert select._environment_key().endswith("cpus4")
    # Platforms without an affinity mask fall back to the machine count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert available_cpus() == 16
    assert resolve_bnn_threads() == 8
    assert select._environment_key().endswith("cpus16")


def test_variant_lookup():
    base = get_kernel("threaded")
    two = get_kernel("threaded@2")
    assert isinstance(two, ThreadedBitplaneKernel)
    assert two.name == "threaded@2"
    assert two.threads == 2
    assert get_kernel("threaded@2") is two         # cached instance
    tiled = get_kernel("threaded@2:8192")
    assert (tiled.threads, tiled.row_tile) == (2, 8192)
    assert base.threads is None                    # base stays env-driven
    with pytest.raises(KeyError):
        get_kernel("threaded@zippy")
    with pytest.raises(KeyError):
        get_kernel("reference@2")                  # no variants there


def test_variant_matches_base():
    a_words, w_words, n, oracle = _packed_case(11, 33, 9, 144)
    for name in ("threaded", "threaded@1", "threaded@2", "threaded@2:8"):
        kernel = get_kernel(name)
        np.testing.assert_array_equal(
            kernel.matmul(a_words, kernel.prepare(w_words, n), n), oracle,
            err_msg=name,
        )
