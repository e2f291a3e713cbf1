"""FINN's tau+ fold: thresholds absorbed into 0/1-plane GEMM operands.

``_fold_threshold`` turns a stage's ±1 weights and ``ChannelThresholds``
into ``(W', bound')`` such that ``(a01 @ W') >= bound'`` is the decision
``ChannelThresholds.apply`` takes on the XNOR accumulator.  The property
below checks that bit for bit against the oracle's XNOR-popcount, over
the cases where a rounding or sign slip would show: odd and even
fan-ins, fan-ins that do not fill a byte, negative and zero gamma,
thresholds exactly on integers and half-integers, thresholds no
accumulator can reach — and rows of a padded conv, whose pad taps count
for nothing and whose bound is a per-row table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.plan import _fold_threshold
from repro.bnn.thresholding import ChannelThresholds

from oracle import binary_matmul


def _random_thresholds(rng, channels, k):
    kinds = rng.integers(0, 5, size=channels)
    on_integer = rng.integers(-k - 2, k + 3, size=channels).astype(np.float64)
    tau = np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3],
        [
            on_integer,
            on_integer + 0.5,
            rng.uniform(-k - 1.0, k + 1.0, size=channels),
            rng.choice([-1.0, 1.0], size=channels) * (k + rng.uniform(0.1, 9.0, size=channels)),
        ],
        default=rng.choice([-1e30, 1e30, -np.inf, np.inf], size=channels),
    )
    sign = rng.choice([-1.0, 0.0, 1.0], size=channels)
    # 0 * inf is NaN (and a RuntimeWarning) in apply itself; constant
    # channels keep every other kind of tau, which the fold must ignore.
    tau = np.where((sign == 0) & np.isinf(tau), 0.0, tau)
    return ChannelThresholds(
        tau=tau, sign=sign, constant=rng.choice([-1.0, 1.0], size=channels)
    )


@given(
    seed=st.integers(0, 100_000),
    k=st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 100, 145]),
    channels=st.integers(1, 19),
    m=st.integers(1, 12),
    padded=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_folded_compare_equals_apply(seed, k, channels, m, padded):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(m, k))
    w = rng.choice([-1.0, 1.0], size=(channels, k))
    thresholds = _random_thresholds(rng, channels, k)
    # Each row is one output position; a padded conv's pad taps are 0.
    valid = (rng.random((m, k)) < 0.7).astype(np.float64) if padded else None
    rows = a if valid is None else a * valid

    expected = thresholds.apply(binary_matmul(rows, w), channel_axis=1) > 0

    for dtype in (np.float32, np.float64):
        weight_t, bound = _fold_threshold(w.T, thresholds, dtype, valid)
        assert weight_t.dtype == bound.dtype == dtype
        assert bound.shape == ((m, channels) if padded else (channels,))
        # The plan's own hop: compare written through out= into a float map.
        decided = np.empty((m, channels), dtype=dtype)
        np.greater_equal((rows > 0).astype(dtype) @ weight_t, bound, out=decided)
        assert set(np.unique(decided)) <= {0.0, 1.0}
        np.testing.assert_array_equal(decided != 0, expected, err_msg=str(dtype))
