"""``report._dist_ms`` against the two ``np.percentile`` calls it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvrpipe.report import _dist_ms, _percentile


def _numpy_dist_ms(values_us):
    """The distribution as it was computed with ``np.percentile``."""
    arr = np.asarray(values_us, dtype=np.float64) / 1000.0
    return {
        "mean_ms": round(float(arr.mean()), 4),
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
    }


def _assert_same(values_us):
    arr = np.asarray(values_us, dtype=np.float64) / 1000.0
    ordered = np.sort(arr)
    for q, pct in ((0.5, 50), (0.99, 99)):
        # bit for bit before rounding
        assert _percentile(ordered, q).hex() == float(np.percentile(arr, pct)).hex()
    assert _dist_ms(values_us) == _numpy_dist_ms(values_us)


# int64 times in us, as the simulator passes them: wide, negative, tied
wide = st.integers(-(2**62), 2**62)
narrow = st.integers(-5, 5)
constant = st.builds(lambda v, n: [v] * n, wide, st.integers(1, 200))
samples = st.one_of(
    st.lists(wide, min_size=1, max_size=2),
    st.lists(narrow, min_size=1, max_size=300),
    st.lists(st.integers(0, 50_000), min_size=1, max_size=300),
    st.lists(wide, min_size=1, max_size=300),
    constant,
)


@settings(max_examples=1_000, deadline=None)
@given(samples)
def test_dist_ms_equals_np_percentile(values):
    _assert_same(np.array(values, dtype=np.int64))


@pytest.mark.parametrize(
    "values",
    [[7], [-7], [0], [1, 2], [2, 1], [-3, 3], [5, 5], [3_640] * 3_600, list(range(101))],
)
def test_small_and_constant_samples(values):
    _assert_same(np.array(values, dtype=np.int64))


def test_times_past_int64():
    # the event loop's columns fall back to Python ints past int64
    values = np.array([2**63 + 5, 2**64, 2**70, 3], dtype=object)
    _assert_same(values)


def test_empty_sample():
    assert _dist_ms(np.zeros(0, dtype=np.int64)) == {"mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
