"""``report._dist_ms`` against the two ``np.percentile`` calls it replaces, and
the constant-stage entry against ``_dist_ms`` of the full sample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvrpipe.report import _constant_dist_ms, _dist_ms, _percentile, build_distributions


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


def _bits(dist):
    return {name: value.hex() for name, value in dist.items()}


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize(
    "value",
    [0, 1, -1, 3_640, 2**40 - 1, 2**40, 2**53 + 1, 2**62 - 1, 2**62, 2**62 + 1, -(2**62)],
)
def test_constant_stage_equals_full_sample(n, value):
    assert _bits(_constant_dist_ms(value, n)) == _bits(_dist_ms(np.full(n, value)))


@settings(max_examples=500, deadline=None)
@given(value=st.one_of(wide, st.integers(-(2**41), 2**41), narrow), n=st.integers(0, 5_000))
def test_constant_stage_equals_full_sample_at_any_length(value, n):
    assert _bits(_constant_dist_ms(value, n)) == _bits(_dist_ms(np.full(n, value)))


def test_build_distributions_takes_a_constant_stage():
    e2e = np.array([9_000, 12_500, 11_000], dtype=np.int64)
    # a stage given as one int takes it on every frame of the end-to-end sample
    assert build_distributions({"mud": 3_640}, e2e) == build_distributions(
        {"mud": np.full(3, 3_640)}, e2e
    )
