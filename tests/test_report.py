"""``report._dist_ms`` against the two ``np.percentile`` calls it replaces and
against its own earlier float conversion, the constant-stage entry against
``_dist_ms`` of the full sample, ``build_distributions`` against one
``_dist_ms`` per column, and a known stage against the array it stands for."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvrpipe.report import (
    FRAME_PERIOD_60FPS_MS,
    _constant_dist_ms,
    _dist_ms,
    _percentile,
    build_distributions,
    known_stage,
)


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
    ordered = np.sort(values_us)  # in us: each value read is made ms
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


def _two_step_dist_ms(values_us):
    """``_dist_ms`` as it made every column float: ``asarray`` to float64 first."""
    arr = np.asarray(values_us, dtype=np.float64) / 1000.0
    ordered = np.sort(values_us)
    return {
        "mean_ms": round(float(arr.sum()) / len(arr), 4),
        "p50_ms": round(_percentile(ordered, 0.5), 4),
        "p99_ms": round(_percentile(ordered, 0.99), 4),
    }


@settings(max_examples=1_000, deadline=None)
@given(samples.map(lambda values: np.array(values, dtype=np.int64)))
def test_dist_ms_equals_its_two_step_float_conversion(values):
    assert _bits(_dist_ms(values)) == _bits(_two_step_dist_ms(values))


def test_empty_sample():
    # a run that presents no frame has no latency: absent, not 0
    empty = np.zeros(0, dtype=np.int64)
    assert _dist_ms(empty) == {"mean_ms": None, "p50_ms": None, "p99_ms": None}
    stages, e2e = build_distributions({"encode-path": 3_000, "network": empty}, empty)
    assert e2e == {"mean_ms": None, "p50_ms": None, "p99_ms": None, "mean_frames_60fps": None}
    assert all(value is None for dist in stages.values() for value in dist.values())


def _bits(dist):
    return {name: None if value is None else value.hex() for name, value in dist.items()}


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


def _reference_distributions(per_stage_us, e2e_us):
    """``build_distributions`` as one ``_dist_ms`` per column, no sort shared."""
    n = len(e2e_us)
    stages = {
        name: _dist_ms(np.full(n, vals) if isinstance(vals, int) else vals)
        for name, vals in per_stage_us.items()
    }
    e2e = _dist_ms(e2e_us)
    e2e["mean_frames_60fps"] = round(e2e["mean_ms"] / FRAME_PERIOD_60FPS_MS, 4)
    return stages, e2e


def _assert_distributions(per_stage_us, e2e_us):
    stages, e2e = build_distributions(per_stage_us, e2e_us)
    want_stages, want_e2e = _reference_distributions(per_stage_us, e2e_us)
    assert list(stages) == list(want_stages)
    assert {k: _bits(v) for k, v in stages.items()} == {k: _bits(v) for k, v in want_stages.items()}
    assert _bits(e2e) == _bits(want_e2e)
    for name, vals in per_stage_us.items():
        if not isinstance(vals, int):
            assert stages[name] == _numpy_dist_ms(vals)
    assert {k: v for k, v in e2e.items() if k != "mean_frames_60fps"} == _numpy_dist_ms(e2e_us)


_INT64 = (-(2**63), 2**63 - 1)


@st.composite
def stage_tables(draw):
    """Stages and an end-to-end sample: constant ints and constant int
    columns (negative, past 2**40), with no varying column, one that
    end-to-end follows at a fixed offset, or two."""
    n = draw(st.integers(1, 40))
    value = st.one_of(narrow, st.integers(-(2**41), 2**41), wide)
    per_stage = {}
    for i in range(draw(st.integers(0, 3))):
        per_stage[f"int{i}"] = draw(value)
    for i in range(draw(st.integers(0, 2))):
        per_stage[f"flat{i}"] = np.full(n, draw(value), dtype=np.int64)
    column = st.lists(st.one_of(narrow, st.integers(0, 50_000), wide), min_size=n, max_size=n)
    shape = draw(st.sampled_from(["none", "one", "one", "one", "two"]))
    cols = [draw(column) for _ in range({"none": 0, "one": 1, "two": 2}[shape])]
    for i, col in enumerate(cols):
        per_stage[f"var{i}"] = np.array(col, dtype=np.int64)
    if cols and draw(st.integers(0, 3)) == 0:
        e2e = draw(column)  # unrelated to the stages
    else:
        shift = draw(value)
        e2e = [sum(vals) + shift for vals in zip(*cols)] if cols else [shift] * n
    assume(all(_INT64[0] <= v <= _INT64[1] for v in e2e))
    return per_stage, np.array(e2e, dtype=np.int64)


@settings(max_examples=500, deadline=None)
@given(stage_tables())
def test_build_distributions_equals_a_dist_ms_per_column(table):
    _assert_distributions(*table)


def test_a_shared_sort_is_not_read_across_a_wrapped_offset():
    # end-to-end is the stage plus 2**63 + 10, which int64 wraps to a
    # constant; the two must not share the stage's sort
    col = np.array([-(2**62) - 5, -(2**62) - 3, -(2**62)], dtype=np.int64)
    e2e = np.array([int(v) + 2**63 + 10 for v in col], dtype=np.int64)
    _assert_distributions({"network": col, "mud": 3_640}, e2e)


@pytest.mark.parametrize("n", [1, 2, 3_600])
def test_one_varying_stage_shares_its_sort_with_end_to_end(n):
    net = np.arange(3_000, 3_000 + 7 * n, 7, dtype=np.int64) % 5_501
    per_stage = {"encode": 13_940, "network": net, "decode-wait": np.zeros(n, dtype=np.int64)}
    _assert_distributions(per_stage, net + 13_940)


@st.composite
def known_stage_tables(draw):
    """Int stages, one int64 column and a shift at a drawn place among them,
    and end-to-end as the sum of the stages."""
    n = draw(st.integers(1, 40))
    value = st.one_of(narrow, st.integers(-(2**41), 2**41), wide)
    ints = [draw(value) for _ in range(draw(st.integers(0, 3)))]
    col = draw(st.lists(st.one_of(narrow, st.integers(0, 50_000), wide), min_size=n, max_size=n))
    shift = draw(value)
    e2e = [v + shift + sum(ints) for v in col]
    assume(all(_INT64[0] <= v <= _INT64[1] for v in e2e + [v + shift for v in col]))
    return ints, draw(st.integers(0, len(ints))), np.array(col, dtype=np.int64), shift, e2e


def _with_stage(ints, at, stage):
    names = [f"int{i}" for i in range(len(ints))]
    return dict(zip(names[:at] + ["network"] + names[at:], ints[:at] + [stage] + ints[at:]))


@settings(max_examples=500, deadline=None)
@given(known_stage_tables())
def test_a_known_stage_gives_its_arrays_distributions(table):
    ints, at, col, shift, e2e = table
    e2e = np.array(e2e, dtype=np.int64)
    stage = known_stage(col, shift)
    lo, hi = int(col.min()), int(col.max())
    if lo == hi or max(-lo, hi, abs(shift)) >= 2**62:
        assert stage is None
        return
    with pytest.raises(ValueError):
        stage.ordered[0] = 0
    per_stage = _with_stage(ints, at, col + shift)
    stages, e2e_dist = build_distributions(_with_stage(ints, at, stage), e2e)
    want_stages, want_e2e = _reference_distributions(per_stage, e2e)
    assert list(stages) == list(want_stages)
    assert {k: _bits(v) for k, v in stages.items()} == {k: _bits(v) for k, v in want_stages.items()}
    assert _bits(e2e_dist) == _bits(want_e2e)


def test_a_known_stage_beside_a_varying_array_sorts_end_to_end():
    # end-to-end then differs from neither by a constant: it is sorted itself
    col = np.array([5, 1, 9, 3], dtype=np.int64)
    other = np.array([0, 7, 2, 2], dtype=np.int64)
    e2e = col + other + 100
    got = build_distributions({"network": known_stage(col, 100), "wait": other}, e2e)
    assert got == build_distributions({"network": col + 100, "wait": other}, e2e)
    _assert_distributions({"network": col + 100, "wait": other}, e2e)


def test_a_column_across_int32_is_sorted_in_int64():
    col = np.array([2**31 + 5, 3, 2**31 - 5, 2**32 - 1, 2**31], dtype=np.int64)
    e2e = col + 700
    _assert_distributions({"network": col, "mud": 700}, e2e)
    stages, e2e_dist = build_distributions({"network": known_stage(col, 0), "mud": 700}, e2e)
    assert stages["network"] == _numpy_dist_ms(col)
    assert {k: v for k, v in e2e_dist.items() if k != "mean_frames_60fps"} == _numpy_dist_ms(e2e)
