import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvrpipe.core import (
    ColorSpace,
    EventQueue,
    FrameSource,
    Rng,
    SchedulingError,
    WorkloadConfig,
    raw_frame_bytes,
    tick_time,
)


def test_event_queue_ties_dispatch_in_insertion_order():
    q = EventQueue()
    q.schedule(5, "a")
    q.schedule(5, "b")
    assert [q.pop()[1] for _ in range(2)] == ["a", "b"]


def test_event_queue_time_order():
    q = EventQueue()
    q.schedule(10, "late")
    q.schedule(3, "early")
    assert [q.pop()[1] for _ in range(2)] == ["early", "late"]


def test_event_queue_rejects_past():
    q = EventQueue()
    q.schedule(10, "x")
    q.pop()
    with pytest.raises(SchedulingError):
        q.schedule(9, "y")


def _transcript(seed):
    rng = Rng(seed).stream("misc")
    q = EventQueue()
    out = []
    for i in range(1000):
        q.schedule(int(rng.integers(0, 500)), i)
    while len(q):
        out.append(q.pop())
    return out


def test_random_schedule_transcript_reproducible():
    a = _transcript(42)
    b = _transcript(42)
    assert a == b
    times = [t for t, _ in a]
    assert times == sorted(times)


def test_tick_grid_60fps_periods():
    deltas = [tick_time(i + 1, 60) - tick_time(i, 60) for i in range(600)]
    assert set(deltas) == {16_666, 16_667}
    # cumulative rounding: exact over every whole second
    assert tick_time(60, 60) == 1_000_000
    assert tick_time(3600, 60) == 60_000_000


def test_tick_grid_90fps_no_drift():
    assert tick_time(90, 90) == 1_000_000
    assert tick_time(9000, 90) == 100_000_000
    deltas = [tick_time(i + 1, 90) - tick_time(i, 90) for i in range(900)]
    assert all(abs(d - 11_111.1) <= 1 for d in deltas)


def test_raw_frame_sizes():
    assert raw_frame_bytes(1920, 1080, ColorSpace.RGB) == 6_220_800
    assert raw_frame_bytes(1920, 1080, ColorSpace.YUV420) == 3_110_400


def test_sigma_zero_complexity_is_exactly_one():
    src = FrameSource(WorkloadConfig(complexity_sigma=0.0), Rng(1))
    frames = [src.next_frame(i) for i in range(50)]
    assert all(f.complexity == 1.0 for f in frames)
    assert [f.frame_id for f in frames] == list(range(50))


def test_sigma_zero_batch_is_ones_and_advances_the_stream():
    rng, scalar = Rng(1), Rng(1)
    assert rng.lognormal_complexity(0.0, 50).tolist() == [1.0] * 50
    for _ in range(50):
        scalar.stream("workload").standard_normal()
    assert rng.stream("workload").random() == scalar.stream("workload").random()
    assert Rng(1).stream("workload").random() != scalar.stream("workload").random()


def test_rng_streams_deterministic_and_distinct():
    a = Rng(7).stream("loss").random(5).tolist()
    b = Rng(7).stream("loss").random(5).tolist()
    c = Rng(8).stream("loss").random(5).tolist()
    d = Rng(7).stream("jitter").random(5).tolist()
    assert a == b
    assert a != c
    assert a != d


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.15, 0.5, 1.0, 3.0])
def test_batched_complexities_equal_scalar_draws(sigma):
    # The array run draws a whole run's complexities in one call. Its reports
    # stay byte-identical only if numpy's vectorized exp gives the bits of
    # one scalar call per frame, at every batch length.
    for n in (1, 7, 20_000):
        scalar_rng, batch_rng = Rng(11), Rng(11)
        draw = scalar_rng.stream("workload").standard_normal
        scalar = np.array([float(np.exp(sigma * draw())) for _ in range(n)])
        batch = batch_rng.lognormal_complexity(sigma, n)
        assert batch.tobytes() == scalar.tobytes()
        # and both leave the workload stream at the same place
        assert batch_rng.stream("workload").random() == scalar_rng.stream("workload").random()


# --- lazy streams ----------------------------------------------------------

_STREAM_NAMES = ("workload", "loss", "jitter", "fault", "misc")


def _eager_streams(seed):
    """The reference: every stream built up front from the root seed's five
    spawned children, in this order."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(_STREAM_NAMES, children)
    }


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), order=st.permutations(_STREAM_NAMES))
def test_lazy_streams_equal_the_eager_ones(seed, order):
    # each stream is built on first use, in any order, and draws what the eager one does
    rng, eager = Rng(seed), _eager_streams(seed)
    for name in order:
        assert rng.stream(name).random(3).tolist() == eager[name].random(3).tolist()
    for name in _STREAM_NAMES:
        expected = eager[name].standard_normal(2).tolist()
        assert rng.stream(name).standard_normal(2).tolist() == expected


def test_unknown_stream_is_refused():
    with pytest.raises(KeyError):
        Rng(1).stream("nope")
    with pytest.raises(KeyError):
        Rng(1).restore("nope", Rng(1).stream("misc").bit_generator.state)


@pytest.mark.parametrize("built", [False, True])
def test_a_restored_stream_draws_from_the_saved_state(built):
    saved = Rng(3).stream("workload")
    saved.random(5)
    rng = Rng(3)
    if built:
        rng.stream("workload").random(2)
    rng.restore("workload", saved.bit_generator.state)
    assert ("workload" in rng._gens) is built  # not built before its first draw
    assert rng.stream("workload").random(4).tolist() == saved.random(4).tolist()
