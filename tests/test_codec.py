from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvrpipe.codec import (
    CodecConfig,
    DecodeServer,
    FrameType,
    GopWalker,
    encoded_size,
    nominal_sizes,
)
from uvrpipe.core import tick_time
from uvrpipe.scenario import ScenarioConfig


def frame_budget(cfg: CodecConfig) -> Fraction:
    """Average bytes per frame at the target bitrate: the reference for
    ``nominal_sizes``, whose GOP averages it."""
    return Fraction(cfg.bitrate_bps, 8 * cfg.fps)


def test_frame_budget():
    assert frame_budget(CodecConfig()) == Fraction(20_000_000, 8 * 60)
    assert float(frame_budget(CodecConfig())) == pytest.approx(41_666.67, abs=0.01)
    assert frame_budget(CodecConfig(bitrate_bps=8_000_000, fps=10)) == 100_000


def test_zero_bitrate_rejected():
    cfg = ScenarioConfig(codec=CodecConfig(bitrate_bps=0))
    assert cfg.validate() == ["codec.bitrate_bps must be > 0"]


def round_half_up(x) -> int:
    """Round to nearest integer, ties away from zero (toward +inf for x >= 0)."""
    f = Fraction(x)
    return int((2 * f + 1) // 2) if f >= 0 else -int((2 * (-f) + 1) // 2)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4) == 2
    assert round_half_up(Fraction(5, 2)) == 3


def _nominal_sizes_reference(cfg):
    """``nominal_sizes`` as the exact rational formula, rounded half-up."""
    budget = frame_budget(cfg)
    g = cfg.gop_size
    r = Fraction(cfg.p_to_i_ratio)
    s_i = g * budget / (1 + (g - 1) * r)
    return round_half_up(s_i), round_half_up(r * s_i)


_RATIOS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda r: r > 0),
    st.floats(min_value=0, max_value=1, exclude_min=True),
)


@settings(max_examples=500, deadline=None)
@given(
    bitrate=st.integers(1, 10**11),
    fps=st.integers(1, 1_000),
    gop=st.integers(1, 2_000),
    ratio=_RATIOS,
)
# ties: s_I = 0.5 and s_I = 1.5 round up
@example(bitrate=4, fps=1, gop=1, ratio=Fraction(1))
@example(bitrate=12, fps=1, gop=1, ratio=0.5)
def test_nominal_sizes_equal_the_rational_formula(bitrate, fps, gop, ratio):
    cfg = CodecConfig(bitrate_bps=bitrate, fps=fps, gop_size=gop, p_to_i_ratio=ratio)
    assert nominal_sizes(cfg) == _nominal_sizes_reference(cfg)


def test_nominal_sizes_default_gop():
    assert nominal_sizes(CodecConfig(gop_size=20)) == (144_928, 36_232)


def test_nominal_sizes_large_gop():
    assert nominal_sizes(CodecConfig(gop_size=480)) == (165_631, 41_408)


def test_nominal_sizes_degenerate_gop():
    s_i, _ = nominal_sizes(CodecConfig(gop_size=1))
    assert s_i == 41_667


def test_gop_walk_and_forced_restart():
    walker = GopWalker(CodecConfig(gop_size=480))
    plans = [walker.plan(False) for _ in range(242)]
    assert plans == [(FrameType.I, False)] + [(FrameType.P, False)] * 241
    # a forced I mid-GOP restarts the phase: 479 P-frames before the next I
    assert walker.plan(True) == (FrameType.I, True)
    tail = [walker.plan(False) for _ in range(480)]
    assert tail == [(FrameType.P, False)] * 479 + [(FrameType.I, False)]


def test_iframe_cadence_without_forcing():
    g = 20
    walker = GopWalker(CodecConfig(gop_size=g))
    types = [walker.plan(False)[0] for _ in range(200)]
    i_positions = [i for i, t in enumerate(types) if t is FrameType.I]
    assert i_positions == list(range(0, 200, g))


def test_frame_type_invariant_on_walk():
    walker = GopWalker(CodecConfig(gop_size=7))
    import random

    rnd = random.Random(3)
    since_i = None  # frames since the last I-frame
    for _ in range(1000):
        force = rnd.random() < 0.1
        ftype, forced = walker.plan(force)
        # the phase: an I-frame when forced or 7 frames after the last one
        assert (ftype is FrameType.I) == (force or since_i in (None, 6))
        assert forced == force
        since_i = 0 if ftype is FrameType.I else since_i + 1


def test_encoded_size_examples():
    cfg = CodecConfig(gop_size=20)
    assert encoded_size(FrameType.I, cfg, 1.0) == 144_928
    assert encoded_size(FrameType.P, cfg, 2.0) == 72_464
    rgb = CodecConfig(gop_size=20, transcode_avoidance=True)
    assert encoded_size(FrameType.I, rgb, 1.0) == 159_421


def test_encoded_size_rejects_nonpositive_complexity():
    with pytest.raises(ValueError):
        encoded_size(FrameType.I, CodecConfig(), 0.0)


def test_bitrate_conservation_whole_gops():
    cfg = CodecConfig(gop_size=20)
    s_i, s_p = nominal_sizes(cfg)
    gops = 180
    total = gops * (s_i + (cfg.gop_size - 1) * s_p)
    budget = gops * cfg.gop_size * frame_budget(cfg)
    assert abs(total - budget) <= gops * cfg.gop_size  # within 1 byte per frame


def test_decoder_idle_frame():
    server = DecodeServer(60)
    start, wait = server.offer(1_000)
    assert start == 1_000
    assert wait == 0


def test_decoder_at_capacity_no_standing_queue():
    server = DecodeServer(60)
    waits = [server.offer(tick_time(i, 60))[1] for i in range(600)]
    assert max(waits) == 0


def test_decoder_overload_grows_unbounded():
    server = DecodeServer(60)
    waits = [server.offer(tick_time(i, 90))[1] for i in range(900)]  # 10 s at 90 FPS
    tail = waits[5:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert waits[-1] > 100 * 1000  # far beyond one service time and still climbing
    assert waits[-1] > waits[len(waits) // 2]


# --- DecodeServer.offer_run against n offer calls -----------------------------

caps = st.integers(1, 240)
warm_ups = st.lists(st.integers(0, 3_000_000), max_size=4)


def _servers(cap, warm_up):
    """Two decoders in the same state, after the same earlier offers."""
    loop, run = DecodeServer(cap), DecodeServer(cap)
    for t in warm_up:
        loop.offer(t)
        run.offer(t)
    return loop, run


def _state(server):
    return server._tokens, server._last, server._prev_start


def _offer_each(server, arrivals):
    """``offer`` of each arrival: the (start, wait) pairs, and whether the
    token bucket held some frame back past its arrival and the last start."""
    admitted, held = [], False
    for t in arrivals:
        ready = max(t, server._prev_start)
        admitted.append(server.offer(t))
        held |= admitted[-1][0] > ready
    return admitted, held


@st.composite
def _unhurried(draw):
    """(cap, warm-up, arrivals) where no frame waits: groups of one arrival
    at least one token period after the last start, or of two (the second
    repeated or earlier, so it starts with the first) after two periods."""
    cap, warm_up = draw(caps), draw(warm_ups)
    period = -(-DecodeServer.TOKEN // cap)
    t = max(_servers(cap, warm_up)[0]._prev_start, 0)
    arrivals = []
    for pair in draw(st.lists(st.booleans(), max_size=30)):
        t += (2 if pair else 1) * period + draw(st.integers(0, 3 * period))
        arrivals.append(t)
        if pair:
            arrivals.append(t - draw(st.integers(0, 2 * period)))
    return cap, warm_up, arrivals


def _assert_run_equals_loop(cap, warm_up, arrivals, dtype=np.int64):
    """``offer_run`` of the arrivals equals ``offer`` of each, starts (typed
    as the arrivals) and bucket state both; returns whether the loop's bucket
    held some frame back."""
    loop, run = _servers(cap, warm_up)
    starts = run.offer_run(np.array(arrivals, dtype=dtype))
    admitted, held = _offer_each(loop, arrivals)
    assert starts.dtype == dtype
    assert starts.tolist() == [start for start, _ in admitted]
    assert [s - t for s, t in zip(starts.tolist(), arrivals)] == [wait for _, wait in admitted]
    assert _state(run) == _state(loop)
    return held


@settings(max_examples=300, deadline=None)
@given(_unhurried())
def test_offer_run_equals_offer_loop(case):
    assert not _assert_run_equals_loop(*case)


@settings(max_examples=300, deadline=None)
@given(
    cap=caps,
    warm_up=warm_ups,
    before=st.lists(st.integers(0, 3_000_000), max_size=20),
    after=st.lists(st.integers(0, 3_000_000), max_size=20),
    late=st.integers(0, 100_000),
)
def test_offer_run_equals_offer_loop_when_the_bucket_binds(cap, warm_up, before, after, late):
    # three frames that start at one time need three tokens; the bucket holds
    # two, so one frame waits and the run is admitted frame by frame
    t = max([*warm_up, *before], default=0) + late
    assert _assert_run_equals_loop(cap, warm_up, [*before, t, t, t, *after])


@settings(max_examples=300, deadline=None)
@given(
    cap=caps,
    warm_up=warm_ups,
    arrivals=st.lists(st.integers(0, 3_000_000), max_size=30),
)
def test_offer_run_equals_offer_loop_at_any_spacing(cap, warm_up, arrivals):
    # unsorted arrivals at any spacing, whether or not the bucket holds a frame back
    _assert_run_equals_loop(cap, warm_up, arrivals)


def test_offer_run_of_nothing_changes_nothing():
    server = DecodeServer(60)
    server.offer(5_000)
    state = _state(server)
    assert server.offer_run(np.zeros(0, dtype=np.int64)).tolist() == []
    assert _state(server) == state


@pytest.mark.parametrize(
    "cap, arrivals, dtype, held",
    [
        (240, [2**62 // 240], np.int64, False),  # one frame, its scaled time past 2**62
        (240, [2**62 // 240] * 3, np.int64, True),  # and a frame held back there
        (60, [2**63 + 5, 2**63 + 5, 2**63 + 5, 2**64], object, True),  # Python ints past int64
    ],
)
def test_offer_run_equals_offer_loop_near_int64(cap, arrivals, dtype, held):
    # a scaled time could wrap int64, so the run is admitted frame by frame
    assert _assert_run_equals_loop(cap, [], arrivals, dtype) == held
