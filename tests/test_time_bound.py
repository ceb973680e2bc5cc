"""Validation's time bound (``scenario.time_bound``) against the runs it bounds.

A config validates only when the bound stays below 2**62 us, and every time
of a run of it is then an int64 at most the bound, so the simulator keeps no
fallback for times past int64. The property test runs validated configs on
slow and fast links, lossy and clean, through the event loop and the array
run; the edge test takes a 1-bps link whose frames fill the fragment
counter, so its times reach 2**61, to the last microsecond that validates.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import KEYS, EncodeMode, config_values, preset_config, time_bound

TIMES = (
    "gen_us",
    "encoded_us",
    "sent_first_us",
    "arrived_last_us",
    "decode_start_us",
    "presented_us",
    "queue_wait_us",
    "net_us",
)


def _bound(cfg):
    return time_bound(dict(zip(KEYS, config_values(cfg))))


def _assert_within(cfg, frames):
    bound = _bound(cfg)
    for name in TIMES:
        assert frames[name].dtype == "int64", name
        assert len(frames[name]) == 0 or int(frames[name].max()) <= bound, name


SPACE = st.fixed_dictionaries(
    dict(
        preset=st.sampled_from(["baseline", "openuvr"]),
        seed=st.integers(0, 2**32 - 1),
        duration_s=st.floats(1e-6, 0.25),
        # 1 bps to 10 kbps at 20-500 ms, or the presets' link
        link=st.one_of(
            st.tuples(st.integers(1, 10_000), st.integers(20_000, 500_000)),
            st.just((867_000_000, 200)),
        ),
        p2p=st.booleans(),
        jitter_sigma_us=st.sampled_from([0.0, 40.0, 50_000.0]),
        # (loss model, Bernoulli loss_p or the Gilbert-Elliott p_gb, p_bg)
        loss=st.one_of(
            st.tuples(st.just(LossModel.BERNOULLI), st.sampled_from([0.0, 0.05, 0.5])),
            st.tuples(
                st.just(LossModel.GILBERT_ELLIOTT),
                st.sampled_from([(0.01, 0.2), (0.3, 0.1)]),
            ),
        ),
        feedback=st.booleans(),
        mode=st.sampled_from(EncodeMode),
        fault=st.sampled_from([-1, 0, 2]),
        # below the codec's 60 FPS the decoder makes frames wait
        decode_fps_cap=st.integers(1, 60),
        drop_deadline_us=st.one_of(st.integers(1, 100), st.integers(1, 200_000)),
    )
)


def _space_config(p):
    cfg = preset_config(p["preset"])
    cfg.seed = p["seed"]
    cfg.duration_s = p["duration_s"]
    cfg.channel.bandwidth_bps, cfg.channel.prop_delay_us = p["link"]
    cfg.toggles.p2p_topology = p["p2p"]
    cfg.channel.jitter_sigma_us = p["jitter_sigma_us"]
    model, value = p["loss"]
    cfg.channel.loss_model = model
    if model is LossModel.BERNOULLI:
        cfg.channel.loss_p = value
    else:
        cfg.channel.ge_p_gb, cfg.channel.ge_p_bg = value
    cfg.toggles.feedback_control = p["feedback"]
    cfg.encode_mode = p["mode"]
    cfg.fault_drop_frame_id = p["fault"]
    cfg.codec.decode_fps_cap = p["decode_fps_cap"]
    cfg.drop_deadline_us = p["drop_deadline_us"]
    return cfg


@settings(max_examples=300, deadline=None)
@given(params=SPACE)
def test_every_time_of_a_validated_run_is_an_int64_within_its_bound(params):
    cfg = _space_config(params)
    assume(cfg.validate() == [])
    _assert_within(cfg, Simulator(cfg).run().frames)


def _edge():
    """A 1-bps INFRA link and I-frames of 65,535 fragments each: the last
    duration, in us, whose bound stays below 2**62, and the config at it."""
    cfg = preset_config("baseline")
    cfg.channel.bandwidth_bps = 1
    cfg.codec.gop_size = 1
    cfg.codec.p_to_i_ratio = Fraction(1)
    cfg.workload.complexity_sigma = 0.0
    cfg.codec.bitrate_bps = 65_535 * 2_281 * 8 * cfg.codec.fps
    lo, hi = 1, 10**9  # the bound is below 2**62 at lo and not at hi
    while hi - lo > 1:
        cfg.duration_s = (lo + hi) // 2 / 10**6
        lo, hi = (cfg.duration_us, hi) if _bound(cfg) < 2**62 else (lo, cfg.duration_us)
    cfg.duration_s = lo / 10**6
    return lo, cfg


def test_one_microsecond_past_the_bound_fails_validation():
    duration_us, cfg = _edge()
    assert cfg.duration_us == duration_us and cfg.validate() == []
    cfg.duration_s = (duration_us + 1) / 10**6
    assert _bound(cfg) >= 2**62
    errors = cfg.validate()
    assert len(errors) == 1 and "2**62-us horizon" in errors[0]


def test_a_run_at_the_bound_stays_in_int64():
    _, cfg = _edge()
    arrays = Simulator(cfg).run()
    _assert_within(cfg, arrays.frames)
    assert int(arrays.frames["presented_us"].max()) > 2**61
    # a fault frame past the run's end sends the same run through the event loop
    cfg.fault_drop_frame_id = 10**9
    events = Simulator(cfg).run()
    _assert_within(cfg, events.frames)
    for name in TIMES:
        assert (arrays.frames[name] == events.frames[name]).all(), name
    assert events.metrics.end_to_end == arrays.metrics.end_to_end
