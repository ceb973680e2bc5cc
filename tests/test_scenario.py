import copy
import warnings
from dataclasses import asdict
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from uvrpipe.core import US_PER_S, frame_ticks
from uvrpipe.netsim import LossModel
from uvrpipe.scenario import (
    KEYS,
    MAX_TICKS,
    PRESETS,
    EncodeMode,
    ScenarioConfig,
    ScenarioError,
    _errors,
    _fragment_errors,
    apply_kv,
    config_values,
    emit_scenario,
    parse_scenario,
    parse_scenario_text,
    preset_config,
    send_grid,
    to_flat_dict,
    with_toggle,
)


def test_preset_openuvr():
    cfg = preset_config("openuvr")
    assert cfg.codec.gop_size == 480
    assert cfg.codec.bitrate_bps == 20_000_000
    assert cfg.codec.fps == 60
    assert all(asdict(cfg.toggles).values())


def test_preset_baseline():
    cfg = preset_config("baseline")
    assert cfg.codec.gop_size == 20
    assert not any(asdict(cfg.toggles).values())


def test_unknown_preset():
    with pytest.raises(ScenarioError):
        preset_config("quantum")


def test_parse_round_trip_every_preset():
    for name in ("baseline", "openuvr"):
        cfg = preset_config(name)
        parsed = parse_scenario_text(emit_scenario(cfg))
        assert parsed == cfg
        assert to_flat_dict(parsed) == to_flat_dict(cfg)


def test_parse_applies_values():
    cfg = parse_scenario_text(
        """
        seed = 7
        codec.gop_size = 480   # large GOP
        toggles.p2p_topology = true
        channel.loss_model = gilbert_elliott
        encode_mode = sync
        codec.p_to_i_ratio = 1/3
        """
    )
    assert cfg.seed == 7
    assert cfg.codec.gop_size == 480
    assert cfg.toggles.p2p_topology
    assert cfg.channel.loss_model is LossModel.GILBERT_ELLIOTT
    assert cfg.encode_mode is EncodeMode.SYNC
    assert cfg.codec.p_to_i_ratio.denominator == 3


def test_errors_collected_with_line_numbers():
    text = "seed = x\nbogus.key = 1\ncodec.gop_size = 0\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, source="demo.cfg")
    messages = err.value.errors
    assert any("demo.cfg:1" in m and "seed" in m for m in messages)
    assert any("demo.cfg:2" in m and "unknown key" in m for m in messages)
    assert any("codec.gop_size" in m for m in messages)
    assert len(messages) == 3


def test_parse_scenario_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("duration_s = 2.5\nrender_fps = 90\n")
    cfg = parse_scenario(path)
    assert cfg.duration_s == 2.5
    assert cfg.render_fps == 90


def test_parse_does_not_mutate_base():
    base = preset_config("baseline")
    parse_scenario_text("seed = 99\n", base=base)
    assert base.seed == 1


def test_with_toggle():
    cfg = ScenarioConfig()
    on = with_toggle(cfg, "direct_net_io", True)
    assert on.toggles.direct_net_io and not cfg.toggles.direct_net_io
    with pytest.raises(ScenarioError):
        with_toggle(cfg, "nope", True)


def test_duration_us_rounding():
    cfg = ScenarioConfig(duration_s=0.0005)
    assert cfg.duration_us == 500


def test_nominal_iframe_over_the_fragment_limit_rejected():
    # at complexity_sigma 0 every frame is the nominal one, and a 20-Gbps
    # I-frame of ~145 MB fits: frames up to complexity 1.031 fit in YUV
    cfg = preset_config("baseline")
    cfg.codec.bitrate_bps = 20_000_000_000
    cfg.workload.complexity_sigma = 0.0
    assert cfg.validate() == []
    # RGB inflation lowers that limit to 0.938, and takes the nominal
    # I-frame past 65,535 fragments of 2,281 bytes
    cfg.toggles.transcode_avoidance = True
    assert cfg.validate() == [
        "seed 1 draws a frame of complexity 1 whose I-frame needs 69891 fragments,"
        " past the 65535-fragment limit"
    ]
    # the preset's sigma draws frames past both limits in 60 s
    cfg.workload.complexity_sigma = 0.15
    for rgb in (False, True):
        cfg.toggles.transcode_avoidance = rgb
        (error,) = cfg.validate()
        assert error.startswith("seed 1 draws a frame of complexity 1.70801 whose I-frame needs")


@pytest.mark.parametrize("rgb_toggle", [False, True])
def test_configs_of_equal_values_get_equal_errors(rgb_toggle):
    # the codec's own transcode_avoidance is no key: the seeded check sizes
    # frames in the toggles' color space, so the two configs differ only
    # outside their values, and validation, cached by those values, must not see it
    a = preset_config("baseline")
    a.codec.bitrate_bps = 20_000_000_000  # only an RGB I-frame of complexity 1 is too large
    a.workload.complexity_sigma = 0.0
    a.duration_s = 1.0
    a.toggles.transcode_avoidance = rgb_toggle
    b = copy.deepcopy(a)
    b.codec.transcode_avoidance = not rgb_toggle
    assert config_values(a) == config_values(b)
    errors = a.validate()
    assert len(errors) == rgb_toggle
    _errors.cache_clear()
    _fragment_errors.cache_clear()
    assert b.validate() == errors
    assert b.validate() is not b.validate()  # a fresh list on every call


FLOAT_KEYS = [
    key for key, (path, _bound) in KEYS.items()
    if isinstance(attrgetter(path)(ScenarioConfig()), float)
]


def test_float_keys():
    assert FLOAT_KEYS == [
        "duration_s",
        "workload.complexity_sigma",
        "codec.rgb_inflation",
        "channel.jitter_sigma_us",
        "channel.loss_p",
        "channel.ge_p_gb",
        "channel.ge_p_bg",
        "channel.ge_loss_good",
        "channel.ge_loss_bad",
    ]


def _with(key, raw):
    # a 1-s run: its times stay below the 2**62-us horizon on a 1-bps link too
    cfg = ScenarioConfig(duration_s=1.0)
    errors = []
    apply_kv(cfg, key, raw, errors)
    assert errors == []
    return cfg


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_one_error(key, raw):
    assert _with(key, raw).validate() == [f"{key} must be finite"]


# per bound: a value just outside it, and the value on its closed edge
EDGES = {
    "> 0": ("0", "1"),
    ">= 0": ("-1", "0"),
    ">= 1": ("0", "1"),
    "in [0, 1]": ("1.5", "0"),
    "in (0, 1]": ("0", "1"),
}


@pytest.mark.parametrize("key", [key for key, (_path, bound) in KEYS.items() if bound])
def test_each_bound_rejects_outside_and_accepts_its_edge(key):
    bound = KEYS[key][1]
    outside, edge = EDGES[bound]
    assert _with(key, outside).validate() == [f"{key} must be {bound}"]
    assert _with(key, edge).validate() == []


def test_duration_below_one_microsecond_rejected():
    errors = _with("duration_s", "1e-7").validate()
    assert errors == ["duration_s must be at least 1 us, rounded to whole us"]
    assert _with("duration_s", "1e-6").validate() == []


def test_float_overflowing_nominal_iframe_rejected():
    cfg = _with("codec.rgb_inflation", "1e308")
    assert cfg.validate() == []  # YUV420: the inflation is not applied
    cfg.toggles.transcode_avoidance = True
    errors = cfg.validate()
    assert len(errors) == 1
    assert "fragment limit" in errors[0]


@pytest.mark.parametrize("key", ["render_fps", "codec.fps"])
def test_a_run_of_more_ticks_than_the_limit_is_rejected(key):
    # a 1-s run at f FPS has at most f + 1 ticks; validation at the limit
    # draws the run's grid, and no run starts here
    assert _with(key, str(MAX_TICKS - 1)).validate() == []
    misses = send_grid.cache_info().misses
    errors = _with(key, str(MAX_TICKS)).validate()
    assert errors == [f"a run's clocks could tick {MAX_TICKS + 1} times, past the limit of {MAX_TICKS}"]
    assert send_grid.cache_info().misses == misses  # rejected before any draw


@settings(max_examples=300)
@given(
    render_fps=st.integers(1, 240),
    fps=st.integers(1, 240),
    duration_us=st.integers(1, 3_000_000),
)
@example(render_fps=90, fps=60, duration_us=1_234_567)
@example(render_fps=60, fps=60, duration_us=2_000_001)
@example(render_fps=24, fps=60, duration_us=999_999)
@example(render_fps=240, fps=1, duration_us=2_500_001)
@example(render_fps=1, fps=240, duration_us=2_500_001)
@example(render_fps=7, fps=11, duration_us=1)
# sample 3 at 1,562 us is 0.5 us before render 1's exact time, which rounds up
# to 1,563: the one case where the closed form's ``- 1`` decides
@example(render_fps=640, fps=1921, duration_us=2_000)
def test_the_latest_render_at_each_sample_is_its_closed_form(render_fps, fps, duration_us):
    # ASYNC: each sample encodes the latest render at or before it, found
    # with ``(r*(2t+1) - 1) // (2*10**6)`` in place of a binary search
    event("render " + ("faster" if render_fps > fps else "slower" if render_fps < fps else "equal"))
    if duration_us * render_fps % US_PER_S and duration_us * fps % US_PER_S:
        event("duration a multiple of neither period")
    grid, _ = send_grid(5, 0.0, render_fps, fps, duration_us, EncodeMode.ASYNC)
    render, clock = frame_ticks(render_fps, duration_us), frame_ticks(fps, duration_us)
    latest = np.searchsorted(render, clock, side="right") - 1
    assert grid.render.tolist() == render.tolist() and grid.clock.tolist() == clock.tolist()
    # the grid keeps the latest render of the samples that send: those where it changes
    assert grid.sends.tolist() == (np.diff(latest, prepend=-1) > 0).tolist()
    assert grid.source[np.cumsum(grid.sends) - 1].tolist() == latest.tolist()


def _sigma_3():
    cfg = preset_config("openuvr")
    cfg.workload.complexity_sigma = 3.0
    cfg.duration_s = 5.0
    return cfg


SIGMA_3_ERROR = (
    "seed 1 draws a frame of complexity 44648.7 whose I-frame needs 3566298 fragments,"
    " past the 65535-fragment limit"
)


def test_the_seeded_check_names_the_seed_and_its_largest_frame():
    assert _sigma_3().validate() == [SIGMA_3_ERROR]
    # an unrelated bad key is reported beside it
    cfg = _sigma_3()
    cfg.channel.loss_p = 2.0
    assert cfg.validate() == ["channel.loss_p must be in [0, 1]", SIGMA_3_ERROR]
    # a key that it reads out of range skips it
    cfg = _sigma_3()
    cfg.codec.gop_size = 0
    assert cfg.validate() == ["codec.gop_size must be >= 1"]
    cfg = _sigma_3()
    cfg.seed = -1
    assert cfg.validate() == ["seed must be >= 0"]


def test_a_complexity_past_the_float_range_is_reported_without_a_warning():
    cfg = _sigma_3()
    cfg.workload.complexity_sigma = 1000.0  # exp overflows to inf and underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (error,) = cfg.validate()
    assert error == (
        "seed 1 draws a frame of complexity inf whose I-frame needs inf fragments,"
        " past the 65535-fragment limit"
    )
    # runs of one frame: seed 2's underflows to 0, and seed 3's I-frame
    # needs more fragments than an int64 holds
    cfg.duration_s = 1e-6
    cfg.seed = 2
    assert cfg.validate() == ["seed 2 draws a frame of complexity 0, where it must be > 0"]
    cfg.seed = 3
    assert cfg.validate() == [
        "seed 3 draws a frame of complexity 3.49764e+227 whose I-frame needs"
        " 2.793727497e+229 fragments, past the 65535-fragment limit"
    ]


def test_both_presets_validate_at_60_s():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.duration_s == 60.0 and cfg.validate() == []
