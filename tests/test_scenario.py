from dataclasses import asdict

import pytest

from uvrpipe.netsim import LossModel
from uvrpipe.scenario import (
    EncodeMode,
    ScenarioConfig,
    ScenarioError,
    emit_scenario,
    parse_scenario,
    parse_scenario_text,
    preset_config,
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
    cfg = preset_config("baseline")
    cfg.codec.bitrate_bps = 20_000_000_000  # a nominal I-frame of ~145 MB fits
    assert cfg.validate() == []
    # RGB inflation takes the same I-frame past 65,535 fragments of 2,281 bytes
    cfg.toggles.transcode_avoidance = True
    errors = cfg.validate()
    assert len(errors) == 1
    assert "65535-fragment limit" in errors[0]
