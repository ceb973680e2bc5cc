"""The array run of a draw-free scenario against the event loop it stands in for.

``Simulator.run`` computes a draw-free run (Bernoulli loss with
``loss_p == 0``, no jitter, no fault frame, no transcript) as numpy arrays,
and hands every other run, or one whose preconditions fail on the arrays, to
the event loop. The event loop is the reference: the report, every
``FrameRecord`` field, every ``LinkState`` field and the next draw of the
workload stream must come out the same.
"""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvrpipe.codec import DecodeServer
from uvrpipe.core import Rng
from uvrpipe.dpp import FragmentationError
from uvrpipe.netsim import LinkState, LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import EncodeMode, ScenarioConfig, preset_config
from uvrpipe.stages import OptimizationToggles

TOGGLE_SETS = list(itertools.product((False, True), repeat=5))


def _outcome(cfg, method, collect_transcript=False, last_arrival=0):
    sim = Simulator(cfg, collect_transcript=collect_transcript)
    sim.link.last_arrival = last_arrival
    result = method(sim)
    return (
        json.dumps(result.metrics.to_dict()),
        repr(result.records),
        repr(sim.link),
        repr(result.transcript),
        sim.rng.stream("workload").standard_normal(),
    )


def _events(sim):
    return sim._run_events()


def _arrays(sim):
    result = sim._run_arrays()
    assert result is not None, "the array run declined a draw-free scenario"
    return result


def _run(sim):
    return sim.run()


def _config(seed, duration_s, mode, toggles, render_fps=90, **codec):
    cfg = ScenarioConfig(seed=seed, duration_s=duration_s, render_fps=render_fps, encode_mode=mode)
    cfg.toggles = OptimizationToggles(*toggles)
    cfg.codec = replace(cfg.codec, **codec)
    return cfg


# an idle fast link with varied content, and a slow link that queues frames
# behind each other with constant content
@pytest.mark.parametrize("bandwidth_bps, sigma", [(867_000_000, 0.15), (25_000_000, 0.0)])
@pytest.mark.parametrize("mode", EncodeMode)
@pytest.mark.parametrize("toggles", TOGGLE_SETS)
def test_every_toggle_set(toggles, mode, bandwidth_bps, sigma):
    cfg = _config(3, 0.5, mode, toggles)
    cfg.channel.bandwidth_bps = bandwidth_bps
    cfg.workload.complexity_sigma = sigma
    assert _outcome(cfg, _arrays) == _outcome(cfg, _events)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    duration_s=st.floats(0.001, 0.6),
    mode=st.sampled_from(EncodeMode),
    toggles=st.sampled_from(TOGGLE_SETS),
    render_fps=st.integers(1, 240),
    codec_fps=st.sampled_from([24, 30, 60, 72, 90, 120]),
    gop_size=st.integers(1, 40),
    # wide enough to vary sizes, narrow enough that no frame nears the fragment limit
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    # slow links queue frames behind each other; a slow decoder queues them too
    bandwidth_bps=st.one_of(st.just(867_000_000), st.integers(5_000_000, 200_000_000)),
    prop_delay_us=st.integers(0, 3_000),
    bitrate_bps=st.integers(1_000_000, 200_000_000),
    decode_fps_cap=st.integers(10, 240),
    render_work_us=st.integers(0, 20_000),
)
def test_array_run_equals_event_loop(
    seed,
    duration_s,
    mode,
    toggles,
    render_fps,
    codec_fps,
    gop_size,
    sigma,
    bandwidth_bps,
    prop_delay_us,
    bitrate_bps,
    decode_fps_cap,
    render_work_us,
):
    cfg = _config(
        seed,
        duration_s,
        mode,
        toggles,
        render_fps,
        fps=codec_fps,
        gop_size=gop_size,
        bitrate_bps=bitrate_bps,
        decode_fps_cap=decode_fps_cap,
    )
    cfg.render_work_us = render_work_us
    cfg.workload.complexity_sigma = sigma
    cfg.channel.bandwidth_bps = bandwidth_bps
    cfg.channel.prop_delay_us = prop_delay_us
    assert cfg.validate() == []
    assert _outcome(cfg, _arrays) == _outcome(cfg, _events)


@pytest.mark.parametrize("preset", ["baseline", "openuvr"])
@pytest.mark.parametrize("mode", EncodeMode)
def test_presets(preset, mode):
    cfg = preset_config(preset)
    cfg.duration_s = 3.0
    cfg.encode_mode = mode
    assert _outcome(cfg, _arrays) == _outcome(cfg, _events)


@pytest.mark.parametrize("preset", ["baseline", "openuvr"])
def test_presets_admit_the_decoder_in_one_pass(preset, monkeypatch):
    # the whole 60-s run goes through DecodeServer.offer_run, never frame by frame
    def no_offer(self, arrival):
        raise AssertionError("DecodeServer.offer was called")

    monkeypatch.setattr(DecodeServer, "offer", no_offer)
    result = Simulator(preset_config(preset)).run()
    assert result.metrics.frames["sent"] == 3_600
    assert result.metrics.stages["decode-wait"]["p99_ms"] == 0.0


# --- fallback: each of these runs must come out as the event loop's -----------


def _fault_frame(cfg):
    cfg.fault_drop_frame_id = 20


def _lossy(cfg):
    cfg.channel.loss_p = 0.02


def _jittered(cfg):
    cfg.channel.jitter_sigma_us = 40.0


def _gilbert_elliott(cfg):
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT


@pytest.mark.parametrize("change", [_fault_frame, _lossy, _jittered, _gilbert_elliott])
def test_runs_that_draw_take_the_event_loop(change):
    cfg = preset_config("openuvr")
    cfg.duration_s = 2.0
    change(cfg)
    assert not Simulator(cfg)._draw_free()
    assert _outcome(cfg, _run) == _outcome(cfg, _events)


def test_transcript_run_takes_the_event_loop():
    cfg = preset_config("baseline")
    cfg.duration_s = 1.0
    assert not Simulator(cfg, collect_transcript=True)._draw_free()
    assert _outcome(cfg, _run, True) == _outcome(cfg, _events, True)


@pytest.mark.parametrize("toggles", [OptimizationToggles(), OptimizationToggles.all_on()])
def test_binding_clamp_falls_back(toggles):
    # a delivery still due at 0.5 s holds the first frames' arrivals back
    cfg = preset_config("baseline")
    cfg.duration_s = 1.0
    cfg.toggles = toggles
    sim = Simulator(cfg)
    sim.link.last_arrival = 500_000
    assert sim._run_arrays() is None
    # declined before it changed the link; the workload stream is where the
    # prefix's one batched draw leaves it, and the event loop draws no more
    assert sim.link == LinkState(last_arrival=500_000)
    prefix = Rng(cfg.seed)
    prefix.lognormal_complexity(cfg.workload.complexity_sigma, sim._rendered)
    next_draw = prefix.stream("workload").standard_normal()
    assert sim.rng.stream("workload").standard_normal() == next_draw
    assert _outcome(cfg, _run, last_arrival=500_000) == _outcome(
        cfg, _events, last_arrival=500_000
    )


def test_frame_over_the_fragment_limit_falls_back():
    # frame 0 of seed 3 needs ~69k fragments; the event loop raises there
    cfg = preset_config("openuvr")
    cfg.seed = 3
    cfg.duration_s = 0.05
    cfg.codec.bitrate_bps = 16_000_000_000
    sim = Simulator(cfg)
    assert sim._run_arrays() is None
    with pytest.raises(FragmentationError) as from_run:
        Simulator(cfg).run()
    with pytest.raises(FragmentationError) as from_events:
        Simulator(cfg)._run_events()
    assert str(from_run.value) == str(from_events.value)


def test_times_past_int64_fall_back():
    # On a 1-bps P2P link 8,400 frames of 140 MB each end past 2**63 us.
    # The event loop's Python ints carry such times; int64 arrays would wrap.
    cfg = ScenarioConfig(seed=1, duration_s=140.0)
    cfg.toggles = OptimizationToggles(p2p_topology=True)
    cfg.codec.gop_size = 1
    cfg.codec.bitrate_bps = 67_200_000_000
    cfg.workload.complexity_sigma = 0.0
    cfg.channel.bandwidth_bps = 1
    assert cfg.validate() == []
    assert Simulator(cfg)._run_arrays() is None
    # both sides below are the event loop, so check that such times occur
    # and reach the records as exact Python ints
    presented = [r.presented_us for r in Simulator(cfg).run().records]
    assert max(presented) > 2**63
    assert all(type(t) is int for t in presented)
    assert _outcome(cfg, _run) == _outcome(cfg, _events)
