"""The array run of a draw-free scenario against the event loop it stands in for.

``Simulator.run`` computes a draw-free run (Bernoulli loss with
``loss_p == 0``, no jitter, no fault frame) as numpy arrays, and hands
every other run to the event loop. The event loop is the reference: the report, every
``FrameRecord`` field, every ``LinkState`` field and the next draw of the
workload stream must come out the same.

An array run is its grid's shared timing (``pipeline.array_timing``),
computed once per grid, codec and channel, shifted by its own datapath's
constants. A run whose timing comes from the cache must equal one that
computes it afresh. Its report reads what the timing cell fixes (the
network stage's order and distribution and the single decode wait; no
frame of such a cell waits for the sampler), and must equal the general report over the same frame table and the
event loop's, key order included. Such a run builds its frame table only when
it is read, and the table it builds must equal the event loop's.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from uvrpipe import pipeline
from uvrpipe.codec import DecodeServer
from uvrpipe.dpp import MAX_FRAGS, fragment_layout
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import EncodeMode, ScenarioConfig, ScenarioError, preset_config
from uvrpipe.stages import OptimizationToggles, codec_values

TOGGLE_SETS = list(itertools.product((False, True), repeat=5))


def _outcome(cfg, method):
    sim = Simulator(cfg)
    result = method(sim)
    return (
        json.dumps(result.metrics.to_dict()),
        repr(result.records),
        repr(sim.link),
        sim.rng.stream("workload").standard_normal(),
    )


def _events(sim):
    return sim._run_events()


def _arrays(sim):
    return sim._run_arrays()


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


# the draw-free config space: every toggle set in both encode modes, with
# clocks, GOPs, content, links and decoders that vary
CONFIG_SPACE = st.fixed_dictionaries(
    dict(
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
)


def _space_config(p):
    cfg = _config(
        p["seed"],
        p["duration_s"],
        p["mode"],
        p["toggles"],
        p["render_fps"],
        fps=p["codec_fps"],
        gop_size=p["gop_size"],
        bitrate_bps=p["bitrate_bps"],
        decode_fps_cap=p["decode_fps_cap"],
    )
    cfg.render_work_us = p["render_work_us"]
    cfg.workload.complexity_sigma = p["sigma"]
    cfg.channel.bandwidth_bps = p["bandwidth_bps"]
    cfg.channel.prop_delay_us = p["prop_delay_us"]
    assert cfg.validate() == []
    return cfg


@settings(max_examples=300, deadline=None)
@given(params=CONFIG_SPACE)
def test_array_run_equals_event_loop(params):
    cfg = _space_config(params)
    assert _outcome(cfg, _arrays) == _outcome(cfg, _events)


def _no_frame_sent():
    # rendering at 90 FPS for a 60-FPS codec, SYNC sends nothing on tick 0
    return _config(3, 0.001, EncodeMode.SYNC, (False,) * 5)


def _decoder_waits(mode):
    cfg = preset_config("baseline")
    cfg.duration_s = 3.0
    cfg.encode_mode = mode
    cfg.codec.decode_fps_cap = 10
    cfg.codec.bitrate_bps = 1_000_000
    return cfg


def test_a_run_that_sends_no_frame_leaves_the_link_as_the_event_loop_does():
    cfg = _no_frame_sent()
    assert Simulator(cfg).run().metrics.frames["sent"] == 0
    assert _outcome(cfg, _arrays) == _outcome(cfg, _events)


@pytest.mark.parametrize("mode", EncodeMode)
def test_a_decoder_that_makes_frames_wait(mode):
    cfg = _decoder_waits(mode)
    assert Simulator(cfg).run().frames["queue_wait_us"].max() > 0
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


# --- runs that draw take the event loop ---------------------------------------


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


def _p2p_config(prop_delay_us, slow=False):
    cfg = preset_config("baseline")
    cfg.duration_s = 0.1
    cfg.toggles.p2p_topology = True  # on P2P a frame's busy time leaves out the delay
    cfg.channel.prop_delay_us = prop_delay_us
    if slow:  # frames of seconds on the air and a decoder of 1 FPS
        cfg.codec.bitrate_bps = 200_000_000
        cfg.codec.decode_fps_cap = 1
        cfg.channel.bandwidth_bps = 1_000_000
    return cfg


def _p2p_timing(prop_delay_us, slow=False):
    cfg = _p2p_config(prop_delay_us, slow)
    sim = Simulator(cfg)
    return cfg, sim, pipeline.array_timing(cfg, sim.graph)


def test_a_delay_past_the_link_horizon_fails_validation():
    # the largest delay at which the unshifted timing stayed within the bound
    # that clean_run once checked (the last request plus every frame at the
    # longest busy time) and a run's shift took it past: validation rejects it
    _, _, base = _p2p_timing(0, slow=True)
    busy = int((base.last - base.start).max())  # on P2P at no delay
    horizon = int((base.last - base.net).max()) + busy * len(base.last)
    errors = _p2p_config(2**62 - 1 - horizon, slow=True).validate()
    assert len(errors) == 1 and "2**62-us horizon" in errors[0]


def test_a_delay_near_the_decoder_horizon_runs_as_arrays():
    # the unshifted decode arrivals end where offer_run's scaled times reach
    # its int64 bound, so the event loop's shifted ones are admitted frame
    # by frame; validation keeps the times below 2**62, and the array run
    # shifts its timing's decode starts as they are
    base_cfg, _, base = _p2p_timing(0)
    n, cap = len(base.last), base_cfg.codec.decode_fps_cap
    top = (2**62 - 1 - (n + 2) * DecodeServer.TOKEN) // cap
    cfg, _, timing = _p2p_timing(top - int(base.last[-1]))
    assert timing.last[-1] == top
    assert cfg.validate() == []
    assert _outcome(cfg, _run) == _outcome(cfg, _arrays) == _outcome(cfg, _events)


def test_a_frame_at_the_fragment_limit_runs_as_the_event_loop_does():
    # frame 0 of seed 3, an I-frame, draws the grid's largest complexity
    # (1.08): the highest bitrate that validates gives it at most 65,535
    # fragments, and one bps more fails validation, before either path runs
    cfg = preset_config("openuvr")
    cfg.seed = 3
    cfg.duration_s = 0.05
    lo, hi = 1, 16_000_000_000  # validation passes at lo and fails at hi
    while hi - lo > 1:
        cfg.codec.bitrate_bps = (lo + hi) // 2
        lo, hi = (cfg.codec.bitrate_bps, hi) if cfg.validate() == [] else (lo, cfg.codec.bitrate_bps)
    cfg.codec.bitrate_bps = hi
    (error,) = cfg.validate()
    assert error.startswith("seed 3 draws a frame of complexity 1.08176 whose I-frame needs 65536 ")
    with pytest.raises(ScenarioError):
        Simulator(cfg)
    cfg.codec.bitrate_bps = lo
    assert _outcome(cfg, _run) == _outcome(cfg, _arrays) == _outcome(cfg, _events)
    sizes = Simulator(cfg).run().frames["size_bytes"]
    assert sizes.argmax() == 0 and fragment_layout(int(sizes[0]))[0] == MAX_FRAGS


# --- the shared timing: a run that takes it from the cache equals a fresh one -


def _suite_configs(base):
    """The configs of ``ab_suite(base)``'s runs, in the suite's order."""
    configs, run_scenario = [], pipeline.run_scenario

    def record(cfg):
        configs.append(cfg)
        return run_scenario(cfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "run_scenario", record)
        pipeline.ab_suite(base)
    return configs


def _baseline_42():
    cfg = preset_config("baseline")
    cfg.seed = 42
    return cfg


SUITE = _suite_configs(_baseline_42())


def _warm_up(cfg):
    """A config of the same grid, codec and channel with other toggles: the
    toggles that neither change the color space nor the topology flipped."""
    toggles = cfg.toggles
    return replace(
        cfg,
        toggles=replace(
            toggles,
            shared_gpu_buffer=not toggles.shared_gpu_buffer,
            direct_net_io=not toggles.direct_net_io,
            feedback_control=not toggles.feedback_control,
        ),
    )


def _table(cfg):
    sim = Simulator(cfg)
    result = sim.run()
    columns = {name: (col.dtype, col.tolist()) for name, col in result.frames.items()}
    return json.dumps(result.metrics.to_dict()), columns, sim.link


def _shared_and_fresh(cfg):
    warm = _warm_up(cfg)
    assert Simulator(warm).graph.codec == Simulator(cfg).graph.codec
    assert Simulator(warm).graph.channel == Simulator(cfg).graph.channel
    pipeline._timing.cache_clear()
    Simulator(warm).run()
    hits = pipeline._timing.cache_info().hits
    shared = _table(cfg)
    assert pipeline._timing.cache_info().hits == hits + 1
    pipeline._timing.cache_clear()
    return shared, _table(cfg)


def test_the_suite_has_four_timing_cells():
    assert len(SUITE) == 14
    cells = {(c.toggles.transcode_avoidance, c.toggles.p2p_topology) for c in SUITE}
    assert len(cells) == 4
    pipeline._timing.cache_clear()
    pipeline._layout.cache_clear()
    results, run_scenario = [], pipeline.run_scenario

    def record(cfg):
        results.append(run_scenario(cfg))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "run_scenario", record)
        pipeline.ab_suite(_baseline_42())
    assert pipeline._timing.cache_info().misses == 4
    # the two topologies of a color space share its sizes and layout
    assert pipeline._layout.cache_info().misses == 2
    # every run reads its report off its cell: none builds a frame table
    assert len(results) == 14
    assert not any("frames" in vars(result) for result in results)


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_suite_run_with_shared_timing_equals_a_fresh_one(index):
    shared, fresh = _shared_and_fresh(SUITE[index])
    assert shared == fresh


@settings(max_examples=150, deadline=None)
@given(params=CONFIG_SPACE)
def test_shared_timing_equals_a_fresh_one(params):
    shared, fresh = _shared_and_fresh(_space_config(params))
    assert shared == fresh


@pytest.mark.parametrize(
    "cfg", [_no_frame_sent(), _decoder_waits(EncodeMode.SYNC), _decoder_waits(EncodeMode.ASYNC)]
)
def test_edge_runs_with_shared_timing_equal_fresh_ones(cfg):
    shared, fresh = _shared_and_fresh(cfg)
    assert shared == fresh


def test_cached_timing_is_read_only():
    for mode in EncodeMode:
        _assert_read_only(replace(_baseline_42(), encode_mode=mode))


def _assert_read_only(cfg):
    """Every array that ``cfg``'s run shares through a cache is read-only."""
    pipeline._timing.cache_clear()
    pipeline._layout.cache_clear()
    sim = Simulator(cfg)
    timing = pipeline.array_timing(cfg, sim.graph)
    network, decode_wait, to_decode = timing.stages
    # a single value as a Python int, which build_distributions takes as a constant
    assert type(decode_wait) is int
    grid = sim._grid
    layout = pipeline._layout(
        cfg.seed,
        cfg.workload.complexity_sigma,
        cfg.render_fps,
        cfg.duration_us,
        cfg.encode_mode,
        *codec_values(sim.graph.codec),
    )
    arrays = {
        "timing": [value for value in timing if isinstance(value, np.ndarray)],
        "layout": [value for value in layout if isinstance(value, np.ndarray)],
        "grid": list(grid),
        "stages": [network.ordered, to_decode],
    }
    assert [len(group) for group in arrays.values()] == [7, 4, 9, 2]
    # the timing shares its color space's layout
    assert timing.frame_type is layout.frame_type and timing.size_bytes is layout.size_bytes
    assert len(grid.period) == (len(grid.tick) if cfg.encode_mode is EncodeMode.SYNC else 0)
    for array in itertools.chain(*arrays.values()):
        assert not array.flags.writeable
        if len(array) > 1:
            with pytest.raises(ValueError):
                array[0] = array[1]


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_a_frame_table_built_on_read_equals_the_eager_one(index):
    # a suite run's report builds no frame table; read, the table equals the
    # one that the array run builds before its report when its cell keeps no
    # stages, and the event loop's, column by column with dtypes
    cfg = SUITE[index]
    result = Simulator(cfg).run()
    assert "frames" not in vars(result)
    records = result.records  # built from the table, which it builds
    assert "frames" in vars(result) and result.frames is result.frames
    sim = Simulator(cfg)
    timing = pipeline.array_timing(cfg, sim.graph)
    eager = sim._array_frames(timing, sim.graph.encode_path_us + sim.graph.host_netstack_us)
    events = Simulator(cfg)._run_events()
    assert list(result.frames) == list(eager)
    for table in (eager, events.frames):
        assert result.frames.keys() == table.keys()
        for name, column in table.items():
            assert result.frames[name].dtype == column.dtype, name
            assert result.frames[name].tolist() == column.tolist(), name
    assert repr(records) == repr(events.records)


def test_a_cell_without_stages_builds_its_frame_table_before_its_report():
    cfg = _decoder_waits(EncodeMode.ASYNC)
    sim = Simulator(cfg)
    assert pipeline.array_timing(cfg, sim.graph).stages is None
    result = sim.run()
    assert "frames" in vars(result)
    events = Simulator(cfg)._run_events()
    assert json.dumps(result.metrics.to_dict()) == json.dumps(events.metrics.to_dict())


# --- the report of an array run reads its timing cell's statistics ----------


def _three_reports(cfg):
    """A run's report JSON as the array run makes it (from its timing cell's
    statistics when the cell has them), as ``build_distributions`` makes it
    over the same frame table, and as the event loop makes it; and whether
    the cell had the statistics."""
    sim = Simulator(cfg)
    result = _arrays(sim)
    timing = pipeline.array_timing(cfg, sim.graph)
    general = sim._metrics(result.frames)  # given no timing: the general path
    events = Simulator(cfg)._run_events().metrics
    reports = [json.dumps(m.to_dict()) for m in (result.metrics, general, events)]
    return reports, timing.stages is not None


@settings(max_examples=400, deadline=None)
@given(params=CONFIG_SPACE)
def test_cell_statistics_give_the_general_and_the_event_loop_report(params):
    reports, known = _three_reports(_space_config(params))
    event("cell statistics" if known else "general path")
    assert reports[0] == reports[1] == reports[2]


def _params(**changes):
    params = dict(
        seed=42,
        duration_s=0.5,
        mode=EncodeMode.ASYNC,
        toggles=(False,) * 5,
        render_fps=60,
        codec_fps=60,
        gop_size=20,
        sigma=0.15,
        bandwidth_bps=867_000_000,
        prop_delay_us=200,
        bitrate_bps=20_000_000,
        decode_fps_cap=120,
        render_work_us=11_100,
    )
    params.update(changes)
    return params


# (params, whether the cell has the statistics)
STATISTICS_CASES = {
    "baseline": (_params(), True),
    "p2p, rgb": (_params(toggles=(True, False, False, True, False)), True),
    # every frame the same size on an idle link: the network stage has one value
    "gop 1, constant content": (_params(gop_size=1, sigma=0.0), False),
    "decoder below the codec rate": (_params(decode_fps_cap=30), False),
    "async at 90 fps": (_params(render_fps=90), False),
    "sync, 120 to 60": (_params(mode=EncodeMode.SYNC, render_fps=120), True),
    # frames queue behind each other for hours: net leaves int32
    "slow link": (_params(bandwidth_bps=7_000), True),
    "one frame": (_params(duration_s=0.01), False),
    # the reference frames take longer than the cell's target: no fixed overhead
    "no fixed overhead": (_params(bandwidth_bps=25_000_000), True),
}


def _numpy_dist_ms(values_us):
    """A distribution as ``np.percentile`` gives it, sharing no sort."""
    arr = np.asarray(values_us, dtype=np.float64) / 1000.0
    return {
        "mean_ms": round(float(arr.mean()), 4),
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
    }


@pytest.mark.parametrize("case", STATISTICS_CASES)
def test_cell_statistics_cases(case):
    params, known = STATISTICS_CASES[case]
    cfg = _space_config(params)
    reports, got = _three_reports(cfg)
    assert got == known
    assert reports[0] == reports[1] == reports[2]
    # and against numpy's own percentiles of the frame table
    result = Simulator(cfg).run()
    frames, metrics = result.frames, result.metrics
    assert metrics.stages["network"] == _numpy_dist_ms(frames["net_us"])
    e2e = {k: v for k, v in metrics.end_to_end.items() if k != "mean_frames_60fps"}
    assert e2e == _numpy_dist_ms(frames["presented_us"] - frames["gen_us"])


def test_the_explicit_cases_reach_their_edges():
    def parts(case):
        cfg = _space_config(STATISTICS_CASES[case][0])
        sim = Simulator(cfg)
        return sim, pipeline.array_timing(cfg, sim.graph)

    sim, timing = parts("baseline")
    assert sim.graph.link_fixed_us > 0
    sim, timing = parts("no fixed overhead")
    assert sim.graph.link_fixed_us == 0
    _, timing = parts("slow link")
    ordered = timing.stages[0].ordered
    assert ordered.dtype == np.int64 and ordered[0] < 2**31 <= ordered[-1] < 2**32
    _, timing = parts("one frame")
    assert len(timing.net) == 1
    sim, timing = parts("sync, 120 to 60")
    assert len(timing.net) * 2 == len(sim._grid.render)
