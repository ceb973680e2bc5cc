import itertools
import json
from copy import deepcopy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import RUNS, _ge_fault
from transcript_run import TranscriptRun

from uvrpipe import netsim, pipeline, stages
from uvrpipe.core import Rng, tick_time
from uvrpipe.experiments import recovery_config, recovery_trial
from uvrpipe.pipeline import Simulator, _corrupted, ab_runs, run_scenario
from uvrpipe.report import FrameRecord, report_file_dict
from uvrpipe.scenario import (
    EncodeMode,
    ScenarioConfig,
    ScenarioError,
    preset_config,
    send_grid,
    to_flat_dict,
    with_toggle,
)
from uvrpipe.stages import OptimizationToggles, TOGGLE_NAMES, build_datapath


def _short(preset="baseline", seconds=2.0, seed=42, **attrs):
    cfg = preset_config(preset)
    cfg.duration_s = seconds
    cfg.seed = seed
    for key, value in attrs.items():
        setattr(cfg, key, value)
    return cfg


def test_deterministic_transcript_and_metrics():
    a, b = TranscriptRun(_short()), TranscriptRun(_short())
    metrics = a.run().metrics.to_dict()
    assert b.run().metrics.to_dict() == metrics
    assert a.transcript == b.transcript
    assert run_scenario(_short(seed=43)).metrics.to_dict() != metrics


def test_stage_sum_equals_end_to_end_per_frame():
    res = run_scenario(_short("openuvr"))
    g = res.graph
    for rec in res.records:
        if rec.presented_us < 0:
            continue
        stages = (
            (rec.encoded_us - g.encode_path_us - rec.gen_us)
            + g.encode_path_us
            + g.host_netstack_us
            + rec.net_us
            + rec.queue_wait_us
            + g.mud_service_us
            + g.residual_us
        )
        assert rec.presented_us - rec.gen_us == stages


def test_frame_trace_timestamps_monotone():
    res = run_scenario(_short("openuvr"))
    for rec in res.records:
        if rec.presented_us < 0:
            continue
        assert (
            rec.gen_us
            <= rec.encoded_us
            <= rec.sent_first_us
            <= rec.arrived_last_us
            <= rec.decode_start_us
            <= rec.presented_us
        )


def test_single_toggle_never_hurts():
    # from any toggle combination, enabling one more never raises the mean
    means = {}
    for combo in itertools.product((False, True), repeat=5):
        toggles = OptimizationToggles(*combo)
        cfg = _short(seconds=1.0)
        cfg.toggles = toggles
        means[combo] = run_scenario(cfg).metrics.end_to_end["mean_ms"]
    for combo, mean in means.items():
        for i in range(5):
            if not combo[i]:
                upgraded = tuple(v or (j == i) for j, v in enumerate(combo))
                assert means[upgraded] <= mean + 1e-9, (combo, i)


def test_async_90fps_sampler_skips_a_third():
    cfg = _short("openuvr", seconds=5.0)
    cfg.render_fps = 90
    cfg.encode_mode = EncodeMode.ASYNC
    m = run_scenario(cfg).metrics
    assert m.frames["rendered"] == 450
    assert m.frames["sent"] == pytest.approx(300, abs=2)  # presented rate is 60 FPS
    assert m.frames["sampler_skipped"] == pytest.approx(150, abs=2)
    assert m.frames["presented"] == m.frames["sent"]


def test_sync_mode_budget_accounting():
    cfg = _short("openuvr", seconds=2.0)
    cfg.encode_mode = EncodeMode.SYNC
    m = run_scenario(cfg).metrics
    assert m.sync is not None
    assert m.sync["task_time_mean_ms"] == 3.72
    assert m.sync["tick_overruns"] == 0
    base = _short(seconds=2.0)
    base.encode_mode = EncodeMode.SYNC
    mb = run_scenario(base).metrics
    assert mb.sync["tick_overruns"] > 0  # baseline task does not fit the tick


def _sync_overruns(render_fps, render_work_us, toggles=OptimizationToggles.all_on(), seconds=1.0):
    """A SYNC run's ``tick_overruns``, and the count of its sent frames whose
    render period is shorter than rendering plus encoding."""
    cfg = _short(seconds=seconds, render_fps=render_fps, render_work_us=render_work_us)
    cfg.encode_mode = EncodeMode.SYNC
    cfg.toggles = toggles
    sim = Simulator(cfg)
    overruns = sim.run().metrics.sync["tick_overruns"]
    grid, task = sim._grid, render_work_us + sim.graph.encode_path_us
    period = tick_time(grid.source + 1, render_fps) - grid.gen
    return overruns, int((task > period).sum())


@pytest.mark.parametrize("render_fps", [60, 90, 120])
@pytest.mark.parametrize("past", [-1, 0, 1])
def test_tick_overruns_at_the_edge_of_a_period(render_fps, past):
    # at 90 FPS the periods are 11,111 and 11,112 us: a task of exactly one
    # of them fits it, 1 us more overruns it
    cfg = replace(_short(), toggles=OptimizationToggles.all_on())
    encode_path_us = Simulator(cfg).graph.encode_path_us
    shortest = 1_000_000 // render_fps  # a grid's periods: 10**6 / fps rounded down or up
    overruns, want = _sync_overruns(render_fps, shortest - encode_path_us + past)
    assert overruns == want
    assert (overruns > 0) == (past > 0)


@settings(max_examples=60)
@given(
    render_fps=st.integers(1, 240),
    render_work_us=st.integers(0, 1_100_000),
    toggles=st.sampled_from(list(itertools.product((False, True), repeat=5))),
    seconds=st.floats(0.01, 3.0),
)
def test_tick_overruns_count_the_periods_that_the_task_overruns(
    render_fps, render_work_us, toggles, seconds
):
    toggles = OptimizationToggles(*toggles)
    overruns, want = _sync_overruns(render_fps, render_work_us, toggles, seconds)
    assert overruns == want


def test_injected_drop_recovers_with_feedback():
    cfg = _short("openuvr", seconds=3.0)
    cfg.fault_drop_frame_id = 60
    res = run_scenario(cfg)
    m = res.metrics
    assert m.frames["dropped"] == 1
    assert m.feedback["iframe_requests_sent"] >= 1
    assert m.feedback["forced_iframes"] == 1
    victim = res.records[60]
    assert victim.dropped and victim.presented_us < 0
    corrupted = [r.frame_id for r in res.records if r.corrupted]
    assert corrupted and all(fid > 60 for fid in corrupted)
    assert len(corrupted) <= 5


def test_injected_drop_without_feedback_corrupts_until_next_i():
    cfg = _short(seconds=3.0)  # baseline: G=20, feedback off
    cfg.fault_drop_frame_id = 45  # gop index 5
    res = run_scenario(cfg)
    corrupted = [r.frame_id for r in res.records if r.corrupted]
    assert corrupted == list(range(46, 60))  # up to the next scheduled I at 60
    assert res.metrics.feedback["iframe_requests_sent"] == 0


def test_gop_latency_spikes_on_iframes():
    res = run_scenario(_short(seconds=2.0))
    lat = {r.frame_id: r.presented_us - r.gen_us for r in res.records if r.presented_us >= 0}
    i_frames = [r.frame_id for r in res.records if r.frame_type == "I"]
    p_lat = [v for fid, v in lat.items() if fid not in i_frames]
    for fid in i_frames:
        assert lat[fid] > max(p_lat)


@pytest.mark.parametrize("feedback", [True, False])
def test_recovery_trial_reads_the_frame_table(feedback):
    # the trial's reading of the frame table against the same run's records
    for seed in range(10_000, 10_006):
        trial = recovery_trial(seed, feedback, gop=20)
        records = run_scenario(recovery_config(seed, feedback, gop=20)).records
        victim = trial["victim"]
        recovery_i = next(
            r.frame_id
            for r in records
            if r.frame_id > victim and r.frame_type == "I" and r.presented_us >= 0
        )
        assert trial["recovery_frame_id"] == recovery_i and trial["recovered"] is True
        assert trial["corrupted_interval"] == sum(r.corrupted for r in records) > 0
        assert type(trial["recovery_frame_id"]) is type(trial["corrupted_interval"]) is int


def test_a_run_binds_at_most_one_medium(monkeypatch):
    # the fault frame goes on the air through the run's own medium, the loss
    # stream's only reader; a draw-free array run binds none
    built = []

    class Counted(netsim.Medium):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(netsim, "Medium", Counted)
    run_scenario(_ge_fault())
    assert len(built) == 1
    built.clear()
    run_scenario(RUNS["baseline"]())
    assert built == []


def test_unknown_toggle_rejected():
    with pytest.raises(ScenarioError):
        ab_runs(_short(), "warp_drive")


def test_ab_suite_validates_and_runs_each_config_once(monkeypatch):
    # 14 runs, each toggle's off and on run, then p2p's on RGB, the
    # baseline and all-on; each config validates before the first run,
    # and once more as its run starts
    events = []
    validate, run = ScenarioConfig.validate, pipeline.run_scenario
    monkeypatch.setattr(ScenarioConfig, "validate", lambda cfg: events.append("v") or validate(cfg))
    monkeypatch.setattr(pipeline, "run_scenario", lambda cfg: events.append(cfg) or run(cfg))
    base = _short(seconds=0.5)
    pipeline.ab_suite(base)
    runs = [e for e in events if e != "v"]
    assert events.index(runs[0]) == 14 and events.count("v") == 28
    rgb = with_toggle(base, "transcode_avoidance", True)
    want = [with_toggle(base, name, value) for name in TOGGLE_NAMES for value in (False, True)]
    want += [with_toggle(rgb, "p2p_topology", value) for value in (False, True)]
    want += [base, replace(base, toggles=OptimizationToggles.all_on())]
    assert runs == want


def test_ab_suite_measures_from_every_toggle_off():
    # openuvr turns every toggle on: its suite is that of its values with all off
    cfg = _short("openuvr", seconds=0.5)
    assert pipeline.ab_suite(cfg) == pipeline.ab_suite(replace(cfg, toggles=OptimizationToggles()))


def test_lossy_run_drops_and_recovers():
    cfg = _short("openuvr", seconds=5.0)
    cfg.channel.loss_p = 0.01
    m = run_scenario(cfg).metrics
    assert m.frames["dropped"] > 0
    assert m.feedback["iframe_requests_sent"] > 0
    assert m.frames["presented"] + m.frames["dropped"] + m.unresolved_frames == m.frames["sent"]


def test_validation_errors_surface():
    cfg = _short()
    cfg.codec.gop_size = 0
    with pytest.raises(ScenarioError) as err:
        Simulator(cfg)
    assert any("codec.gop_size" in e for e in err.value.errors)


def test_decode_cap_backlog_in_pipeline():
    # offer 90 FPS to the 60 FPS decoder through the whole pipeline
    cfg = _short("openuvr", seconds=10.0)
    cfg.render_fps = 90
    cfg.codec.fps = 90
    cfg.encode_mode = EncodeMode.ASYNC
    res = run_scenario(cfg)
    waits = [r.queue_wait_us for r in res.records if r.presented_us >= 0]
    tail = waits[10:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert tail[-1] > 10 * 16_667


def mark_corruption(records):
    """The per-frame corruption loop that the frame table's array step
    replaced, kept as its reference: a presented P-frame is corrupted from a
    drop until the next presented I-frame."""
    broken = False
    for rec in records:
        if rec.dropped:
            broken = True
        elif rec.presented_us >= 0:
            if rec.frame_type == "I":
                broken = False
            elif broken:
                rec.corrupted = True


# (outcome, frame type) per frame
FRAMES = st.lists(
    st.tuples(st.sampled_from(["dropped", "presented", "unresolved"]), st.sampled_from("IP")),
    max_size=60,
)


@settings(max_examples=300)
@given(FRAMES)
@example([])
@example([("dropped", "I"), ("presented", "P"), ("presented", "P")])  # a drop at frame 0
# a drop right before an I-frame
@example([("presented", "I"), ("dropped", "P"), ("presented", "I"), ("presented", "P")])
# unresolved frames, of either type, between a drop and a P-frame
@example([("dropped", "P"), ("unresolved", "P"), ("unresolved", "I"), ("presented", "P")])
def test_array_corruption_equals_the_loop(frames):
    records = [
        FrameRecord(
            frame_id=k,
            frame_type=ftype,
            forced=False,
            gen_us=0,
            presented_us=k if outcome == "presented" else -1,
            dropped=outcome == "dropped",
        )
        for k, (outcome, ftype) in enumerate(frames)
    ]
    table = {
        "dropped": np.array([r.dropped for r in records], dtype=bool),
        "presented_us": np.array([r.presented_us for r in records], dtype=np.int64),
        "frame_type": np.array([r.frame_type for r in records], dtype=str),
    }
    mark_corruption(records)
    assert _corrupted(table).tolist() == [r.corrupted for r in records]


# --- the shared send grid ----------------------------------------------------


def _grid_state(sim):
    """A Simulator's send grid as lists, and its workload stream's state."""
    grid = [array.tolist() for array in sim._grid]
    return grid, sim.rng.stream("workload").bit_generator.state


def test_runs_of_one_seed_and_clocks_share_a_read_only_grid():
    cfg = _short()
    first = Simulator(cfg)
    second = Simulator(replace(cfg, toggles=OptimizationToggles.all_on()))
    assert _grid_state(first) == _grid_state(second)
    assert all(a is b for a, b in zip(first._grid, second._grid))
    for array in second._grid:
        assert not array.flags.writeable
        if len(array) > 1:  # an ASYNC grid keeps no render periods
            with pytest.raises(ValueError):
                array[0] = array[1]


def _changed(cfg, field):
    """``cfg`` with one of the send grid's six key fields changed."""
    cfg = deepcopy(cfg)
    if field == "seed":
        cfg.seed += 1
    elif field == "complexity_sigma":
        cfg.workload.complexity_sigma *= 2
    elif field == "render_fps":
        cfg.render_fps = 120
    elif field == "fps":
        cfg.codec.fps = 72
    elif field == "duration_us":
        cfg.duration_s += 0.5
    else:
        cfg.encode_mode = EncodeMode.SYNC
    return cfg


@pytest.mark.parametrize(
    "field", ["seed", "complexity_sigma", "render_fps", "fps", "duration_us", "encode_mode"]
)
def test_changing_a_key_field_gives_the_uncached_grid(field):
    cfg = _short(render_fps=90)  # faster than the codec: SYNC and ASYNC grids differ
    base = _grid_state(Simulator(cfg))
    changed = _changed(cfg, field)
    cached = _grid_state(Simulator(changed))  # the cache held cfg's grid
    send_grid.cache_clear()
    assert cached == _grid_state(Simulator(changed))
    assert cached != base


def test_a_cache_hit_leaves_the_workload_stream_where_scalar_draws_do():
    cfg = _short("openuvr", render_fps=90)
    Simulator(cfg).run()
    hits = send_grid.cache_info().hits
    sim = Simulator(cfg)  # a cache hit: no draw, the state is restored
    sim.run()
    assert send_grid.cache_info().hits == hits + 1
    scalar = Rng(cfg.seed)
    for _ in range(sim._rendered):
        scalar.stream("workload").standard_normal()
    assert sim.rng.stream("workload").random() == scalar.stream("workload").random()


# an array run, and a run that a fault frame past its end sends through the event loop
_PATHS = {"arrays": {}, "events": {"fault_drop_frame_id": 10**6}}


@pytest.mark.parametrize("path", _PATHS)
def test_a_report_reads_the_same_through_either_json_encoder(path):
    # compact dumps takes json's C encoder and indent its Python one; a
    # config that is formatted on first read must reach both
    cfg = _short(**_PATHS[path])
    d = report_file_dict(run_scenario(cfg).metrics)
    compact = json.loads(json.dumps(d))
    assert compact == json.loads(json.dumps(d, indent=2))
    assert compact["report"]["config"] == to_flat_dict(cfg)


@pytest.mark.parametrize("path", _PATHS)
def test_a_report_keeps_the_config_of_its_run(path):
    cfg = _short(**_PATHS[path])
    at_run = deepcopy(cfg)
    metrics = run_scenario(cfg).metrics
    cfg.channel.loss_p = 0.5
    cfg.toggles.p2p_topology = True
    cfg.codec.gop_size = 7
    cfg.seed = 1
    assert to_flat_dict(cfg) != to_flat_dict(at_run)
    assert metrics.config == to_flat_dict(at_run)


def test_an_array_run_builds_no_event_loop_state():
    sim = Simulator(_short())
    sim.run()
    assert not {"queue", "walker", "reasm", "mud_fb", "host_fb"} & set(vars(sim))


def test_equal_configs_share_one_frozen_graph():
    cfg = _short()
    first, second = Simulator(cfg), Simulator(_short(seed=7))
    assert first.graph is second.graph
    assert first.graph == build_datapath(cfg.toggles, cfg.codec, cfg.channel)
    assert first.graph.toggles is not cfg.toggles
    assert build_datapath(cfg.toggles, cfg.codec, cfg.channel).toggles is not cfg.toggles
    with pytest.raises(FrozenInstanceError):
        first.graph.encode_path_us = 0
    with pytest.raises(FrozenInstanceError):
        first.graph.toggles = OptimizationToggles.all_on()


def test_equal_values_of_other_types_do_not_share_a_graph():
    # 200 == 200.0, but a float delay would make every arrival time a float:
    # validation refuses it, and the datapath cache keeps the two apart
    cfg = _short()
    cfg.channel.prop_delay_us = 200.0
    with pytest.raises(ScenarioError):
        Simulator(cfg)
    graph = stages.shared_datapath(cfg.toggles, cfg.codec, cfg.channel)
    assert type(graph.channel.prop_delay_us) is float
    assert type(Simulator(_short()).graph.channel.prop_delay_us) is int


@pytest.mark.parametrize("part", ["toggles", "codec"])
def test_changing_a_config_part_between_runs_gives_its_new_graph(part):
    cfg = _short()
    first = run_scenario(cfg)
    if part == "toggles":
        cfg.toggles.p2p_topology = True
    else:
        cfg.codec.bitrate_bps //= 2
    second = run_scenario(cfg)
    assert second.graph == build_datapath(cfg.toggles, cfg.codec, cfg.channel)
    assert second.graph != first.graph
    base = _short()
    assert first.graph == build_datapath(base.toggles, base.codec, base.channel)
    stages._datapath.cache_clear()
    assert second.metrics.to_dict() == run_scenario(cfg).metrics.to_dict()
