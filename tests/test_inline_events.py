"""The event loop against the run that heaps every event, its reference.

``Simulator._run_events`` leaves two kinds of event off its heap. A frame's
burst whose last arrival comes strictly before the next tick that sends and
strictly before every event on the heap is handled at the end of its own
tick: it is the loop's next dispatch. An I-frame request that reaches the
host strictly before the next tick that sends is decided when it is sent:
only an encode reads or writes the host's feedback state. ``TranscriptRun``
(``transcript_run.py``) keeps every event on the heap and writes the
transcript that shows the ties below; it is the reference. The report, every
frame-table column with its dtype, the link and both feedback states must
come out the same. (The decoder's end state follows from the
``decode_start_us`` and ``queue_wait_us`` columns.)

A drop deadline shorter than a partial burst's span falls before the
burst's own dispatch time; the frame then drops as that burst is handled.
"""

import json
from copy import deepcopy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from method_run import MethodRun
from transcript_run import TranscriptRun

from uvrpipe import pipeline
from uvrpipe.core import EventQueue
from uvrpipe.cp import WIRE_BYTES
from uvrpipe.netsim import LossModel, serialization_us
from uvrpipe.pipeline import Simulator, run_scenario
from uvrpipe.scenario import EncodeMode, preset_config


def _outcome(sim):
    result = sim.run()
    return (
        json.dumps(result.metrics.to_dict()),
        {name: (column.dtype.str, column.tolist()) for name, column in result.frames.items()},
        repr(sim.link),
        repr(sim.mud_fb),
        repr(sim.host_fb),
    )


def _assert_same(cfg):
    assert _outcome(Simulator(cfg)) == _outcome(TranscriptRun(cfg))


def _sent(cfg):
    return len(Simulator(cfg)._grid.frame_id)


SPACE = st.fixed_dictionaries(
    dict(
        seed=st.integers(0, 2**32 - 1),
        duration_s=st.floats(0.05, 1.5),
        # (loss model, Bernoulli loss_p or the Gilbert-Elliott p_gb, p_bg); every
        # one draws, so neither run takes the array run
        loss=st.one_of(
            st.tuples(st.just(LossModel.BERNOULLI), st.one_of(st.just(1.0), st.floats(1e-3, 1.0))),
            st.tuples(
                st.just(LossModel.GILBERT_ELLIOTT),
                st.sampled_from([(0.01, 0.2), (0.3, 0.1), (0.05, 0.05)]),
            ),
        ),
        jitter_sigma_us=st.sampled_from([0.0, 40.0]),
        p2p=st.booleans(),
        mode=st.sampled_from(EncodeMode),
        render_fps=st.sampled_from([60, 72, 90, 120]),
        feedback=st.booleans(),
        fault=st.sampled_from(["none", "first", "mid", "last"]),
        suppression_window_us=st.sampled_from([0, 1_000_000]),
        # a deadline shorter than a partial burst's span (see above); most
        # drawn here are longer
        drop_deadline_us=st.one_of(
            st.sampled_from([1, 33_334, 100_000]),
            st.integers(1, 100_000),
            st.integers(2_000, 100_000),
        ),
        # below the codec's 60 FPS the decoder makes frames wait
        decode_fps_cap=st.sampled_from([30, 45, 60]),
    )
)


def _space_config(p):
    cfg = preset_config("openuvr")
    cfg.seed = p["seed"]
    cfg.duration_s = p["duration_s"]
    model, value = p["loss"]
    cfg.channel.loss_model = model
    if model is LossModel.BERNOULLI:
        cfg.channel.loss_p = value
    else:
        cfg.channel.ge_p_gb, cfg.channel.ge_p_bg = value
    cfg.channel.jitter_sigma_us = p["jitter_sigma_us"]
    cfg.toggles.p2p_topology = p["p2p"]
    cfg.toggles.feedback_control = p["feedback"]
    cfg.encode_mode = p["mode"]
    cfg.render_fps = p["render_fps"]
    cfg.suppression_window_us = p["suppression_window_us"]
    cfg.drop_deadline_us = p["drop_deadline_us"]
    cfg.codec.decode_fps_cap = p["decode_fps_cap"]
    sent = _sent(cfg)
    cfg.fault_drop_frame_id = {"none": -1, "first": 0, "mid": sent // 2, "last": sent - 1}[
        p["fault"]
    ]
    assert cfg.validate() == []
    return cfg


# ``uvrpipe sim run --preset openuvr --set channel.loss_model=gilbert_elliott
# --set proto.drop_deadline_us=100 --set duration_s=5``: deadlines inside
# their own partial bursts
REPRO = dict(
    seed=1,
    duration_s=5.0,
    loss=(LossModel.GILBERT_ELLIOTT, (0.01, 0.2)),
    jitter_sigma_us=0.0,
    p2p=True,
    mode=EncodeMode.ASYNC,
    render_fps=60,
    feedback=True,
    fault="none",
    suppression_window_us=200_000,
    drop_deadline_us=100,
    decode_fps_cap=60,
)


@settings(max_examples=300, deadline=None)
@given(params=SPACE)
@example(REPRO)
def test_plain_run_equals_transcript_run(params):
    _assert_same(_space_config(params))


# --- ties: an event at exactly the time that a strict bound compares with ---
#
# Each example below is built so that its transcript shows the tie, and each
# bound turned from < into <= makes one of them fail.


def _tied_base(fps=50):
    """openuvr rendering and sending at ``fps`` for 2 s with one P-frame
    size: every send tick lies ``1_000_000 // fps`` us after the last, and on
    an idle link every P-frame takes one time from its send tick to its last
    arrival."""
    cfg = preset_config("openuvr")
    cfg.seed = 5
    cfg.duration_s = 2.0
    cfg.render_fps = cfg.codec.fps = fps
    cfg.workload.complexity_sigma = 0.0
    return cfg


def _p_frame_latency(cfg):
    """A P-frame's time from its send tick to its last arrival on an idle,
    loss-free link."""
    probe = deepcopy(cfg)
    probe.channel.loss_model, probe.channel.loss_p = LossModel.BERNOULLI, 0.0
    probe.fault_drop_frame_id = -1
    sim = Simulator(probe)
    # the shortest: a P-frame right after the I-frame may queue behind it
    frames = sim.run().records[1:]
    return min(f.arrived_last_us - f.encoded_us for f in frames) + sim.graph.encode_path_us


def _request_us(cfg):
    """An I-frame request's serialization time on the channel."""
    return serialization_us(WIRE_BYTES, cfg.channel.bandwidth_bps)


def _arrivals(cfg, monkeypatch):
    """Each frame's (first, last) arrival as the receiver takes it, in a
    run whose deadline drops no frame: until its first drop, a run with
    ``cfg``'s deadline has the same arrivals."""
    cfg = deepcopy(cfg)
    cfg.drop_deadline_us = 10**9
    seen = {}
    handle_burst = MethodRun._handle_burst

    def record(self, t, event):
        seen[event[1]] = event[2:4]  # (first, last)
        return handle_burst(self, t, event)

    monkeypatch.setattr(MethodRun, "_handle_burst", record)
    MethodRun(cfg).run()  # always the event loop: a draw-free Simulator would take the array run
    monkeypatch.undo()
    return seen


def _transcript(cfg):
    sim = TranscriptRun(cfg)
    sim.run()
    return sim.transcript


def _ties(transcript, kinds, other_kinds):
    """Times at which an event of ``kinds`` and one of ``other_kinds`` both
    dispatch."""
    times = {t for t, kind, _ in transcript if kind in other_kinds}
    return {t for t, kind, _ in transcript if kind in kinds and t in times}


def test_a_burst_on_the_next_tick_waits_for_it(monkeypatch):
    # SYNC at 120 FPS sends at 50 FPS, its send ticks 16,667 or 25,000 us
    # apart, and every P-frame's last fragment arrives 16,667 us after its
    # send tick. The first such burst after frame 20 that lands on the next
    # tick, the burst before it handled, is made a fault frame that loses its
    # second fragment, and its deadline is made to fall on the next frame's
    # last arrival. Were the burst handled before that tick, its deadline
    # would go on the heap before the next frame's burst and be dispatched
    # first: the drop would come before the next frame's completion.
    cfg = _tied_base()
    cfg.render_fps, cfg.encode_mode = 120, EncodeMode.SYNC
    cfg.channel.prop_delay_us += 16_667 - _p_frame_latency(cfg)
    ticks = Simulator(cfg)._grid.tick.tolist()
    arrivals = _arrivals(cfg, monkeypatch)
    victim = next(
        k
        for k in range(20, len(ticks) - 1)
        if arrivals[k][1] == ticks[k + 1] and arrivals[k - 1][1] < ticks[k]
    )
    cfg.fault_drop_frame_id, cfg.fault_drop_frag_index = victim, 1
    cfg.drop_deadline_us = arrivals[victim + 1][1] - arrivals[victim][0] - 1
    transcript = _transcript(cfg)
    assert ticks[victim + 1] in _ties(transcript, {"burst"}, {"render"})
    assert _ties(transcript, {"burst"}, {"deadline"})
    _assert_same(cfg)


@pytest.mark.parametrize("later", [1, 2, 3])
def test_a_burst_on_a_pending_deadline_waits_for_it(monkeypatch, later):
    # the fault frame loses its second fragment and stays pending; its
    # deadline is made to fall on the last arrival of the frame ``later``
    # frames on, whose burst must then wait on the heap behind it
    cfg = _tied_base()
    victim = cfg.fault_drop_frame_id = 30
    cfg.fault_drop_frag_index = 1
    arrivals = _arrivals(cfg, monkeypatch)
    cfg.drop_deadline_us = arrivals[victim + later][1] - arrivals[victim][0] - 1
    assert _ties(_transcript(cfg), {"burst"}, {"deadline"})
    _assert_same(cfg)


@pytest.mark.parametrize("window_us", [0, 1_000_000])
def test_a_request_on_the_next_tick_waits_for_it(window_us):
    # a request sent when a P-frame's burst completes leaves on an idle link
    # and arrives one control packet and one propagation delay later: on the
    # next send tick when twice the delay makes up the rest of the tick. Of
    # 40 and 50 FPS, one leaves an even rest. A fault frame puts the run in
    # recovery, in which every P-frame that completes sends a request.
    for fps in (50, 40):
        cfg = _tied_base(fps)
        rest = _p_frame_latency(cfg) - cfg.channel.prop_delay_us + _request_us(cfg)
        if (1_000_000 // fps - rest) % 2 == 0:
            break
    cfg.channel.prop_delay_us = (1_000_000 // fps - rest) // 2
    cfg.fault_drop_frame_id = 30
    cfg.suppression_window_us = window_us
    assert _ties(_transcript(cfg), {"cp"}, {"sample"})
    _assert_same(cfg)


@pytest.mark.parametrize("window_us", [0, 1_000_000])
def test_a_request_on_a_pending_deadline(window_us):
    # under heavy loss most frames lose a fragment and are dropped at their
    # deadline, one send tick after the previous frame's; a request sent at
    # a deadline then arrives at the next one
    cfg = _tied_base()
    cfg.channel.loss_p = 0.1
    cfg.channel.prop_delay_us = 20_000 - _request_us(cfg)
    cfg.suppression_window_us = window_us
    assert _ties(_transcript(cfg), {"cp"}, {"deadline"})
    _assert_same(cfg)


def test_the_lossy_benchmark_run_heaps_few_events(monkeypatch):
    # perfbench's sim_lossy run: openuvr under Gilbert-Elliott loss for 60 s,
    # 3,600 frames. With every burst and request on the heap it pushed 6,484
    # events; the inline cases leave 1,115.
    pushed = []

    class Counted(EventQueue):
        def schedule(self, t, event):
            pushed.append(event[0])
            super().schedule(t, event)

    monkeypatch.setattr(pipeline, "EventQueue", Counted)
    cfg = preset_config("openuvr")
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.seed = 42
    assert run_scenario(cfg).metrics.frames["sent"] == 3_600
    assert 0 < len(pushed) <= 1_200


def test_a_deadline_inside_its_own_burst_drops_the_frame():
    report = run_scenario(_space_config(REPRO)).metrics
    frames = report.frames
    assert frames["dropped"] > 0
    assert frames["presented"] + frames["dropped"] + report.unresolved_frames == frames["sent"]
