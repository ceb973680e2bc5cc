"""The simulator's in-order receiver against a real ``Reassembler``.

Every frame goes on the air once, and the final hop is FIFO, so bursts reach
the receiver in frame-id order and a pending frame never completes. The
event loop's receiver keeps only the newest frame id that delivered a
fragment and a deque of the pending frames' (id, deadline anchor), whose
expired frames are always a prefix. ``ReassemblerRun``
(``reassembler_run.py``), whose receiver is a ``Reassembler`` with its drop
sweep and gap registration, is the reference: the report, every frame-table
column with its dtype, the link and both feedback states must come out the
same.

An outage (``_outage``) loses every fragment of a range of frames, so the
jumps in frame ids can be set exactly: at most ``dpp.GAP_LIMIT`` frames
apart, the frames skipped turn pending and drop at their deadline; further
apart they stay unresolved.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from method_run import MethodRun
from reassembler_run import ReassemblerRun

from uvrpipe import dpp
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import EncodeMode, preset_config


def _outage(cls, lost):
    """``cls`` with every fragment of the frames in ``lost`` lost on the
    last hop: each still takes the medium as it was drawn."""

    class Outage(cls):
        def _transmit(self, frame_id, count, tail_wire, request):
            sent = super()._transmit(frame_id, count, tail_wire, request)
            return None if frame_id in lost else sent

    return Outage


def _outcome(sim):
    result = sim.run()
    return (
        json.dumps(result.metrics.to_dict()),
        {name: (column.dtype.str, column.tolist()) for name, column in result.frames.items()},
        repr(sim.link),
        repr(sim.mud_fb),
        repr(sim.host_fb),
    )


SPACE = st.fixed_dictionaries(
    dict(
        seed=st.integers(0, 2**32 - 1),
        duration_s=st.floats(0.05, 1.0),
        # every one draws, so both runs take the event loop
        loss=st.one_of(
            st.tuples(st.just(LossModel.BERNOULLI), st.one_of(st.just(1.0), st.floats(1e-3, 1.0))),
            st.tuples(
                st.just(LossModel.GILBERT_ELLIOTT),
                st.sampled_from([(0.01, 0.2), (0.3, 0.1), (0.05, 0.05)]),
            ),
        ),
        jitter_sigma_us=st.sampled_from([0.0, 40.0, 400.0]),
        p2p=st.booleans(),
        mode=st.sampled_from(EncodeMode),
        render_fps=st.sampled_from([60, 90, 120]),
        feedback=st.booleans(),
        fault=st.sampled_from(["none", "first", "mid"]),
        # 1/10,000 makes most P-frames one packet, whose burst is a single arrival
        p_to_i_ratio=st.sampled_from([Fraction(1, 4), Fraction(1, 10_000)]),
        drop_deadline_us=st.one_of(
            st.sampled_from([1, 100, 33_334, 200_000]), st.integers(1, 200_000)
        ),
        # (first frame, frames) lost whole, or none
        outage=st.one_of(st.none(), st.tuples(st.integers(0, 30), st.integers(1, 40))),
    )
)


def _config(p):
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
    cfg.drop_deadline_us = p["drop_deadline_us"]
    cfg.codec.p_to_i_ratio = p["p_to_i_ratio"]
    sent = len(Simulator(cfg)._grid.frame_id)
    cfg.fault_drop_frame_id = {"none": -1, "first": 0, "mid": sent // 2}[p["fault"]]
    assert cfg.validate() == []
    return cfg


def _lost(p):
    if p["outage"] is None:
        return range(0)
    start, frames = p["outage"]
    return range(start, start + frames)


def _run(p, cls=Simulator):
    return _outage(cls, _lost(p))(_config(p))


def _params(**changes):
    """A clean P2P run at 60 FPS, so that only the outage loses frames."""
    params = dict(
        seed=1,
        duration_s=1.0,
        loss=(LossModel.BERNOULLI, 1e-9),
        jitter_sigma_us=0.0,
        p2p=True,
        mode=EncodeMode.ASYNC,
        render_fps=60,
        feedback=True,
        fault="none",
        p_to_i_ratio=Fraction(1, 4),
        drop_deadline_us=33_334,
        outage=None,
    )
    return {**params, **changes}


# jumps of exactly GAP_LIMIT and GAP_LIMIT + 1 frame ids, from frame 9
JUMPS = [_params(duration_s=18.0, outage=(10, jump - 1)) for jump in (1_024, 1_025)]
# the first five frames lose every fragment: no frame before them delivered one
FIRST_LOST = _params(outage=(0, 5))
# ``uvrpipe sim run --preset openuvr --set channel.loss_model=gilbert_elliott
# --set proto.drop_deadline_us=100``: deadlines inside their own partial bursts
OWN_BURST = _params(loss=(LossModel.GILBERT_ELLIOTT, (0.01, 0.2)), drop_deadline_us=100)


def _bursts(p):
    """Each burst's (frame id, first arrival, last arrival, whole) in a run of ``p``."""

    class Recorded(MethodRun):
        def _handle_burst(self, t, event):
            _, k, first, last, delivered, count, _ = event
            bursts[k] = (first, last, delivered == count)
            super()._handle_burst(t, event)

    bursts = {}
    _outage(Recorded, _lost(p))(_config(p)).run()
    return bursts


def _deadline_on_the_next_burst():
    """The first frame, an I-frame, made a fault frame on an otherwise clean
    link; its deadline ends exactly at the first arrival of the next frame,
    a one-packet P-frame, whose burst is handled then: the deadline has not
    yet passed, so that frame completes before the fault frame drops."""
    p = _params(fault="first", p_to_i_ratio=Fraction(1, 10_000), drop_deadline_us=10**6)
    bursts = _bursts(p)
    return {**p, "drop_deadline_us": bursts[1][0] - bursts[0][0]}


@settings(max_examples=200, deadline=None)
@given(p=SPACE)
@example(p=JUMPS[0])
@example(p=JUMPS[1])
@example(p=FIRST_LOST)
@example(p=OWN_BURST)
@example(p=_deadline_on_the_next_burst())
def test_in_order_receiver_equals_the_reassembler_run(p):
    assert _outcome(_run(p)) == _outcome(_run(p, ReassemblerRun))


def test_the_examples_reach_their_edges():
    # the skipped frames of the shorter jump drop, those of the longer stay unresolved
    for p, skipped in zip(JUMPS, (1_023, 1_024)):
        frames = _run(p).run().frames
        assert frames["presented_us"][9] >= 0 and frames["presented_us"][10 + skipped] >= 0
        lost = frames["dropped"][10 : 10 + skipped]
        assert lost.all() if skipped < dpp.GAP_LIMIT else not lost.any()
    report = _run(FIRST_LOST).run().metrics
    assert report.unresolved_frames == 5 and report.frames["dropped"] == 0
    assert any(
        not whole and last - first > OWN_BURST["drop_deadline_us"]
        for first, last, whole in _bursts(OWN_BURST).values()
    )
    # the next frame arrives whole, in one packet, exactly at the fault frame's deadline
    p = _deadline_on_the_next_burst()
    (first, _, whole), (next_first, next_last, next_whole) = (_bursts(p)[k] for k in (0, 1))
    assert not whole and next_whole and next_first == next_last == first + p["drop_deadline_us"]
