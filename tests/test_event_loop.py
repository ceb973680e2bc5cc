"""The event loop against its structured reference.

``Simulator._run_events`` is one method on locals: it merges the send ticks
with the heap itself, its receiver's burst handling, drop sweep and request
send are nested functions, and cp's four feedback rules run inline.
``MethodRun`` (``method_run.py``) is the loop as it was before: one method
per step, the state on the instance, the ticks merged by
``MethodQueue.run`` and the feedback through ``cp``'s functions. The
report, every frame-table column with its dtype, the link, both feedback
states and the next draw of every random stream must come out the same,
with and without an outage (``test_in_order_receiver._outage``) that loses
every fragment of a range of frames.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from method_run import MethodRun
from test_in_order_receiver import _outage
from test_inline_events import REPRO, SPACE, _space_config

from uvrpipe import dpp
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import preset_config

STREAMS = ("workload", "loss", "jitter", "fault")
# (first frame, frames) lost whole, or none
OUTAGE = st.one_of(st.none(), st.tuples(st.integers(0, 30), st.integers(1, 40)))


def _outcome(cls, cfg, outage):
    lost = range(0) if outage is None else range(outage[0], outage[0] + outage[1])
    sim = _outage(cls, lost)(cfg)
    result = sim.run()
    return (
        json.dumps(result.metrics.to_dict()),
        {name: (column.dtype.str, column.tolist()) for name, column in result.frames.items()},
        repr(sim.link),
        repr(sim.mud_fb),
        repr(sim.host_fb),
        [sim.rng.stream(name).random() for name in STREAMS],
    )


def _lossy_benchmark_run():
    """perfbench's sim_lossy run: openuvr under Gilbert-Elliott loss, 60 s, seed 42."""
    cfg = preset_config("openuvr")
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.seed = 42
    return cfg


def _repro(**changes):
    return _space_config({**REPRO, "duration_s": 1.0, **changes})


LONG_OUTAGE = (10, dpp.GAP_LIMIT + 100)  # the frames past it stay unresolved


def _long_outage_run():
    cfg = _repro(duration_s=20.0)
    cfg.channel.ge_p_gb = 0.001  # few losses besides the outage
    return cfg


class _Requests(MethodRun):
    """Records each I-frame request that reaches the host: (arrival, heaped)."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.requests = []

    def _send_cp(self, msg, t):
        lost, queued = self.link.lost_packets, len(self.queue)
        super()._send_cp(msg, t)
        if self.link.lost_packets == lost:  # it arrives, at the link's last arrival
            self.requests.append((self.link.last_arrival, len(self.queue) > queued))


def _on_the_window_edge(heaped):
    """openuvr under Bernoulli loss for 1 s, its suppression window made to
    end exactly when the first request after the first forced I-frame's
    encode reaches the host: the boundary is inclusive, so it forces an
    I-frame. A 5-ms propagation delay makes that request reach the host
    after the next tick (``heaped``); the preset's, before it. No decision
    before the first forced I-frame reads the window, so the arrival is the
    same at every window."""
    for seed in range(50):
        cfg = preset_config("openuvr")
        cfg.seed, cfg.duration_s, cfg.channel.loss_p = seed, 1.0, 0.05
        if heaped:
            cfg.channel.prop_delay_us = 5_000
        sim = _Requests(cfg)
        frames = sim.run().frames
        forced = np.flatnonzero(frames["forced"])
        if len(forced):
            start = int(frames["encoded_us"][forced[0]])  # the window's start
            later = sorted(request for request in sim.requests if request[0] > start)
            if later and later[0][1] == heaped:
                cfg.suppression_window_us = later[0][0] - start
                return cfg
    raise AssertionError("no seed put a request on the window's edge")


@settings(max_examples=200, deadline=None)
@given(cfg=SPACE.map(_space_config), outage=OUTAGE)
@example(cfg=_lossy_benchmark_run(), outage=None)
@example(cfg=_repro(fault="first"), outage=None)
@example(cfg=_repro(fault="last"), outage=None)
@example(cfg=_repro(drop_deadline_us=1), outage=(3, 5))
@example(cfg=_repro(loss=(LossModel.BERNOULLI, 1.0)), outage=None)
@example(cfg=_long_outage_run(), outage=LONG_OUTAGE)
@example(cfg=_on_the_window_edge(heaped=False), outage=None)
@example(cfg=_on_the_window_edge(heaped=True), outage=None)
def test_event_loop_equals_the_method_run(cfg, outage):
    assert _outcome(Simulator, cfg, outage) == _outcome(MethodRun, cfg, outage)


def test_the_examples_reach_their_edges():
    report = Simulator(_lossy_benchmark_run()).run().metrics
    assert report.frames["sent"] == 3_600 and report.feedback["iframe_requests_sent"] > 0
    for fault in ("first", "last"):
        cfg = _repro(fault=fault)
        assert cfg.fault_drop_frame_id in (0, len(Simulator(cfg)._grid.frame_id) - 1)
    assert Simulator(_repro(drop_deadline_us=1)).run().metrics.frames["dropped"] > 0
    assert Simulator(_repro(loss=(LossModel.BERNOULLI, 1.0))).run().metrics.frames["presented"] == 0
    start, frames = LONG_OUTAGE
    lost = range(start, start + frames)
    result = _outage(Simulator, lost)(_long_outage_run()).run()
    assert result.metrics.unresolved_frames >= frames
    assert (result.frames["presented_us"][start + frames :] >= 0).any()
    for heaped in (False, True):
        cfg = _on_the_window_edge(heaped)
        on_the_edge = Simulator(cfg).run().metrics.feedback
        cfg.suppression_window_us += 1
        assert Simulator(cfg).run().metrics.feedback != on_the_edge
