"""The lazy tick merge of the event loop against the eager scheduler it replaced.

The event loop merges its tick grid with the heap of dynamic events
instead of scheduling every tick up front: ``Simulator._run_events`` inline,
the structured loop through ``MethodQueue.run`` (``method_run.py``). The eager
scheduler is kept here as the reference: it pushes every tick onto the heap
before the run, in grid order, and then runs the heap, still handing each
tick to the run's ``on_tick``. A tick was scheduled before any dynamic
event, so on equal times it goes first, and a render goes before a sample.
``TranscriptRun`` (``transcript_run.py``) merges every tick, including those
that send nothing; its transcripts, records and reports must come out the
same under both. The plain run merges no tick that sends nothing (no ASYNC
render tick, and no SYNC one that the codec rate skips); its records and
report must still equal the eager schedule's.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from method_run import MethodQueue
from transcript_run import HeapQueue, TranscriptRun

from uvrpipe.core import Rng, SchedulingError
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import EncodeMode, preset_config


class _Tick:
    """A tick on the eager heap."""

    def __init__(self, arg):
        self.arg = arg


class EagerQueue(HeapQueue):
    """The old scheduler: every render tick, then every sample tick, on the
    heap before the first dispatch; a tick still goes to ``on_tick``."""

    def run(self, handler, ticks=(), on_tick=None):
        for t, arg in sorted(ticks, key=lambda tick: tick[1][0] == "sample"):
            self.schedule(t, _Tick(arg))

        def dispatch(t, event):
            if isinstance(event, _Tick):
                on_tick(t, event.arg)
            else:
                handler(t, event)

        super().run(dispatch)


def _outcome(sim):
    result = sim.run()
    return (
        repr(result.records),
        json.dumps(result.metrics.to_dict()),
        repr(sim.link),
        sim.rng.stream("workload").standard_normal(),
    )


# A P-frame on an idle link reaches the receiver this long after its send
# tick. Every tick grid of an even rate repeats itself after half a second,
# so such frames land exactly on a later tick.
ON_A_TICK_US = 500_000


def _config(channel, mode, render_fps):
    cfg = preset_config("openuvr")
    cfg.seed = 9
    cfg.duration_s = 2.0
    cfg.encode_mode = mode
    cfg.render_fps = render_fps
    if channel == "faulted":
        cfg.fault_drop_frame_id = 7
        return cfg
    if channel == "tied":
        cfg.workload.complexity_sigma = 0.0  # every P-frame has one size
        probe = Simulator(cfg)  # loss-free, so frame 1 is a P-frame on an idle link
        p_frame = probe.run().records[1]
        latency = p_frame.arrived_last_us - p_frame.encoded_us + probe.graph.encode_path_us
        cfg.channel.prop_delay_us += ON_A_TICK_US - latency
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    return cfg


@pytest.mark.parametrize("render_fps", [60, 72, 90, 120])
@pytest.mark.parametrize("mode", EncodeMode)
@pytest.mark.parametrize("channel", ["lossy", "faulted", "tied"])
def test_lazy_merge_equals_eager_schedule(channel, mode, render_fps):
    cfg = _config(channel, mode, render_fps)
    lazy, eager = TranscriptRun(cfg), TranscriptRun(cfg)
    eager.queue = EagerQueue()
    outcome = _outcome(eager)
    assert _outcome(lazy) == outcome
    assert lazy.transcript == eager.transcript
    # the plain run leaves the ticks that send nothing out of the merge;
    # records, report, link and streams stay the same
    assert _outcome(Simulator(cfg)) == outcome
    transcript = lazy.transcript
    ticks = {t for t, kind, _ in transcript if kind in ("render", "sample")}
    on_ticks = [kind for t, kind, _ in transcript if t in ticks and kind not in ("render", "sample")]
    if channel == "tied":
        assert "burst" in on_ticks  # dynamic events do land on tick times
    if channel == "faulted":
        assert any(kind == "cp" for _, kind, _ in transcript)


def test_complexities_leave_the_stream_where_scalar_draws_do():
    cfg = _config("lossy", EncodeMode.ASYNC, 90)
    sim = Simulator(cfg)
    sim.run()
    scalar = Rng(cfg.seed)
    for _ in range(sim._rendered):
        scalar.stream("workload").standard_normal()
    assert sim.rng.stream("workload").random() == scalar.stream("workload").random()


def _children(event, now, ticks):
    """Events that dispatching ``event`` at ``now`` schedules: some at ``now``,
    some on a later tick time, some in between; fixed by the event alone."""
    rnd = random.Random(repr(event))
    later = [t for t, _ in ticks if t >= now]
    times = []
    for _ in range(rnd.randrange(3) if len(repr(event)) < 40 else 0):
        choice = rnd.randrange(3)
        if choice == 0:
            times.append(now)
        elif choice == 1 and later:
            times.append(rnd.choice(later))
        else:
            times.append(now + rnd.randrange(1, 50))
    return [(t, (event, k)) for k, t in enumerate(times)]


def _dispatch_all(queue_cls, ticks, seeds):
    """Run the grid ``ticks`` (the first at time 0); tick 0 schedules ``seeds``."""
    queue = queue_cls()
    order = []

    def handler(t, event):
        order.append((t, event))
        children = seeds if event == ("tick", 0) else _children(event, t, ticks)
        for child_t, child in children:
            queue.schedule(child_t, child)

    queue.run(handler, ticks, handler)
    return order


@settings(max_examples=300)
@given(
    gaps=st.lists(st.integers(0, 30), max_size=30),
    seeds=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 9)), max_size=12),
)
def test_queue_merge_equals_eager_schedule(gaps, seeds):
    # a sorted grid with repeated times (a render and a sample on one time)
    times = [sum(gaps[:k]) for k in range(len(gaps) + 1)]
    ticks = [(t, ("tick", k)) for k, t in enumerate(times)]
    assert _dispatch_all(MethodQueue, ticks, seeds) == _dispatch_all(EagerQueue, ticks, seeds)


def test_unsorted_ticks_are_refused():
    queue = MethodQueue()
    with pytest.raises(SchedulingError):
        queue.run(lambda t, event: None, [(5, "a"), (4, "b")], lambda t, arg: None)
