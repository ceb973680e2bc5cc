"""The batched lossy walk against the per-packet reference walk.

The reference is the walk that the batched one replaced: it steps one packet
at a time and makes each loss and jitter draw with its own scalar call. The
loss and jitter streams are independent, so its per-packet interleaving
consumes each stream in the order the ``uvrpipe.netsim`` module docstring
promises: per hop, the loss draws in packet order, and the jitter draws of
the delivered packets in packet order; under INFRA all of hop 2 (only hop
1's survivors) after hop 1. The batched walk must give the same arrivals and
the same ``LinkState``, and leave both streams at the same place.

``Medium.frame`` draws first and times a burst whose draws came out clean,
and on P2P without jitter any burst, in closed form; it is checked against
the same reference walk. Every fast path runs on one ``Medium`` per link,
bound once, as the simulator binds one per run. The medium is its loss
stream's only reader and draws ahead, so "the same place" in the loss
stream means its next unread value, or the stream's next one when it holds
none. Its loss flags come from a loss table over the values drawn ahead:
the table itself is checked against the per-packet walk over the same
uniforms, and a medium against the reference walk across the ends of the
blocks it draws and with ``ge_bad`` set from outside between hops.
"""

from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvrpipe import netsim
from uvrpipe.core import EventQueue, Rng
from uvrpipe.cp import WIRE_BYTES
from uvrpipe.netsim import (
    MAX_PACKET_BYTES,
    ChannelModel,
    LinkState,
    LossModel,
    Topology,
    serialization_us,
)
from uvrpipe.pipeline import run_scenario
from uvrpipe.scenario import preset_config


def _ref_lost(ch: ChannelModel, link: LinkState, rng: Rng) -> bool:
    if ch.loss_model is LossModel.BERNOULLI:
        if ch.loss_p <= 0.0:
            return False
        return bool(rng.stream("loss").random() < ch.loss_p)
    # Gilbert-Elliott: loss by current state, then advance the chain
    stream = rng.stream("loss")
    p = ch.ge_loss_bad if link.ge_bad else ch.ge_loss_good
    lost = bool(stream.random() < p)
    flip = ch.ge_p_bg if link.ge_bad else ch.ge_p_gb
    if stream.random() < flip:
        link.ge_bad = not link.ge_bad
    return lost


def _ref_jitter(ch: ChannelModel, rng: Rng) -> int:
    if ch.jitter_sigma_us <= 0.0:
        return 0
    draw = abs(rng.stream("jitter").standard_normal()) * ch.jitter_sigma_us
    return int(min(draw, 3.0 * ch.jitter_sigma_us))


def _ref_one_hop(ch, link, size, request, rng, final_hop):
    """Send one packet on one hop; returns (arrival or None if lost, tx_end)."""
    ser = serialization_us(size, ch.bandwidth_bps)
    start = request if request > link.busy_until else link.busy_until
    end = start + ser
    link.busy_until = end
    link.busy_accum_us += ser
    link.sent_packets += 1
    link.sent_bytes += size
    if _ref_lost(ch, link, rng):
        link.lost_packets += 1
        return None, end
    arrival = end + ch.prop_delay_us + _ref_jitter(ch, rng)
    if final_hop:
        if arrival < link.last_arrival:
            arrival = link.last_arrival
        link.last_arrival = arrival
    return arrival, end


def reference_transmit_burst(ch, link, sizes, now, rng) -> list[Optional[int]]:
    infra = ch.topology is Topology.INFRA
    first_hop = []
    request = now
    for size in sizes:
        arrival, end = _ref_one_hop(ch, link, size, request, rng, final_hop=not infra)
        first_hop.append((size, arrival))
        request = end
    if not infra:
        return [arrival for _, arrival in first_hop]
    arrivals = []
    for size, hop1_arrival in first_hop:
        if hop1_arrival is None:
            arrivals.append(None)
            continue
        arrival, _ = _ref_one_hop(ch, link, size, hop1_arrival, rng, final_hop=True)
        arrivals.append(arrival)
    return arrivals


def _next_draws(rng: Rng, medium: Optional[netsim.Medium] = None) -> tuple[float, float]:
    """The next loss and jitter draw. The loss draw is the medium's next
    unread value, or the stream's next one when the medium holds none."""
    unread = [] if medium is None else medium._values[medium._per * medium._at :]
    loss = unread[0] if len(unread) else rng.stream("loss").random()
    return float(loss), float(rng.stream("jitter").standard_normal())


def _compare(ch, link, seed, calls):
    """Run ``calls`` through both walks, each on its own copy of ``link``."""
    fast, ref = replace(link), replace(link)
    fast_rng, ref_rng = Rng(seed), Rng(seed)
    medium = netsim.Medium(ch, fast, fast_rng)
    for now, sizes, one_packet_call in calls:
        if one_packet_call:
            got = medium.frame(1, sizes[0], now)
            want = reference_frame(reference_transmit_burst(ch, ref, sizes[:1], now, ref_rng))
        else:
            got = medium.burst(sizes, now)
            want = reference_transmit_burst(ch, ref, sizes, now, ref_rng)
        assert got == want
        assert fast == ref
    assert _next_draws(fast_rng, medium) == _next_draws(ref_rng)


channels = st.builds(
    ChannelModel,
    bandwidth_bps=st.integers(1_000_000, 2_000_000_000),
    prop_delay_us=st.integers(0, 5_000),
    jitter_sigma_us=st.one_of(st.just(0.0), st.floats(0.1, 2_000.0)),
    topology=st.sampled_from(Topology),
    loss_model=st.sampled_from(LossModel),
    loss_p=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    ge_p_gb=st.floats(0.0, 1.0),
    ge_p_bg=st.floats(0.0, 1.0),
    ge_loss_good=st.floats(0.0, 1.0),
    ge_loss_bad=st.floats(0.0, 1.0),
)


@st.composite
def channel_links(draw, channel_strategy):
    """A channel and a link state that a medium can reach on it. Without
    jitter that is ``last_arrival <= busy_until + prop_delay_us`` (the
    ``uvrpipe.netsim`` docstring); with jitter any state, as the walk's
    FIFO clamp handles each."""
    ch = draw(channel_strategy)
    busy_until = draw(st.integers(0, 200_000))
    top = 400_000 if ch.jitter_sigma_us > 0.0 else busy_until + ch.prop_delay_us
    last_arrival = draw(st.integers(0, top))
    return ch, LinkState(busy_until=busy_until, last_arrival=last_arrival, ge_bad=draw(st.booleans()))


packet = st.integers(1, MAX_PACKET_BYTES)
# each call: (send time, sizes, one_packet_call); a one-packet call sends ``frame(1, ...)``
calls = st.lists(
    st.tuples(st.integers(0, 200_000), st.lists(packet, min_size=1, max_size=40), st.booleans()),
    min_size=1,
    max_size=6,
)

GE = dict(loss_model=LossModel.GILBERT_ELLIOTT, ge_p_gb=0.3, ge_p_bg=0.3, ge_loss_bad=0.6)


@settings(max_examples=600)
@given(ch_link=channel_links(channels), seed=st.integers(0, 2**32 - 1), calls=calls)
# the FIFO clamp binds: a preset last arrival lies far beyond this burst
@example(
    (ChannelModel(jitter_sigma_us=300.0, loss_p=0.2), LinkState(last_arrival=400_000)),
    1,
    [(0, [MAX_PACKET_BYTES] * 30, False)],
)
@example(
    (
        ChannelModel(topology=Topology.INFRA, jitter_sigma_us=50.0, **GE),
        LinkState(last_arrival=300_000, ge_bad=True),
    ),
    2,
    [(0, [MAX_PACKET_BYTES] * 30, False), (10, [900], True)],
)
# without jitter, the last arrival at its top edge: a one-byte packet at no
# delay lands 1 us after it
@example(
    (ChannelModel(prop_delay_us=0), LinkState(busy_until=9, last_arrival=9)),
    7,
    [(0, [1], True), (0, [1, 1], False), (30, [MAX_PACKET_BYTES] * 3, False)],
)
# one-packet bursts and interleaved one-packet frames and bursts on one medium
@example(
    (ChannelModel(topology=Topology.INFRA, loss_p=0.5, jitter_sigma_us=80.0), LinkState()),
    3,
    [(0, [700], False), (5, [64], True), (5, [2_000, 3], False), (90_000, [1], True)],
)
@example(
    (ChannelModel(topology=Topology.P2P, jitter_sigma_us=20.0, **GE), LinkState()),
    4,
    [(0, [1_500], True), (0, [MAX_PACKET_BYTES] * 12 + [400], False), (0, [64], True)],
)
# jitter on a loss-free channel: no loss draw at all, and draws beyond 2 sigma
@example(
    (ChannelModel(topology=Topology.INFRA, jitter_sigma_us=500.0), LinkState()),
    6,
    [(0, [MAX_PACKET_BYTES] * 40, False), (0, [64], True)],
)
# every packet lost on hop 1: hop 2 draws nothing
@example(
    (ChannelModel(topology=Topology.INFRA, loss_p=1.0, jitter_sigma_us=10.0), LinkState()),
    5,
    [(0, [MAX_PACKET_BYTES] * 5, False), (0, [100], True)],
)
def test_batched_walk_equals_reference(ch_link, seed, calls):
    _compare(*ch_link, seed, calls)


@pytest.mark.parametrize("jitter", [0.0, 120.0])
@pytest.mark.parametrize("topology", Topology)
@pytest.mark.parametrize("loss", [dict(loss_p=0.05), GE], ids=["bernoulli", "gilbert_elliott"])
def test_every_channel_kind(loss, topology, jitter):
    # an I-frame-sized burst, a control packet, then a P-frame-sized burst.
    # With jitter, the preset FIFO clamp holds the first arrivals back on a
    # P2P link; without, the link is as a burst leaves it, its last arrival
    # one propagation delay after its busy end
    ch = ChannelModel(topology=topology, jitter_sigma_us=jitter, **loss)
    last_arrival = 1_900 if jitter else 1_000 + ch.prop_delay_us
    link = LinkState(busy_until=1_000, last_arrival=last_arrival, ge_bad=True)
    full = [MAX_PACKET_BYTES] * 80 + [1_248]
    calls = [(0, full, False), (500, [64], True), (16_667, full[:19], False)]
    for seed in range(8):
        _compare(ch, link, seed, calls)


def reference_frame(arrivals):
    """(first, last, delivered) of a frame's arrivals, None when none arrives."""
    delivered = [arrival for arrival in arrivals if arrival is not None]
    if not delivered:
        return None
    return delivered[0], delivered[-1], len(delivered)


def _compare_frames(ch, link, seed, frames):
    """Send ``frames`` through ``Medium.frame`` and the reference walk."""
    fast, ref = replace(link), replace(link)
    fast_rng, ref_rng = Rng(seed), Rng(seed)
    medium = netsim.Medium(ch, fast, fast_rng)
    for now, count, tail in frames:
        got = medium.frame(count, tail, now)
        sizes = [MAX_PACKET_BYTES] * (count - 1) + [tail]
        assert got == reference_frame(reference_transmit_burst(ch, ref, sizes, now, ref_rng))
        assert fast == ref
    assert _next_draws(fast_rng, medium) == _next_draws(ref_rng)


@st.composite
def ge_channels(draw):
    """Gilbert-Elliott channels, ``ge_p_gb`` above, equal to or below ``ge_p_bg``."""
    p_gb = draw(st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 1.0)))
    relation = draw(st.sampled_from(("above", "equal", "below")))
    if relation == "above":
        p_bg = draw(st.floats(0.0, p_gb))
    elif relation == "below":
        p_bg = draw(st.floats(p_gb, 1.0))
    else:
        p_bg = p_gb
    return ChannelModel(
        bandwidth_bps=draw(st.integers(1_000_000, 2_000_000_000)),
        prop_delay_us=draw(st.integers(0, 5_000)),
        jitter_sigma_us=draw(st.one_of(st.just(0.0), st.floats(0.1, 500.0))),
        topology=draw(st.sampled_from(Topology)),
        loss_model=LossModel.GILBERT_ELLIOTT,
        ge_p_gb=p_gb,
        ge_p_bg=p_bg,
        ge_loss_good=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))),
        ge_loss_bad=draw(st.floats(0.0, 1.0)),
    )


# each frame: (send time, count, tail size); count 1 is a one-packet burst
frames = st.lists(
    st.tuples(st.integers(0, 200_000), st.integers(1, 40), packet),
    min_size=1,
    max_size=6,
)
FRAME = [(0, 30, 700), (16_667, 12, 64), (16_700, 1, 900)]


@settings(max_examples=600)
@given(
    ch_link=channel_links(st.one_of(channels, ge_channels())),
    seed=st.integers(0, 2**32 - 1),
    frames=frames,
)
# with jitter, the walk's FIFO clamp binds: a preset last arrival lies beyond the burst
@example(
    (ChannelModel(jitter_sigma_us=40.0, **dict(GE, ge_p_gb=0.0)), LinkState(last_arrival=400_000)),
    1,
    FRAME,
)
# clean draws without jitter, the last arrival at its top edge
@example(
    (ChannelModel(**dict(GE, ge_p_gb=0.0)), LinkState(busy_until=1_000, last_arrival=1_200)),
    1,
    FRAME,
)
# a chain that starts bad with loss in the good state, and one-packet bursts
@example(
    (
        ChannelModel(topology=Topology.INFRA, **dict(GE, ge_loss_good=0.02, ge_p_bg=0.01)),
        LinkState(ge_bad=True),
    ),
    2,
    [(0, 1, 64), (5, 1, 2_000), *FRAME],
)
def test_frame_entry_equals_reference(ch_link, seed, frames):
    _compare_frames(*ch_link, seed, frames)


def _hop_losses(ch, link, sizes, now, seed):
    """Packets lost on hop 1 and on both hops of a burst, by the reference walk.

    Hop 1's loss draws do not depend on the topology, so the same burst on
    P2P shows what hop 1 lost.
    """
    p2p = replace(ch, topology=Topology.P2P)
    hop1 = reference_transmit_burst(p2p, replace(link), sizes, now, Rng(seed)).count(None)
    both = reference_transmit_burst(ch, replace(link), sizes, now, Rng(seed)).count(None)
    return hop1, both


@pytest.mark.parametrize("jitter", [0.0, 40.0])
@pytest.mark.parametrize("loss", [dict(loss_p=0.01), dict(GE, ge_p_gb=0.01, ge_loss_bad=0.5)])
def test_infra_clean_first_hop_lossy_second_hop(loss, jitter):
    ch = ChannelModel(topology=Topology.INFRA, jitter_sigma_us=jitter, **loss)
    sizes = [MAX_PACKET_BYTES] * 29 + [500]
    cases = 0
    for seed in range(60):
        hop1, both = _hop_losses(ch, LinkState(), sizes, 0, seed)
        if hop1 == 0 and both > 0:
            cases += 1
            _compare_frames(ch, LinkState(), seed, [(0, 30, 500)])
    assert cases > 0


@pytest.mark.parametrize("topology", Topology)
@pytest.mark.parametrize(
    "loss", [dict(loss_p=0.01), dict(GE, ge_p_gb=0.01)], ids=["bernoulli", "gilbert_elliott"]
)
def test_clean_draws_take_the_closed_form(loss, topology, monkeypatch):
    # a burst that lost nothing is never walked
    ch = ChannelModel(topology=topology, **loss)
    walks = []
    hop = netsim._hop
    monkeypatch.setattr(netsim, "_hop", lambda *args, **kw: walks.append(1) or hop(*args, **kw))
    for seed in range(20):
        if reference_transmit_burst(ch, LinkState(), [MAX_PACKET_BYTES] * 12, 0, Rng(seed)).count(
            None
        ):
            continue
        walks.clear()
        _compare_frames(ch, LinkState(), seed, [(0, 12, MAX_PACKET_BYTES)])
        assert not walks
        return
    pytest.fail("no seed gave a clean burst")


def _walk_counter(monkeypatch) -> list:
    walks = []
    hop = netsim._hop
    monkeypatch.setattr(netsim, "_hop", lambda *args, **kw: walks.append(1) or hop(*args, **kw))
    return walks


def _flag_reads(monkeypatch) -> list:
    """Each ``Medium._flags`` call as [lossy, crossed]: whether it returned
    loss flags, and whether it built a table over values that an earlier
    table left unread. On P2P without jitter only ``Medium.frame``'s inline
    path reads flags, so a lossy read there is a hit on the inline lossy path."""
    reads = []
    flags, table = netsim.Medium._flags, netsim.Medium._table

    def counted_table(self, n):
        reads[-1][1] = len(self._values) > self._per * self._at
        return table(self, n)

    def counted_flags(self, n):
        reads.append([False, False])
        got = flags(self, n)
        reads[-1][0] = got is not None
        return got

    monkeypatch.setattr(netsim.Medium, "_table", counted_table)
    monkeypatch.setattr(netsim.Medium, "_flags", counted_flags)
    return reads


def _seed_where(ch, frames, wanted) -> int:
    """The first seed whose last burst of ``frames`` (each ``(send time,
    count, tail)``) the reference walk delivers as ``wanted`` (a predicate
    over its arrivals) says."""
    for seed in range(2_000):
        link, rng = LinkState(), Rng(seed)
        for now, count, tail in frames:
            sizes = [MAX_PACKET_BYTES] * (count - 1) + [tail]
            arrivals = reference_transmit_burst(ch, link, sizes, now, rng)
        if wanted(arrivals):
            return seed
    pytest.fail("no seed gave the wanted burst")


def _some(arrivals):
    return any(arrival is not None for arrival in arrivals)


P2P_LOSSY = [dict(loss_p=0.4), dict(GE, ge_loss_good=0.3, ge_p_gb=0.5)]


@pytest.mark.parametrize("loss", P2P_LOSSY, ids=["bernoulli", "gilbert_elliott"])
@pytest.mark.parametrize(
    "counts, wanted",
    [
        ((12,), lambda a: a[0] is None and _some(a)),
        ((12,), lambda a: a[-1] is None and _some(a)),
        ((12,), lambda a: a[0] is None and a[-1] is None and _some(a)),
        ((4,), lambda a: not _some(a)),
        ((1,), lambda a: a == [None]),
        ((2,), lambda a: a[0] is not None and a[1] is None),
        # the first table holds 64 values: 32 Gilbert-Elliott packets or 64
        # Bernoulli ones, so the second burst's values cross into the next block
        ((30, 40), lambda a: None in a and _some(a)),
    ],
    ids=[
        "first_lost",
        "last_lost",
        "both_ends_lost",
        "all_lost",
        "one_fragment",
        "tail_lost",
        "crosses_a_refill",
    ],
)
def test_p2p_lossy_burst_takes_the_closed_form(loss, counts, wanted, monkeypatch):
    # a lossy P2P burst without jitter is timed inline from its loss flags
    # and never walked; a clean frame follows it
    ch = ChannelModel(**loss)
    frames = [(16_667 * k, count, 700) for k, count in enumerate(counts)]
    seed = _seed_where(ch, frames, wanted)
    walks = _walk_counter(monkeypatch)
    reads = _flag_reads(monkeypatch)
    _compare_frames(ch, LinkState(), seed, [*frames, (16_667 * len(frames), 12, 64)])
    assert not walks
    lossy, crossed = reads[len(frames) - 1]  # the wanted burst's read
    assert lossy
    assert crossed == (len(frames) > 1)


def test_the_lossy_benchmark_run_stays_on_the_inline_path(monkeypatch):
    # perfbench's sim_lossy run: openuvr (P2P, no jitter) under
    # Gilbert-Elliott loss for 60 s at seed 42. Every frame burst and I-frame
    # request is timed inline, none walks; the hops that reach a disturbance
    # or the end of the values drawn read the loss table. A request is a
    # one-packet frame of ``cp.WIRE_BYTES``
    calls = dict(frame=0, request=0, burst_reads=0, request_reads=0, walk=0, table=0, push=0)
    in_request = [False]

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def frame(self, count, tail_size, now):
        request = count == 1 and tail_size == WIRE_BYTES
        calls["frame"] += 1
        calls["request"] += request
        in_request.append(request)
        try:
            return send(self, count, tail_size, now)
        finally:
            in_request.pop()

    def flags(self, n):
        calls["request_reads" if in_request[-1] else "burst_reads"] += 1
        return read(self, n)

    send, read = netsim.Medium.frame, netsim.Medium._flags
    monkeypatch.setattr(netsim.Medium, "frame", frame)
    monkeypatch.setattr(netsim.Medium, "_flags", flags)
    monkeypatch.setattr(netsim.Medium, "_table", count("table", netsim.Medium._table))
    monkeypatch.setattr(netsim, "_walk", count("walk", netsim._walk))
    monkeypatch.setattr(EventQueue, "schedule", count("push", EventQueue.schedule))
    cfg = preset_config("openuvr")
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.seed = 42
    assert run_scenario(cfg).metrics.frames["sent"] == 3_600
    assert calls == dict(
        frame=5_945, request=2_345, burst_reads=871, request_reads=53, walk=0, table=12, push=1_115
    )


# --- the loss table ----------------------------------------------------------


def _reference_table(ch, values, bad):
    """The per-packet walk over ``values``: each packet's loss flag and, under
    Gilbert-Elliott, the chain state after it, and the packets that lose or
    change the state, closed by the packet count."""
    lost, after, marks = [], [], []
    if ch.loss_model is LossModel.BERNOULLI:
        lost = [u < ch.loss_p for u in values]
        return lost, None, [k for k, flag in enumerate(lost) if flag] + [len(lost)]
    for k in range(len(values) // 2):
        was = bad
        lost.append(values[2 * k] < (ch.ge_loss_bad if bad else ch.ge_loss_good))
        bad = values[2 * k + 1] >= ch.ge_p_bg if bad else values[2 * k + 1] < ch.ge_p_gb
        after.append(bad)
        if lost[-1] or bad != was:
            marks.append(k)
    return lost, after, marks + [len(lost)]


# probabilities of 0 and 1, and the rest
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def table_channels(draw):
    """Bernoulli channels, and Gilbert-Elliott ones with ``ge_p_gb`` below,
    equal to or above ``ge_p_bg``."""
    if draw(st.booleans()):
        return ChannelModel(loss_p=draw(probability))
    p_gb = draw(probability)
    p_bg = draw(st.one_of(st.just(p_gb), probability))
    return ChannelModel(
        loss_model=LossModel.GILBERT_ELLIOTT,
        ge_p_gb=p_gb,
        ge_p_bg=p_bg,
        ge_loss_good=draw(st.one_of(st.just(0.0), probability)),
        ge_loss_bad=draw(probability),
    )


def _edges(ch):
    """Every threshold of ``ch``, where ``<`` and ``<=`` part, and 0."""
    return [ch.loss_p, ch.ge_p_gb, ch.ge_p_bg, ch.ge_loss_good, ch.ge_loss_bad, 0.0]


@st.composite
def table_cases(draw):
    """A channel of ``table_channels`` and uniforms for whole packets, which
    include every threshold itself."""
    ch = draw(table_channels())
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_edges(ch)))
    # a Gilbert-Elliott packet takes two uniforms
    per = 2 if ch.loss_model is LossModel.GILBERT_ELLIOTT else 1
    values = draw(st.lists(uniform, min_size=per, max_size=80))
    return ch, values[: len(values) // per * per]


def _at_every_edge(ch):
    """Uniforms that put every threshold (and 0 and a value past them all)
    in the loss draw and in the transition draw, after each other one."""
    edges = [*_edges(ch), 0.99]
    return [u for a in edges for b in edges for u in (a, b)]


# ``ge_p_gb == ge_p_bg``: no transition draw is a constant map, only swaps
# and identities; ``ge_p_gb > ge_p_bg``: a constant map sets the chain bad
NO_CONSTANT = ChannelModel(**dict(GE, ge_p_gb=0.3, ge_p_bg=0.3, ge_loss_good=0.1))
CONSTANT_BAD = ChannelModel(**dict(GE, ge_p_gb=0.4, ge_p_bg=0.1, ge_loss_good=0.1))


@settings(max_examples=800)
@given(case=table_cases(), bad=st.booleans())
@example((NO_CONSTANT, _at_every_edge(NO_CONSTANT)), False)
@example((NO_CONSTANT, _at_every_edge(NO_CONSTANT)), True)
@example((CONSTANT_BAD, _at_every_edge(CONSTANT_BAD)), False)
@example((CONSTANT_BAD, _at_every_edge(CONSTANT_BAD)), True)
def test_loss_table_equals_the_per_packet_walk(case, bad):
    ch, values = case
    lost, after, marks = netsim._loss_table(ch, np.array(values), bad)
    want_lost, want_after, want_marks = _reference_table(ch, values, bad)
    assert lost.tolist() == want_lost
    assert (after if after is None else after.tolist()) == want_after
    assert marks == want_marks


# ops on a medium bound once, as the simulator binds one per run
bound_ops = st.lists(
    st.one_of(
        # up to 90 packets: longer than a first block (32 Gilbert-Elliott packets)
        st.tuples(st.just("frame"), st.integers(0, 200_000), st.integers(1, 90), packet),
        st.tuples(st.just("control"), st.integers(0, 200_000), packet, st.just(None)),
        st.tuples(
            st.just("burst"),
            st.integers(0, 200_000),
            st.lists(packet, min_size=1, max_size=40),
            st.just(None),
        ),
        # ``ge_bad`` set from outside between hops
        st.tuples(st.just("flip"), st.just(0), st.just(0), st.just(None)),
    ),
    min_size=1,
    max_size=25,
)
# frames of 90 Gilbert-Elliott packets: hops across the ends of the blocks
# drawn ahead, and hops longer than a block
LONG = [("frame", 16_667 * k, 90, 700) for k in range(14)]


@settings(max_examples=500)
@given(
    ch=st.one_of(channels, ge_channels(), table_channels()),
    bad=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    ops=bound_ops,
)
@example(ChannelModel(**dict(GE, ge_loss_good=0.05)), True, 3, LONG)
@example(
    ChannelModel(topology=Topology.INFRA, jitter_sigma_us=30.0, **dict(GE, ge_p_gb=0.02)),
    False,
    4,
    [*LONG[:5], ("flip", 0, 0, None), ("control", 0, 64, None), *LONG[5:]],
)
def test_bound_medium_equals_reference(ch, bad, seed, ops):
    fast, ref = LinkState(ge_bad=bad), LinkState(ge_bad=bad)
    fast_rng, ref_rng = Rng(seed), Rng(seed)
    medium = netsim.Medium(ch, fast, fast_rng)
    for op in ops:
        _step(medium, ref, ref_rng, *op)
    assert _next_draws(fast_rng, medium) == _next_draws(ref_rng)


def _step(medium, ref, ref_rng, op, now, n, size):
    """One of ``bound_ops`` on the medium and on the reference walk's link,
    which must agree; returns the medium's arrivals as a list."""
    ch = medium.ch
    if op == "frame":
        got = medium.frame(n, size, now)
        sizes = [MAX_PACKET_BYTES] * (n - 1) + [size]
        want = reference_frame(reference_transmit_burst(ch, ref, sizes, now, ref_rng))
    elif op == "control":  # a control message: a one-packet frame
        got = medium.frame(1, n, now)
        want = reference_frame(reference_transmit_burst(ch, ref, [n], now, ref_rng))
    elif op == "burst":
        got = medium.burst(n, now)
        want = reference_transmit_burst(ch, ref, n, now, ref_rng)
    else:
        medium.link.ge_bad = ref.ge_bad = not ref.ge_bad
        return []
    assert got == want
    assert medium.link == ref
    if op == "burst":
        return got
    return [] if got is None else [got[0], got[1]]


jitter_free = st.one_of(channels, ge_channels(), table_channels()).map(
    lambda ch: replace(ch, jitter_sigma_us=0.0)
)


@settings(max_examples=500)
@given(ch=jitter_free, seed=st.integers(0, 2**32 - 1), ops=bound_ops)
# at no delay, one-byte packets end 1 us after the link's last arrival
@example(
    ChannelModel(prop_delay_us=0),
    1,
    [("control", 9, 1, None), ("control", 0, 1, None), ("burst", 0, [1, 1], None)],
)
@example(
    ChannelModel(topology=Topology.INFRA, prop_delay_us=0, loss_p=0.3),
    2,
    [("frame", 0, 12, 1), ("control", 0, 1, None), ("frame", 0, 1, 1), *LONG[:3]],
)
def test_jitter_free_medium_never_clamps(ch, seed, ops):
    # from ``LinkState()`` without jitter every state keeps ``last_arrival <=
    # busy_until + prop``, and each call's first delivery lands strictly
    # after the last arrival before it: the FIFO clamp never binds
    link, ref, rng = LinkState(), LinkState(), Rng(seed)
    medium = netsim.Medium(ch, link, Rng(seed))
    for op in ops:
        before = link.last_arrival
        delivered = [a for a in _step(medium, ref, rng, *op) if a is not None]
        assert link.last_arrival <= link.busy_until + ch.prop_delay_us
        assert not delivered or delivered[0] > before
