import pytest
from test_lossy_burst import reference_frame

from uvrpipe.core import Rng
from uvrpipe.netsim import (
    ChannelModel,
    LinkState,
    LossModel,
    OversizedPacket,
    Topology,
    Medium,
    link_occupancy,
    serialization_us,
)


def test_serialization_examples():
    assert serialization_us(2_304, 867_000_000) == 22
    assert serialization_us(1, 867_000_000) == 1  # ceil, never zero


def test_p2p_idle_delivery():
    ch = ChannelModel(topology=Topology.P2P)
    link = LinkState()
    assert Medium(ch, link).frame(1, 2_304, 1_000) == reference_frame([1_000 + 22 + 200])
    assert link.busy_until == 1_022


def test_infra_two_hops_one_medium():
    ch = ChannelModel(topology=Topology.INFRA)
    link = LinkState()
    arrival = Medium(ch, link).frame(1, 2_304, 0)
    assert arrival == reference_frame([444])  # two serializations + two propagation delays
    assert link.busy_accum_us == 44


def test_oversized_packet_rejected():
    ch = ChannelModel()
    with pytest.raises(OversizedPacket):
        Medium(ch, LinkState()).frame(1, 2_305, 0)
    with pytest.raises(OversizedPacket):
        Medium(ch, LinkState()).burst([100, 9_999], 0)


def test_fifo_under_jitter():
    ch = ChannelModel(topology=Topology.P2P, jitter_sigma_us=300.0)
    link = LinkState()
    arrivals = Medium(ch, link, Rng(3)).burst([2_304] * 200, 0)
    assert all(a is not None for a in arrivals)
    assert arrivals == sorted(arrivals)


def test_jitter_bounded_by_three_sigma():
    ch = ChannelModel(topology=Topology.P2P, jitter_sigma_us=100.0)
    link = LinkState()
    base_gap = 22  # back-to-back serialization
    arrivals = Medium(ch, link, Rng(4)).burst([2_304] * 500, 0)
    starts = [i * base_gap for i in range(500)]
    extras = [a - (s + base_gap + 200) for a, s in zip(arrivals, starts)]
    assert all(0 <= e <= 300 + base_gap for e in extras)


def test_zero_loss_zero_jitter_is_seed_independent():
    ch = ChannelModel(topology=Topology.INFRA)
    runs = []
    for seed in (1, 2):
        runs.append(Medium(ch, LinkState(), Rng(seed)).burst([2_304, 1_500, 800], 0))
    assert runs[0] == runs[1]
    assert Medium(ch, LinkState(), None).burst([2_304, 1_500, 800], 0) == runs[0]


def test_bernoulli_loss_rate_within_binomial_bounds():
    p = 0.1
    n = 20_000
    ch = ChannelModel(topology=Topology.P2P, loss_p=p)
    link = LinkState()
    medium = Medium(ch, link, Rng(12))
    lost = sum(1 for _ in range(n) if medium.frame(1, 500, link.busy_until) is None)
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(lost - n * p) <= 3 * sigma


def test_gilbert_elliott_burstier_than_bernoulli():
    ch = ChannelModel(
        topology=Topology.P2P,
        loss_model=LossModel.GILBERT_ELLIOTT,
        ge_p_gb=0.02,
        ge_p_bg=0.25,
        ge_loss_good=0.001,
        ge_loss_bad=0.5,
    )
    link = LinkState()
    medium = Medium(ch, link, Rng(5))
    outcomes = [medium.frame(1, 500, link.busy_until) is None for _ in range(20_000)]
    losses = sum(outcomes)
    assert 0 < losses < 20_000
    # loss events cluster: P(loss | previous loss) well above the base rate
    pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
    base = losses / len(outcomes)
    assert pairs / max(1, losses) > 2 * base


def test_burst_equals_sequential_transmit_on_p2p():
    ch = ChannelModel(topology=Topology.P2P)
    sizes = [2_304, 117, 900, 2_304, 64]
    a = LinkState()
    burst = Medium(ch, a).burst(sizes, 5_000)
    b = LinkState()
    medium = Medium(ch, b)
    seq = [medium.frame(1, s, 5_000) for s in sizes]
    assert [reference_frame([arrival]) for arrival in burst] == seq
    assert a.busy_until == b.busy_until


def test_occupancy_and_infra_doubling():
    window = 1_000_000
    idle = LinkState()
    assert link_occupancy(idle, window) == 0.0
    sizes = [2_304] * 100
    p2p_link = LinkState()
    Medium(ChannelModel(topology=Topology.P2P), p2p_link).burst(sizes, 0)
    infra_link = LinkState()
    Medium(ChannelModel(topology=Topology.INFRA), infra_link).burst(sizes, 0)
    assert link_occupancy(infra_link, window) == 2 * link_occupancy(p2p_link, window)
    with pytest.raises(ValueError):
        link_occupancy(idle, 0)


def test_occupancy_of_a_paced_stream():
    # B bytes per frame at 60 FPS for one second: utilization ~ 8*B*60/bandwidth
    ch = ChannelModel(topology=Topology.P2P)
    link = LinkState()
    frame_bytes = 41_667
    sizes = [2_304] * (frame_bytes // 2_304) + [frame_bytes % 2_304]
    medium = Medium(ch, link)
    for i in range(60):
        medium.burst(sizes, i * 16_667)
    expected = 8 * frame_bytes * 60 / ch.bandwidth_bps
    measured = link_occupancy(link, 1_000_000)
    assert measured == pytest.approx(expected, rel=0.05)  # per-packet ceil rounding


def test_p2p_beats_infra_per_packet():
    for size in (64, 500, 2_304):
        p2p = Medium(ChannelModel(topology=Topology.P2P), LinkState()).frame(1, size, 0)
        infra = Medium(ChannelModel(topology=Topology.INFRA), LinkState()).frame(1, size, 0)
        assert p2p[0] < infra[0]
