import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvrpipe import dpp, netsim, stages
from uvrpipe.codec import CodecConfig, FrameType, effective_color_space, encoded_size
from uvrpipe.core import ColorSpace
from uvrpipe.netsim import ChannelModel, Topology
from uvrpipe.stages import (
    NET_TARGET_US,
    TOGGLE_NAMES,
    OptimizationToggles,
    build_datapath,
    expected_transport_us,
    ledger_frame_copies,
    link_fixed_overhead_us,
)


def _graph(**kwargs):
    return build_datapath(OptimizationToggles(**kwargs), CodecConfig(), ChannelModel())


def test_baseline_graph_census():
    g = _graph()
    assert g.host_netstack_copies == 3
    assert "transcode" in [name for name, _ in g.host_stages]
    assert g.encode_path_us == 13_940
    assert g.host_netstack_us == 17_630
    assert g.mud_service_us == 3_640
    assert g.residual_us == 0
    assert g.channel.topology is Topology.INFRA
    assert effective_color_space(g.codec) is ColorSpace.YUV420


def test_all_on_graph_census():
    g = build_datapath(OptimizationToggles.all_on(), CodecConfig(gop_size=480), ChannelModel())
    assert [name for name, _ in g.host_stages] == ["capture-in-place", "encode", "link-send"]
    assert g.host_netstack_copies == 1
    assert g.encode_path_us == 3_720
    assert g.host_netstack_us == 17_630 - 13_670 - 100
    assert g.mud_service_us == 2_940
    assert g.residual_us == 1_400
    assert g.channel.topology is Topology.P2P
    assert effective_color_space(g.codec) is ColorSpace.RGB


def test_p2p_toggle_changes_no_host_stages():
    a = _graph()
    b = _graph(p2p_topology=True)
    assert a.host_stages == b.host_stages
    assert a.host_netstack_copies == b.host_netstack_copies
    assert b.channel.topology is Topology.P2P


def test_residual_requires_full_streamlined_datapath():
    assert _graph(transcode_avoidance=True, shared_gpu_buffer=True).residual_us == 0
    assert _graph(transcode_avoidance=True, direct_net_io=True).residual_us == 0
    assert (
        _graph(transcode_avoidance=True, shared_gpu_buffer=True, direct_net_io=True).residual_us
        == 1_400
    )


def test_encode_path_matches_latency_table():
    assert _graph().encode_path_us == 13_940
    assert _graph(transcode_avoidance=True).encode_path_us == 8_430
    assert _graph(shared_gpu_buffer=True).encode_path_us == 9_230
    assert _graph(transcode_avoidance=True, shared_gpu_buffer=True).encode_path_us == 3_720


# the default link, and one so fast that link_fixed_us takes nearly its whole target
@pytest.mark.parametrize("channel", [ChannelModel(), ChannelModel(10**12, prop_delay_us=0)])
def test_stage_shifts_are_nonnegative_and_within_the_stage_maximum(channel):
    # the array run shifts its shared timing by these, and validation's time
    # bound (scenario.time_bound) takes MAX_STAGES_US for their sum
    for toggles in itertools.product((False, True), repeat=len(TOGGLE_NAMES)):
        g = build_datapath(OptimizationToggles(*toggles), CodecConfig(), channel)
        shift = g.encode_path_us + g.host_netstack_us
        assert shift >= 0 and g.link_fixed_us >= 0
        receiver = g.link_fixed_us + g.mud_service_us + g.residual_us
        assert shift + receiver <= stages.MAX_STAGES_US


def test_link_calibration_hits_network_targets():
    # fixed overhead + mechanistic mean over one GOP reproduces each target cell
    for topology in (Topology.INFRA, Topology.P2P):
        for rgb in (False, True):
            cfg = replace(CodecConfig(), transcode_avoidance=rgb)
            channel = replace(ChannelModel(), topology=topology)
            fixed = link_fixed_overhead_us(cfg, channel)
            size_i = encoded_size(FrameType.I, cfg, 1.0)
            size_p = encoded_size(FrameType.P, cfg, 1.0)
            mech = (
                expected_transport_us(size_i, channel)
                + (cfg.gop_size - 1) * expected_transport_us(size_p, channel)
            ) / cfg.gop_size
            color = ColorSpace.RGB if rgb else ColorSpace.YUV420
            target = NET_TARGET_US[(topology, color)]
            assert abs(fixed + mech - target) < 1.0


def _transport_reference(size_bytes, channel):
    """One frame's burst on an idle link of ``channel`` made lossless and
    jitter-free, through ``netsim.Medium.frame``: its last arrival."""
    clean = replace(
        channel, jitter_sigma_us=0.0, loss_model=netsim.LossModel.BERNOULLI, loss_p=0.0
    )
    count, tail = dpp.fragment_layout(size_bytes)
    medium = netsim.Medium(clean, netsim.LinkState())
    _first, last, _delivered = medium.frame(count, dpp.HEADER_LEN + tail, 0)
    return last


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 2_000_000),
    topology=st.sampled_from(Topology),
    bandwidth=st.integers(1_000, 10**10),
    prop=st.integers(0, 5_000),
    jitter=st.sampled_from([0.0, 40.0]),
    loss=st.sampled_from([0.0, 0.3]),
)
def test_expected_transport_equals_a_clean_burst(size, topology, bandwidth, prop, jitter, loss):
    channel = ChannelModel(
        topology=topology,
        bandwidth_bps=bandwidth,
        prop_delay_us=prop,
        jitter_sigma_us=jitter,
        loss_p=loss,
    )
    assert expected_transport_us(size, channel) == _transport_reference(size, channel)


def test_frame_copy_ledger_dominance():
    base = _graph()
    opt = build_datapath(OptimizationToggles.all_on(), CodecConfig(), ChannelModel())
    for size in (41_408, 144_928, 1):
        lb = ledger_frame_copies(base, 6_220_800, 3_110_400, size)
        lo = ledger_frame_copies(opt, 6_220_800, 3_110_400, size)
        assert len([s for s in lb.stages() if "buffer" in s or "reframe" in s]) == 3
        assert len(lo.entries) == 1
        assert lo.total_bytes() < lb.total_bytes()
        assert not any(s in ("capture", "encode-input") for s in lo.stages())


def test_docstring_stage_table_matches_constants():
    rows = re.findall(r"^ +[a-zA-Z /-]+? {2,}([A-Z_]+_US) +([\d,]+)", stages.__doc__, re.M)
    assert len(rows) == 9
    for name, value in rows:
        assert getattr(stages, name) == int(value.replace(",", "")), name
