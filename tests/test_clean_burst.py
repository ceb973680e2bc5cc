"""The closed-form clean burst against the general walk it stands in for."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvrpipe.dpp import HEADER_LEN, MAX_FRAGS, MTU, PAYLOAD_CAP, FragmentationError, fragment_layout
from uvrpipe.netsim import (
    MAX_PACKET_BYTES,
    ChannelModel,
    LinkState,
    Medium,
    Topology,
    _clean_ends,
)
from uvrpipe.pipeline import run_scenario
from uvrpipe.scenario import ScenarioError, preset_config


@settings(max_examples=1_000)
@given(
    bandwidth=st.integers(1_000_000, 2_000_000_000),
    prop=st.integers(0, 5_000),
    busy_until=st.integers(0, 1_000_000),
    behind=st.integers(0, 1_000_000),
    now=st.integers(0, 1_000_000),
    size=st.integers(1, 400_000),
    tail_wire=st.one_of(st.none(), st.integers(1, MAX_PACKET_BYTES)),
    topology=st.sampled_from(Topology),
)
# the last arrival at its top edge, busy_until + prop: the first arrival
# lands one full packet's serialization after it, or 1 us after it
@example(867_000_000, 200, 0, 0, 0, 41_408, None, Topology.P2P)
@example(867_000_000, 200, 1_000, 0, 0, 41_408, None, Topology.INFRA)
@example(2_000_000_000, 0, 5, 0, 5, 1, None, Topology.P2P)
# one-fragment frames, a one-byte tail, a tail as long as a full packet
@example(867_000_000, 0, 0, 0, 10, 1, None, Topology.INFRA)
@example(1_000_000, 3_000, 5, 0, 7, PAYLOAD_CAP + 1, None, Topology.INFRA)
@example(100_000_000, 1_000, 0, 0, 0, 3 * PAYLOAD_CAP, MAX_PACKET_BYTES, Topology.INFRA)
def test_closed_form_equals_walk(bandwidth, prop, busy_until, behind, now, size, tail_wire, topology):
    ch = ChannelModel(bandwidth_bps=bandwidth, prop_delay_us=prop, topology=topology)
    # ``behind`` us below the top edge of the states a medium reaches from
    # ``LinkState()`` without jitter (the ``uvrpipe.netsim`` docstring)
    last_arrival = max(0, busy_until + prop - behind)
    before = LinkState(busy_until=busy_until, last_arrival=last_arrival)
    fast, walk = replace(before), replace(before)
    count, tail = fragment_layout(size)
    if tail_wire is None:
        tail_wire = HEADER_LEN + tail
    sizes = [MTU] * (count - 1) + [tail_wire]
    arrivals = Medium(ch, walk).burst(sizes, now)
    assert _clean_ends(ch, fast, count, tail_wire, now) == (arrivals[0], arrivals[-1], count)
    assert arrivals[0] > last_arrival
    assert fast == walk


def test_fragment_count_limit():
    assert fragment_layout(MAX_FRAGS * PAYLOAD_CAP) == (MAX_FRAGS, PAYLOAD_CAP)
    with pytest.raises(FragmentationError):
        fragment_layout(MAX_FRAGS * PAYLOAD_CAP + 1)


def test_frame_over_the_fragment_limit_fails_the_run():
    # the nominal I-frame of ~146 MB (97.5% of the limit) fits, but frame 0
    # of seed 3 draws complexity 1.08 and needs ~69k fragments: validation's
    # seeded check names it, and the run fails before it starts
    cfg = preset_config("openuvr")
    cfg.seed = 3
    cfg.duration_s = 0.05
    cfg.codec.bitrate_bps = 16_000_000_000
    errors = cfg.validate()
    assert errors == [
        "seed 3 draws a frame of complexity 1.08176 whose I-frame needs 69125 fragments,"
        " past the 65535-fragment limit"
    ]
    with pytest.raises(ScenarioError) as failed:
        run_scenario(cfg)
    assert failed.value.errors == errors
