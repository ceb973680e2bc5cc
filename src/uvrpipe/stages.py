"""Datapath construction: the stage table, copy plan, link-overhead calibration.

The frame lifecycle is a sum of fixed per-stage costs plus the mechanistic
packet transport from netsim. The stage costs were measured on a reference
host/receiver profile (RTX-2080-class host, SoC receiver, 802.11ac at
867 Mbps, 20 Mbps / 60 FPS stream), and each optimization toggle removes its
measured share. This is the package's one stage table: ``codec`` holds no
stage cost, and ``build_datapath`` is the only code that applies the toggles
to these constants.

    stage               constant                        us  removed by
    transcode           TRANSCODE_US                 5,510  transcode_avoidance
    GPU copies          GPU_COPY_US                  4,710  shared_gpu_buffer
    core encode         CORE_ENCODE_US               3,720
    host netstack       HOST_NETSTACK_US            17,630
      bypassed part     DIRECT_IO_HOST_SAVING_US    13,670  direct_net_io
      stream buffering  FEEDBACK_BUFFER_TRIM_US        100  feedback_control
    receiver netstack   MUD_NETSTACK_US                700  direct_net_io
    decode              MUD_DECODE_US                2,940
    presentation        RESIDUAL_PRESENTATION_US     1,400  see below

The network stage is the mean per-frame latency ``NET_TARGET_US`` of the
frame's (topology, color space) cell, minus what serialization and
propagation already account for mechanistically.

With the full host datapath streamlined (transcode avoidance + shared GPU
buffer + direct network I/O), a presentation/scan-out residual becomes
visible that the coarse baseline stage accounting absorbs. It is reported as
its own stage, and is zero on every other datapath.

Provenance. The paper (arXiv 2101.07327; PAPER.md holds one passage of it)
gives three figures for these constants, and only the first maps onto them:

  * Copying only encoded data cuts end-to-end latency by 37 %. That is the
    ``direct_net_io`` delta: DIRECT_IO_HOST_SAVING_US + MUD_NETSTACK_US =
    14.37 ms of the 38.42-ms baseline (37.4 %; ``tests/golden/ab_suite.json``).
  * The same optimization saves 6.7 ms of memory copies. No constant or sum
    of constants here equals it: GPU_COPY_US (4,710) belongs to another
    toggle, and the table keeps no copy time of its own for the netstack,
    whose whole saving is the one DIRECT_IO_HOST_SAVING_US.
  * RGB encoding cuts the host's encode time from 10.3 to 5.6 ms (4.7 ms).
    TRANSCODE_US is 5,510, and the encode path (TRANSCODE_US + GPU_COPY_US
    + CORE_ENCODE_US) is 13,940 us with every toggle off and 8,430 with
    transcode avoidance alone, so neither end nor the saving matches.

No figure in that passage gives the other constants. They are the reference
profile's, and together they give the paper's two end-to-end means: 38.41
ms with every toggle off (13,940 encode path + 17,630 host netstack + 3,200
network + 700 + 2,940 receiver) and 14.32 ms with all five on (3,720 +
3,860 + 2,400 + 2,940 + 1,400 residual).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from operator import attrgetter

from . import codec as codec_mod
from . import dpp, netsim
from .codec import CodecConfig, FrameType
from .core import ColorSpace, SimTime

TRANSCODE_US = 5_510
GPU_COPY_US = 4_710
CORE_ENCODE_US = 3_720
HOST_NETSTACK_US = 17_630
DIRECT_IO_HOST_SAVING_US = 13_670
FEEDBACK_BUFFER_TRIM_US = 100
MUD_NETSTACK_US = 700
MUD_DECODE_US = 2_940
RESIDUAL_PRESENTATION_US = 1_400

# Mean per-frame network-subsystem latency measured on the reference profile,
# by (topology, encode color space). The P2P/RGB cell reflects the measured
# interaction between RGB payload growth and the dedicated channel.
NET_TARGET_US = {
    (netsim.Topology.INFRA, ColorSpace.YUV420): 3_200,
    (netsim.Topology.INFRA, ColorSpace.RGB): 3_200,
    (netsim.Topology.P2P, ColorSpace.YUV420): 1_600,
    (netsim.Topology.P2P, ColorSpace.RGB): 2_400,
}

# the most that the stages add to a frame's times on any datapath: no toggle
# adds to a constant, and ``link_fixed_overhead_us`` is at most its cell's target
MAX_STAGES_US = (TRANSCODE_US + GPU_COPY_US + CORE_ENCODE_US + HOST_NETSTACK_US + MUD_NETSTACK_US
                 + MUD_DECODE_US + RESIDUAL_PRESENTATION_US + max(NET_TARGET_US.values()))

REFERENCE_BITRATE_BPS = 20_000_000
REFERENCE_FPS = 60


@dataclass
class OptimizationToggles:
    transcode_avoidance: bool = False
    shared_gpu_buffer: bool = False
    direct_net_io: bool = False
    p2p_topology: bool = False
    feedback_control: bool = False

    @classmethod
    def all_on(cls) -> "OptimizationToggles":
        return cls(True, True, True, True, True)


TOGGLE_NAMES = tuple(f.name for f in fields(OptimizationToggles))


def expected_transport_us(size_bytes: int, channel: netsim.ChannelModel) -> int:
    """Last-fragment delivery time for one frame on an idle, lossless link.

    The clean burst's closed form (``netsim._clean_shape``): on an idle link
    it starts at once and the FIFO clamp never binds, so its last fragment
    arrives one propagation delay after the medium's busy end.
    """
    count, tail = dpp.fragment_layout(size_bytes)
    _first, busy_end, _total = netsim._clean_shape(channel, count, dpp.HEADER_LEN + tail)
    return busy_end + channel.prop_delay_us


def _reference_sizes(cfg: CodecConfig) -> tuple[int, int]:
    ref = replace(cfg, bitrate_bps=REFERENCE_BITRATE_BPS, fps=REFERENCE_FPS)
    nominal = codec_mod.nominal_sizes(ref)
    return (
        codec_mod.encoded_size(FrameType.I, ref, 1.0, nominal),
        codec_mod.encoded_size(FrameType.P, ref, 1.0, nominal),
    )


def link_fixed_overhead_us(cfg: CodecConfig, channel: netsim.ChannelModel) -> int:
    """Per-frame MAC/link-control cost not covered by serialization.

    Derived so that at the reference operating point the mean network latency
    equals the profile target for this (topology, color space) cell; off the
    reference point the mechanistic part moves the mean realistically.
    """
    color = codec_mod.effective_color_space(cfg)
    target = NET_TARGET_US[(channel.topology, color)]
    size_i, size_p = _reference_sizes(cfg)
    g = cfg.gop_size
    mech_mean = (
        expected_transport_us(size_i, channel)
        + (g - 1) * expected_transport_us(size_p, channel)
    ) / g
    return max(0, round(target - mech_mean))


@dataclass(frozen=True)  # with copies of its own parts, so runs can share it
class DatapathGraph:
    toggles: OptimizationToggles
    codec: CodecConfig  # with the toggles' color space applied
    channel: netsim.ChannelModel  # on the toggles' topology
    host_stages: tuple[tuple[str, SimTime], ...]
    encode_path_us: SimTime
    host_netstack_us: SimTime
    link_fixed_us: SimTime
    mud_service_us: SimTime
    residual_us: SimTime

    @cached_property
    def host_netstack_copies(self) -> int:
        """Copies of the encoded frame per frame sent, read off the copy ledger."""
        # every copy of a one-byte frame adds one byte, and no raw bytes are copied
        return ledger_frame_copies(self, 0, 0, 1).total_bytes()


def build_datapath(
    toggles: OptimizationToggles, cfg: CodecConfig, channel: netsim.ChannelModel
) -> DatapathGraph:
    """Resolve the per-frame stage plan for a toggle combination."""
    cfg = replace(cfg, transcode_avoidance=toggles.transcode_avoidance)
    topology = netsim.Topology.P2P if toggles.p2p_topology else netsim.Topology.INFRA
    channel = replace(channel, topology=topology)

    host_stages: list[tuple[str, SimTime]] = []
    if toggles.shared_gpu_buffer:
        host_stages.append(("capture-in-place", 0))
    else:
        host_stages.append(("capture", 0))
    if not toggles.transcode_avoidance:
        host_stages.append(("transcode", TRANSCODE_US))
    if not toggles.shared_gpu_buffer:
        host_stages.append(("gpu-copy", GPU_COPY_US))
    host_stages.append(("encode", CORE_ENCODE_US))
    encode_path = sum(us for _, us in host_stages)

    netstack = HOST_NETSTACK_US
    if toggles.direct_net_io:
        netstack -= DIRECT_IO_HOST_SAVING_US
    if toggles.feedback_control:
        netstack -= FEEDBACK_BUFFER_TRIM_US
    host_stages.append(("link-send" if toggles.direct_net_io else "netstack", netstack))

    streamlined = (
        toggles.transcode_avoidance and toggles.shared_gpu_buffer and toggles.direct_net_io
    )
    return DatapathGraph(
        toggles=replace(toggles),
        codec=cfg,
        channel=channel,
        host_stages=tuple(host_stages),
        encode_path_us=encode_path,
        host_netstack_us=netstack,
        link_fixed_us=link_fixed_overhead_us(cfg, channel),
        mud_service_us=MUD_DECODE_US + (0 if toggles.direct_net_io else MUD_NETSTACK_US),
        residual_us=RESIDUAL_PRESENTATION_US if streamlined else 0,
    )


# each part's field values, in field order
toggle_values, codec_values, channel_values = (
    attrgetter(*(f.name for f in fields(part)))
    for part in (OptimizationToggles, CodecConfig, netsim.ChannelModel)
)


def shared_datapath(
    toggles: OptimizationToggles, cfg: CodecConfig, channel: netsim.ChannelModel
) -> DatapathGraph:
    """``build_datapath`` of the parts' values, built once and shared
    read-only by every run whose values agree."""
    return _datapath(*toggle_values(toggles), *codec_values(cfg), *channel_values(channel))


@lru_cache(maxsize=2 ** len(TOGGLE_NAMES), typed=True)  # typed: 1, 1.0 and True differ
def _datapath(*values) -> DatapathGraph:
    codec_at = len(TOGGLE_NAMES)
    channel_at = codec_at + len(fields(CodecConfig))
    return build_datapath(
        OptimizationToggles(*values[:codec_at]),
        CodecConfig(*values[codec_at:channel_at]),
        netsim.ChannelModel(*values[channel_at:]),
    )


def ledger_frame_copies(
    graph: DatapathGraph, raw_bytes: int, raw_converted_bytes: int, encoded_bytes: int
) -> dpp.CopyLedger:
    """Full host-side copy ledger for one frame on this datapath."""
    ledger = dpp.CopyLedger()
    dpp.host_capture_path(
        raw_bytes,
        raw_converted_bytes,
        graph.toggles.transcode_avoidance,
        graph.toggles.shared_gpu_buffer,
        ledger,
    )
    dpp.host_send_path(encoded_bytes, graph.toggles.direct_net_io, ledger)
    return ledger
