"""Discrete wireless channel: serialization, propagation, jitter, loss, hops.

Topologies:
  P2P   - one hop on a dedicated medium.
  INFRA - two hops (sender -> access point -> receiver) that contend for one
          shared medium, so every byte crosses the air twice.

Senders acquire the medium for a whole frame burst at a time; the access
point forwards the burst afterwards in arrival order. Lost packets still
occupy the medium on the hop where they were transmitted.

``transmit_burst`` walks a burst packet by packet (``_one_hop``) and is the
general path. ``_burst_clean`` computes the same result in O(1) for a
draw-free link, one whose channel has Bernoulli loss with ``loss_p == 0`` and
no jitter, so that no random number is ever drawn:

Each packet's transmission ends at ``end_k = max(req_k, end_{k-1}) + ser_k``
(Lindley's recursion). A frame is ``n`` packets: ``n - 1`` full ones, then
a tail. Let ``start = max(now, busy_until)`` and ``S_k = ser_1 + ... +
ser_k``. Hop 1 sends the packets back to back from ``start`` and ends
packet k at ``start + S_k``, so on P2P packet k arrives at
``start + S_k + prop``. Under INFRA the access point forwards packet k from
``req_k = start + S_k + prop`` but cannot begin before the sender's burst
ends at ``start + S_n``. Unrolled, the recursion takes the latest of these
release times, each plus the serializations from its packet up to k:

    busy2_k = max(start + S_n + S_k, max_{j<=k} (start + S_j + prop + S_k - S_{j-1}))
            = start + S_k + max(S_n, prop + max_{j<=k} ser_j)

and packet k arrives at ``busy2_k + prop``. Only ``k = 1`` and ``k = n`` are
evaluated. Link accounting is summed in the same way: ``S_n`` busy time,
``n`` packets and the frame's bytes per hop.

The receiver-side FIFO clamp raises an arrival to ``last_arrival`` when it
would land earlier. The walk's arrivals rise with k, so the clamp binds
somewhere only if it binds on the first arrival; then ``_burst_clean``
returns None without touching the link and the caller takes the walk, as it
does for every channel that draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import Rng, SimTime

MAX_PACKET_BYTES = 2_304


class Topology(Enum):
    P2P = "P2P"
    INFRA = "INFRA"


class LossModel(Enum):
    BERNOULLI = "bernoulli"
    GILBERT_ELLIOTT = "gilbert_elliott"


@dataclass
class ChannelModel:
    bandwidth_bps: int = 867_000_000
    prop_delay_us: int = 200
    jitter_sigma_us: float = 0.0
    topology: Topology = Topology.P2P
    loss_model: LossModel = LossModel.BERNOULLI
    loss_p: float = 0.0
    ge_p_gb: float = 0.01  # good -> bad transition
    ge_p_bg: float = 0.2  # bad -> good transition
    ge_loss_good: float = 0.0
    ge_loss_bad: float = 0.3


@dataclass
class LinkState:
    busy_until: SimTime = 0
    busy_accum_us: int = 0
    last_arrival: SimTime = 0
    ge_bad: bool = False
    sent_packets: int = 0
    lost_packets: int = 0
    sent_bytes: int = 0


class OversizedPacket(ValueError):
    pass


def serialization_us(size_bytes: int, bandwidth_bps: int) -> int:
    return -(-(size_bytes * 8 * 1_000_000) // bandwidth_bps)


def _lost(ch: ChannelModel, link: LinkState, rng: Optional[Rng]) -> bool:
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


def _jitter(ch: ChannelModel, rng: Optional[Rng]) -> int:
    if ch.jitter_sigma_us <= 0.0:
        return 0
    # one-sided truncated normal: extra delay in [0, 3 sigma]
    draw = abs(rng.stream("jitter").standard_normal()) * ch.jitter_sigma_us
    return int(min(draw, 3.0 * ch.jitter_sigma_us))


def _one_hop(
    ch: ChannelModel,
    link: LinkState,
    size: int,
    request: SimTime,
    rng: Optional[Rng],
    final_hop: bool,
) -> tuple[Optional[SimTime], SimTime]:
    """Send one packet on one hop; returns (arrival or None if lost, tx_end)."""
    ser = serialization_us(size, ch.bandwidth_bps)
    start = request if request > link.busy_until else link.busy_until
    end = start + ser
    link.busy_until = end
    link.busy_accum_us += ser
    link.sent_packets += 1
    link.sent_bytes += size
    if _lost(ch, link, rng):
        link.lost_packets += 1
        return None, end
    arrival = end + ch.prop_delay_us + _jitter(ch, rng)
    if final_hop:
        # receiver-side FIFO: jitter never reorders deliveries on a link
        if arrival < link.last_arrival:
            arrival = link.last_arrival
        link.last_arrival = arrival
    return arrival, end


def transmit(
    ch: ChannelModel, link: LinkState, size_bytes: int, now: SimTime, rng: Optional[Rng] = None
) -> Optional[SimTime]:
    """Deliver one packet; returns the arrival time, or None when lost.

    INFRA applies both hops back to back on the same link state.
    """
    if size_bytes > MAX_PACKET_BYTES:
        raise OversizedPacket(f"{size_bytes} bytes exceeds the {MAX_PACKET_BYTES}-byte limit")
    infra = ch.topology is Topology.INFRA
    arrival, _ = _one_hop(ch, link, size_bytes, now, rng, final_hop=not infra)
    if arrival is None:
        return None
    if infra:
        arrival, _ = _one_hop(ch, link, size_bytes, arrival, rng, final_hop=True)
    return arrival


def transmit_burst(
    ch: ChannelModel,
    link: LinkState,
    sizes: list[int],
    now: SimTime,
    rng: Optional[Rng] = None,
) -> list[Optional[SimTime]]:
    """Deliver a frame's packets as one burst; returns per-packet arrivals.

    The sender drains the whole burst in a single medium acquisition; under
    INFRA the access point then forwards the surviving packets in order. For
    P2P this is exactly equivalent to per-packet ``transmit`` calls.
    """
    for size in sizes:
        if size > MAX_PACKET_BYTES:
            raise OversizedPacket(f"{size} bytes exceeds the {MAX_PACKET_BYTES}-byte limit")
    infra = ch.topology is Topology.INFRA
    first_hop: list[tuple[int, Optional[SimTime]]] = []
    request = now
    for size in sizes:
        arrival, end = _one_hop(ch, link, size, request, rng, final_hop=not infra)
        first_hop.append((size, arrival))
        request = end
    if not infra:
        return [arrival for _, arrival in first_hop]
    arrivals: list[Optional[SimTime]] = []
    for size, hop1_arrival in first_hop:
        if hop1_arrival is None:
            arrivals.append(None)
            continue
        arrival, _ = _one_hop(ch, link, size, hop1_arrival, rng, final_hop=True)
        arrivals.append(arrival)
    return arrivals


def _burst_clean(
    ch: ChannelModel,
    link: LinkState,
    count: int,
    full_size: int,
    tail_size: int,
    now: SimTime,
) -> Optional[tuple[SimTime, SimTime]]:
    """Closed-form burst of ``count - 1`` packets of ``full_size`` bytes and a tail.

    Returns (first_arrival, last_arrival) and updates ``link`` exactly as
    ``transmit_burst`` would. Returns None and leaves ``link`` untouched when
    the channel draws or the receiver FIFO clamp binds (see the module
    docstring); the caller then takes ``transmit_burst``.
    """
    if ch.loss_model is not LossModel.BERNOULLI or ch.loss_p > 0.0 or ch.jitter_sigma_us > 0.0:
        return None
    if full_size > MAX_PACKET_BYTES or tail_size > MAX_PACKET_BYTES:
        raise OversizedPacket(f"packets exceed the {MAX_PACKET_BYTES}-byte limit")
    prop = ch.prop_delay_us
    ser_full = serialization_us(full_size, ch.bandwidth_bps)
    ser_tail = serialization_us(tail_size, ch.bandwidth_bps)
    ser_first = ser_full if count > 1 else ser_tail
    total = (count - 1) * ser_full + ser_tail
    start = now if now > link.busy_until else link.busy_until
    if ch.topology is Topology.INFRA:
        peak = ser_tail if ser_tail > ser_first else ser_first
        first = start + ser_first + max(total, prop + ser_first) + prop
        last = start + total + max(total, prop + peak) + prop
        hops = 2
    else:
        first = start + ser_first + prop
        last = start + total + prop
        hops = 1
    if first < link.last_arrival:
        return None
    link.busy_until = last - prop
    link.busy_accum_us += hops * total
    link.sent_packets += hops * count
    link.sent_bytes += hops * ((count - 1) * full_size + tail_size)
    link.last_arrival = last
    return first, last


def link_occupancy(link: LinkState, window_us: int) -> float:
    if window_us <= 0:
        raise ValueError("occupancy window must be > 0")
    return min(1.0, link.busy_accum_us / window_us)
