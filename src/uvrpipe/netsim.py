"""Discrete wireless channel: serialization, propagation, jitter, loss, hops.

Topologies:
  P2P   - one hop on a dedicated medium.
  INFRA - two hops (sender -> access point -> receiver) that contend for one
          shared medium, so every byte crosses the air twice.

Senders acquire the medium for a whole frame burst at a time; the access
point forwards the burst afterwards in arrival order. Lost packets still
occupy the medium on the hop where they were transmitted.

A burst is computed in two steps: draw, then time. First each hop draws its
randomness:

  * loss: ``2n`` uniforms for Gilbert-Elliott (a loss draw, then a
    transition draw, per packet), ``n`` for Bernoulli with ``loss_p > 0``,
    none for ``loss_p == 0``;
  * jitter: one standard normal per packet the hop delivers, none when
    ``jitter_sigma_us == 0``, in one numpy call.

The draw order is a contract, because reports are pinned byte for byte:
per hop, the loss draws come in packet order and the jitter draws of the
delivered packets follow; under INFRA, hop 2 covers only hop 1's survivors
and all of its draws come after hop 1's. The loss and jitter streams are
independent, so this is exactly what a per-packet walk with one scalar draw
per value consumes; ``tests/test_lossy_burst.py`` keeps that walk as the
reference.

Every draw of a burst goes through a ``Medium``: a channel bound to one
``LinkState`` and to the loss stream of one ``Rng``. The simulator binds one
per run and puts every frame and control message on the air through it. A
frame is ``n - 1`` full packets of ``MAX_PACKET_BYTES`` and a tail, which is
never longer; a control message is a one-packet frame.

The medium is its ``Rng``'s only loss reader, and it draws ahead itself: it
keeps one array of uniforms from the loss stream and computes each packet's
outcome over it with numpy (``_loss_table``). Under Gilbert-Elliott, each
transition draw ``u`` maps the chain's {good, bad} by one of three maps: a
swap when ``u < min(p_gb, p_bg)``, a constant when ``u`` lies between the
two (good if ``p_gb <= p_bg``, else bad), and the identity when
``u >= max(p_gb, p_bg)``. The state before packet k is therefore the value
of the last constant map (or the start state) XOR the parity of the swaps
since then: one running maximum and one cumulative sum. The cumulative
sum of swaps never falls, so the running maximum of its values at the
constant maps is its value at the last one, with no gather by index. A
packet is lost when its loss draw is below its state's loss probability.
Bernoulli loss is the stateless case, at one draw per packet. The table keeps the packets that
*disturb* (a loss, or a change of state) as one sorted list, and the medium
keeps the index of the next one, so a hop that reaches no disturbance is one
comparison and one add.

A table is valid from one position in the array and one chain state. When
a hop needs more values than are left, the medium keeps the unread rest,
appends the next block (64 values, doubling with each block up to 65,536,
or what the hop lacks if that is more) and builds the table over both; when ``ge_bad``
was set from outside, it builds one over the rest. A one-off binding pays
for little more than its own packets. The values come out in the stream's
order whatever the block sizes, so the draw order above holds; only a
second reader of the loss stream after the medium has drawn ahead (another
``Medium``, ``Rng.stream("loss")``, ``Rng.restore("loss")``) sees values
past the medium's array, not the ones that the medium has yet to read.

Then the burst is timed. ``Medium.frame`` times a burst in closed form,
below: on P2P without jitter every burst, lossy or not, inline from its
loss flags and constants fixed for the run (``prop`` and the serialization
of a full packet), reading no flags when it reaches no disturbance; under
INFRA without jitter only a burst that lost nothing on either hop
(``_clean_ends``); with jitter none. Every other burst walks its packets
over the values already drawn, in plain Python numbers, as
``Medium.burst`` always does.

The closed form (``Medium.frame`` on P2P, ``_clean_ends`` for INFRA)
computes in O(1) what the walk computes:

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
            = start + S_k + max(S_n, prop + ser_first)

as no packet is longer than the first: a full one, or the tail when it is
all there is. Packet k arrives at ``busy2_k + prop``. Only ``k = 1`` and
``k = n`` are evaluated. Link accounting is summed in the same way: ``S_n``
busy time, ``n`` packets and the frame's bytes per hop.

A lost packet still occupies the medium, so on P2P packet k arrives at
``start + S_k + prop`` whether or not others were lost. A lossy P2P burst's
first and last arrival are those of its first and last delivered packet,
read off the loss flags with the lost count; the busy time is still
``S_n``, and the link's last arrival moves only when something arrives.

The receiver-side FIFO clamp raises an arrival to ``last_arrival`` when it
would land earlier. Without jitter it never binds on a link that a medium
reached from ``LinkState()``, so the closed form has no clamp. Invariant:
``last_arrival <= busy_until + prop``, as the walk delivers each packet at
its hop's busy end plus ``prop``, the closed form's last arrival is its busy
end plus ``prop`` and ``busy_until`` never falls. A burst's first delivered
arrival is at least ``max(now, busy_until) + ser_first + prop`` (plus
``hop2`` under INFRA) and ``ser_first >= 1``, so it lands strictly after
``last_arrival``, lossy or not; the walk's later arrivals rise with k. With
jitter no burst reaches the closed form: ``Medium._draw`` returns the hops
whenever it draws jitter, so the burst walks, with the only clamp left.

``clean_run`` evaluates the same closed form for a whole run of frames at
once, over int64 arrays; across frames the link is Lindley's recursion
again, one frame per step, unrolled into one running maximum, and each step
lands after the last as above.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import Rng, SimTime, running_max

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


_MIN_BLOCK, _MAX_BLOCK = 64, 1 << 16  # uniforms that a medium draws ahead at a time
_NEVER = 1 << 62  # the next disturbance of a channel that draws nothing


def _loss_table(
    ch: ChannelModel, values: np.ndarray, bad: bool
) -> tuple[np.ndarray, Optional[np.ndarray], list[int]]:
    """The loss table over an array of loss-stream uniforms, for a chain that
    starts in state ``bad``: per packet, whether it is lost and (for
    Gilbert-Elliott; else None) the chain state after it, and the sorted
    packets that disturb (lose, or change the state), closed by the array's
    packet count. Each flag is the per-packet walk's, bit for bit."""
    if ch.loss_model is LossModel.BERNOULLI:
        lost = values < ch.loss_p
        return lost, None, [*np.flatnonzero(lost).tolist(), len(lost)]
    # a loss draw, then a transition draw, per packet
    loss, move = values[0::2], values[1::2]
    low, high = sorted((ch.ge_p_gb, ch.ge_p_bg))
    swaps = np.cumsum(move < low, dtype=np.int32)  # a table holds far fewer than 2**31 packets
    constant = (move >= low) & (move < high)
    # the swap count at the last constant map, a running maximum as the
    # cumsum never falls; before the first, a negative count whose parity
    # gives the start state: -1 when it differs from the constant's, else -2
    value = ch.ge_p_gb > ch.ge_p_bg  # the constant map's state
    base = np.maximum.accumulate(np.where(constant, swaps, -2 + (value != bad)))
    # the last constant map's value, or the start state, XOR the parity of the swaps since
    after = ((swaps ^ base) & 1).astype(bool) ^ value
    before = np.concatenate(([bad], after[:-1]))
    lost = loss < np.where(before, ch.ge_loss_bad, ch.ge_loss_good)
    marks = np.flatnonzero(lost | (before != after)).tolist()
    return lost, after, [*marks, len(lost)]


def _jitter_draws(ch: ChannelModel, n: int, rng: Optional[Rng]) -> Optional[list[int]]:
    """Extra delays of ``n`` delivered packets, or None when none is drawn."""
    sigma = ch.jitter_sigma_us
    if sigma <= 0.0 or not n:
        return None
    # one-sided truncated normal: extra delay in [0, 3 sigma]
    cap = 3.0 * sigma
    stream = rng.stream("jitter")
    draws = [stream.standard_normal()] if n == 1 else stream.standard_normal(n).tolist()
    return [int(min(abs(z) * sigma, cap)) for z in draws]


_Draws = list[tuple[Optional[list[bool]], Optional[list[int]]]]


def _hop(
    ch: ChannelModel,
    link: LinkState,
    sizes: list[int],
    requests: list[SimTime],
    lost: Optional[list[bool]],
    jitter: Optional[list[int]],
    final_hop: bool,
) -> list[Optional[SimTime]]:
    """Time packets sent in order on one hop over its draws (``_draw``);
    returns arrivals, None where lost.

    Packet k starts at ``max(requests[k], end of packet k-1)``.
    """
    n = len(sizes)
    if lost is None:
        lost = [False] * n
    delivered = lost.count(False)
    if jitter is None:
        jitter = [0] * delivered
    prop = ch.prop_delay_us
    busy = link.busy_until
    last = link.last_arrival
    busy_us = 0
    j = 0
    arrivals: list[Optional[SimTime]] = []
    ser_size = None
    for size, request, is_lost in zip(sizes, requests, lost):
        if size != ser_size:  # a burst repeats one full size: serialize it once
            ser, ser_size = serialization_us(size, ch.bandwidth_bps), size
        busy = (request if request > busy else busy) + ser
        busy_us += ser
        if is_lost:
            arrivals.append(None)
            continue
        arrival = busy + prop + jitter[j]
        j += 1
        if final_hop:
            # receiver-side FIFO: jitter never reorders deliveries on a link
            if arrival < last:
                arrival = last
            last = arrival
        arrivals.append(arrival)
    link.busy_until = busy
    link.busy_accum_us += busy_us
    link.last_arrival = last
    link.sent_packets += n
    link.lost_packets += n - delivered
    link.sent_bytes += sum(sizes)
    return arrivals


def _walk(
    ch: ChannelModel, link: LinkState, sizes: list[int], now: SimTime, hops: Optional[_Draws]
) -> list[Optional[SimTime]]:
    """Time a burst over its draws (``_draw``), hop by hop; returns
    per-packet arrivals.

    The sender drains the whole burst in a single medium acquisition; under
    INFRA the access point then forwards the surviving packets in order.
    """
    infra = ch.topology is Topology.INFRA
    if hops is None:  # every hop came out clean
        hops = [(None, None)] * (2 if infra else 1)
    (lost, jitter), *forward = hops
    arrivals = _hop(ch, link, sizes, [now] * len(sizes), lost, jitter, final_hop=not infra)
    if forward:
        survivors = [k for k, arrival in enumerate(arrivals) if arrival is not None]
        second_hop = _hop(
            ch,
            link,
            [sizes[k] for k in survivors],
            [arrivals[k] for k in survivors],
            *forward[0],
            final_hop=True,
        )
        for k, arrival in zip(survivors, second_hop):
            arrivals[k] = arrival
    return arrivals


def _oversized(size: int) -> OversizedPacket:
    return OversizedPacket(f"{size} bytes exceeds the {MAX_PACKET_BYTES}-byte limit")


class Medium:
    """A channel bound to one ``LinkState`` and to the loss stream of one
    ``Rng``, for every frame (``frame``) and burst of any sizes (``burst``)
    that goes on the air between them.

    The medium is the stream's only reader and draws ahead itself (the
    module docstring): ``_values`` holds the uniforms drawn from the table's
    first packet on, and the loss flags come from a table over them
    (``_loss_table``). ``_at`` is the packets read since the table's first,
    so the unread values start at ``_per * _at``; ``_next`` is the next
    packet that disturbs (or the table's end), and ``_bad`` the chain state
    up to it.
    """

    def __init__(self, ch: ChannelModel, link: LinkState, rng: Optional[Rng] = None):
        self.ch, self.link, self.rng = ch, link, rng
        self._hops = 2 if ch.topology is Topology.INFRA else 1
        self._inline = self._hops == 1 and ch.jitter_sigma_us <= 0.0
        self._ser_full = serialization_us(MAX_PACKET_BYTES, ch.bandwidth_bps)
        # uniforms per packet: none when nothing is drawn
        if ch.loss_model is LossModel.GILBERT_ELLIOTT:
            self._per = 2
        else:
            self._per = 1 if ch.loss_p > 0.0 else 0
        self._values = np.zeros(0)
        self._block = _MIN_BLOCK  # the values that the next draw ahead draws at least
        self._at = 0
        self._next = _NEVER if not self._per else -1
        self._bad = link.ge_bad
        self._lost = np.zeros(0, dtype=bool)  # the table (``_loss_table``)
        self._after: Optional[np.ndarray] = None
        self._marks: list[int] = []

    def _table(self, n: int) -> None:
        """Build the table over the unread values in the link's chain state,
        first drawing the next block after them when fewer than ``n``
        packets' values are left."""
        per, link = self._per, self.link
        rest = self._values[per * self._at :]
        if len(rest) < per * n:
            more = self.rng.stream("loss").random(max(self._block, per * n - len(rest)))
            rest = np.concatenate((rest, more))
            self._block = min(2 * self._block, _MAX_BLOCK)
        self._values, self._at, self._bad = rest, 0, link.ge_bad
        self._lost, self._after, self._marks = _loss_table(self.ch, rest, link.ge_bad)

    def _flags(self, n: int) -> Optional[list[bool]]:
        """The loss flags of the next ``n`` packets, None when none is lost;
        steps ``link.ge_bad`` over them."""
        link = self.link
        at = self._at
        if at + n <= self._next and link.ge_bad is self._bad:
            self._at = at + n
            return None
        if not self._per:  # nothing is drawn; ``ge_bad`` was set from outside
            self._at, self._bad = at + n, link.ge_bad
            return None
        if at + n > len(self._lost) or link.ge_bad is not self._bad:
            self._table(n)
            at = 0
        end = at + n
        flags = self._lost[at:end].tolist()
        if self._after is not None:
            link.ge_bad = bool(self._after[end - 1])
        self._at, self._bad = end, link.ge_bad
        self._next = self._marks[bisect_left(self._marks, end)]
        return flags if True in flags else None

    def _draw(self, n: int) -> Optional[_Draws]:
        """Every draw of an ``n``-packet burst, per hop: (loss flags, jitter),
        each None when it came out clean; None when every hop lost nothing and
        drew no jitter. Under INFRA, hop 2 draws for hop 1's survivors only, and
        not at all when there are none."""
        hops: _Draws = []
        clean = True
        for _ in range(self._hops):
            if not n:
                break
            lost = self._flags(n)
            if lost is not None:
                n = lost.count(False)
            jitter = _jitter_draws(self.ch, n, self.rng)
            clean = clean and lost is None and jitter is None
            hops.append((lost, jitter))
        return None if clean else hops

    def burst(self, sizes: list[int], now: SimTime) -> list[Optional[SimTime]]:
        """Deliver a frame's packets as one burst; returns per-packet arrivals.

        For P2P this is exactly equivalent to one-packet ``frame`` calls.
        """
        if (largest := max(sizes, default=0)) > MAX_PACKET_BYTES:
            raise _oversized(largest)
        return _walk(self.ch, self.link, sizes, now, self._draw(len(sizes)))

    def frame(
        self, count: int, tail_size: int, now: SimTime
    ) -> Optional[tuple[SimTime, SimTime, int]]:
        """``burst`` of ``count - 1`` full packets and a tail, summed up as
        ``frame_arrivals``: draw, then time in closed form (inline on P2P
        without jitter, ``_clean_ends`` for a clean INFRA burst) or by the
        walk, as the module docstring says."""
        if tail_size > MAX_PACKET_BYTES:
            raise _oversized(tail_size)
        ch, link = self.ch, self.link
        if not self._inline:
            hops = self._draw(count)
            if hops is None:  # a clean burst delivers every packet
                return _clean_ends(ch, link, count, tail_size, now)
            sizes = [MAX_PACKET_BYTES] * (count - 1) + [tail_size]
            return frame_arrivals(_walk(ch, link, sizes, now, hops))
        at = self._at
        if at + count <= self._next and link.ge_bad is self._bad:
            self._at = at + count
            lost = None
        else:
            lost = self._flags(count)
        # P2P: packet k arrives at ``start + S_k + prop``, lost or not
        ser_full = self._ser_full
        ser_tail = -(-(tail_size * 8_000_000) // ch.bandwidth_bps)
        busy = link.busy_until
        start = now if now > busy else busy
        total = (count - 1) * ser_full + ser_tail
        link.busy_until = start + total
        link.busy_accum_us += total
        link.sent_packets += count
        link.sent_bytes += (count - 1) * MAX_PACKET_BYTES + tail_size
        base = start + ch.prop_delay_us
        if lost is None:
            link.last_arrival = last = base + total
            return base + (ser_full if count > 1 else ser_tail), last, count
        delivered = lost.count(False)
        link.lost_packets += count - delivered
        if not delivered:
            return None
        head, back = lost.index(False), lost[::-1].index(False)
        first = base + (total if head == count - 1 else (head + 1) * ser_full)
        link.last_arrival = last = base + (total if back == 0 else (count - back) * ser_full)
        return first, last, delivered


def frame_arrivals(
    arrivals: list[Optional[SimTime]],
) -> Optional[tuple[SimTime, SimTime, int]]:
    """A frame's per-packet arrivals as (first, last, delivered): the first and
    last arrival and the count of packets that arrive; None when none does."""
    delivered = [arrival for arrival in arrivals if arrival is not None]
    if not delivered:
        return None
    return delivered[0], delivered[-1], len(delivered)


def _clean_shape(ch: ChannelModel, count, tail_size):
    """A clean burst's first arrival and busy end, as offsets from its start,
    and the busy time it adds per hop.

    Plain integer arithmetic, so it also evaluates int64 arrays of frames
    at once (``clean_run``).
    """
    prop = ch.prop_delay_us
    ser_full = serialization_us(MAX_PACKET_BYTES, ch.bandwidth_bps)
    ser_tail = serialization_us(tail_size, ch.bandwidth_bps)
    # the first packet is a full one unless the tail is all there is
    ser_first = ser_tail + (count > 1) * (ser_full - ser_tail)
    total = (count - 1) * ser_full + ser_tail
    if ch.topology is not Topology.INFRA:
        return ser_first + prop, total, total
    larger = np.maximum if isinstance(total, np.ndarray) else max
    hop2 = larger(total, prop + ser_first)  # a tail is never longer than the full first packet
    return ser_first + hop2 + prop, total + hop2, total


def _account_clean(ch: ChannelModel, link: LinkState, busy_us: int, packets: int, nbytes: int):
    """Add clean bursts' busy time, packets and bytes (per hop) to ``link``."""
    hops = 2 if ch.topology is Topology.INFRA else 1
    link.busy_accum_us += hops * busy_us
    link.sent_packets += hops * packets
    link.sent_bytes += hops * nbytes


def _clean_ends(
    ch: ChannelModel, link: LinkState, count: int, tail_size: int, now: SimTime
) -> tuple[SimTime, SimTime, int]:
    """Closed-form burst of ``count - 1`` full packets and a tail without
    jitter, whose draws, if any, came out clean.

    Returns (first arrival, last arrival, packets delivered) and updates
    ``link`` exactly as the walk would on a link reached from
    ``LinkState()``, where no clamp binds.
    """
    first_off, busy_off, total = _clean_shape(ch, count, tail_size)
    start = now if now > link.busy_until else link.busy_until
    link.last_arrival = last = start + busy_off + ch.prop_delay_us
    link.busy_until = start + busy_off
    _account_clean(ch, link, total, count, (count - 1) * MAX_PACKET_BYTES + tail_size)
    return start + first_off, last, count


def clean_run(
    ch: ChannelModel, link: LinkState, count: np.ndarray, tail_size: np.ndarray, now: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_clean_ends`` for a run of frames at once on a draw-free channel,
    each of ``count - 1`` full packets and a tail, requested at ``now``.

    Returns int64 arrays (start, last arrival) and updates ``link`` as the
    per-frame calls would; validation keeps a run's times below 2**62
    (``scenario.time_bound``), so none wraps. Across frames the link is the
    Lindley recursion ``busy_i = max(now_i, busy_{i-1}) + T_i``, where
    ``T_i`` is frame i's busy offset; with ``C = cumsum(T)`` it unrolls to
    ``busy_i = C_i + max(busy_until, max_{k<=i} (now_k - C_{k-1}))``, one
    running maximum. A tail, at most a full packet, is never oversized.
    """
    if not len(count):
        return count, count
    _, busy_off, total = _clean_shape(ch, count, tail_size)
    cum = np.cumsum(busy_off)
    lead = running_max(now - (cum - busy_off))
    busy = cum + np.maximum(lead, link.busy_until)
    start = busy - busy_off
    last = busy + ch.prop_delay_us
    link.busy_until = int(busy[-1])
    link.last_arrival = int(last[-1])
    _account_clean(
        ch,
        link,
        int(total.sum()),
        int(count.sum()),
        int(((count - 1) * MAX_PACKET_BYTES + tail_size).sum()),
    )
    return start, last


def draw_free(ch: ChannelModel) -> bool:
    """True when a burst on ``ch`` draws no random number: Bernoulli loss with
    ``loss_p == 0`` and no jitter."""
    return ch.loss_model is LossModel.BERNOULLI and ch.loss_p <= 0.0 and ch.jitter_sigma_us <= 0.0


def link_occupancy(link: LinkState, window_us: int) -> float:
    if window_us <= 0:
        raise ValueError("occupancy window must be > 0")
    return min(1.0, link.busy_accum_us / window_us)
