"""Data-plane protocol: link-layer-sized framing, reassembly, copy accounting.

Wire format (23-byte big-endian header, total datagram <= 2304 bytes):

    magic(2)=0x55,0x56  version(1)=0x01  msg_type(1)  flags(1)
    frame_id(4)  frag_index(2)  frag_count(2)  payload_len(2)
    gen_timestamp_us(8)  payload(payload_len)

msg_type 0x01 carries frame fragments, 0x02 carries control messages.
flags bit0 marks an I-frame fragment, bit1 a forced I-frame.

``HEADER`` is the one description of this layout: ``send_frame`` packs
datagrams with it, gathered from their packed headers and views of the frame,
and ``parse_header`` checks a datagram in place in a reused receive buffer.
Control messages (``cp``) are packed and checked through the same two.
``Reassembler`` takes a run of parsed datagrams of one frame
(``on_fragments``).

On Linux, ``send_frame`` hands the kernel up to ``TRAIN`` datagrams per
``sendmsg`` through UDP segmentation offload (udp(7), ``UDP_SEGMENT``): the
kernel cuts the gathered bytes at ``MTU``, so each datagram on the wire is
still exactly one fragment's header and payload. Elsewhere, or once a socket
refuses a train, it sends one datagram per call.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .core import SimTime
from .netsim import MAX_PACKET_BYTES

MAGIC = b"\x55\x56"
VERSION = 0x01
MSG_DATA = 0x01
MSG_CTRL = 0x02
FLAG_IFRAME = 0x01
FLAG_FORCED = 0x02

HEADER = struct.Struct(">2sBBBIHHHQ")
HEADER_LEN = HEADER.size  # 23
MTU = MAX_PACKET_BYTES
PAYLOAD_CAP = MTU - HEADER_LEN  # 2281
MAX_FRAGS = 0xFFFF
DROP_DEADLINE_US = 33_334  # two 60-FPS frame periods
# the longest jump in frame ids whose skipped frames a receiver registers as
# pending; a longer one is ignored rather than allocated for
GAP_LIMIT = 1024

# udp(7): a send whose ancillary data carries (SOL_UDP, UDP_SEGMENT, size)
# leaves as datagrams of ``size`` bytes, the last one shorter. Linux only;
# the socket module has no constant for it. SOL_UDP is IPPROTO_UDP.
SOL_UDP = 17
UDP_SEGMENT = 103 if sys.platform.startswith("linux") else None
# datagrams per send: the most whose bytes fit one UDP payload of 65,507 bytes
TRAIN = 65_507 // MTU if UDP_SEGMENT is not None else 1
_SEGMENT_AT_MTU = [(SOL_UDP, UDP_SEGMENT, struct.pack("=H", MTU))] if UDP_SEGMENT else []


class WireError(Exception):
    """Base class for datagram parse failures; receivers drop and count."""


class MalformedHeader(WireError):
    pass


class LengthMismatch(WireError):
    pass


class UnsupportedVersion(WireError):
    pass


class FragmentationError(ValueError):
    pass


def parse_header(buf, n: int) -> tuple[int, int, int, int, int, int]:
    """Check the header of the ``n``-byte datagram at the start of ``buf``.

    Returns (msg_type, flags, frame_id, frag_index, frag_count,
    gen_timestamp_us); the payload is ``buf[HEADER_LEN:n]``. ``buf`` may be a
    larger reused receive buffer: nothing past ``n`` is read.
    """
    if n < HEADER_LEN:
        raise MalformedHeader(f"datagram of {n} bytes is shorter than the header")
    magic, version, msg_type, flags, frame_id, frag_index, frag_count, payload_len, ts = (
        HEADER.unpack_from(buf)
    )
    if magic != MAGIC:
        raise MalformedHeader(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}")
    if n - HEADER_LEN != payload_len:
        raise LengthMismatch(
            f"payload_len={payload_len} but {n - HEADER_LEN} payload bytes present"
        )
    if payload_len > PAYLOAD_CAP:
        raise LengthMismatch(f"payload_len={payload_len} exceeds the {MTU}-byte MTU")
    if msg_type not in (MSG_DATA, MSG_CTRL):
        raise MalformedHeader(f"unknown msg_type {msg_type:#x}")
    if frag_index >= frag_count:
        raise MalformedHeader(f"frag_index {frag_index} >= frag_count {frag_count}")
    return msg_type, flags, frame_id, frag_index, frag_count, ts


def fragment_layout(size_bytes: int) -> tuple[int, int]:
    """(fragment count, tail payload bytes) for a frame of ``size_bytes``.

    Every fragment but the tail carries ``PAYLOAD_CAP`` bytes.
    """
    if size_bytes < 1:
        raise FragmentationError("cannot fragment an empty frame")
    count, tail = unchecked_layout(size_bytes)
    if count > MAX_FRAGS:
        raise FragmentationError(f"{count} fragments overflow the 16-bit fragment counter")
    return count, tail


def unchecked_layout(size_bytes):
    """``fragment_layout`` without its checks: plain integer arithmetic, so it
    also lays out an int64 array of frame sizes at once."""
    count = -(-size_bytes // PAYLOAD_CAP)
    return count, size_bytes - PAYLOAD_CAP * (count - 1)


def frame_flags(is_iframe: bool, forced: bool) -> int:
    return (FLAG_IFRAME if is_iframe else 0) | (FLAG_FORCED if forced else 0)


def send_frame(
    sock,
    peer,
    frame_id: int,
    data,
    gen_timestamp_us: int,
    is_iframe: bool,
    forced: bool,
    train: int = TRAIN,
) -> tuple[int, int]:
    """Send a frame as one datagram per fragment: the fragment's ``HEADER``
    (``MSG_DATA``, ``frame_flags``, its index of the frame's ``count`` and
    its payload length) followed by its ``PAYLOAD_CAP`` bytes of ``data``,
    or the tail.

    Up to ``train`` datagrams go to the kernel in one ``sock.sendmsg``,
    gathered from their packed headers and views of ``data``, so the payload
    is copied once, by the kernel. A train of more than one carries
    ``UDP_SEGMENT`` at ``MTU``: every datagram but a frame's last fills the
    MTU, so the kernel cuts the train exactly at the datagrams' boundaries.

    If a train send fails (no segmentation offload on the platform or path,
    ``EMSGSIZE`` under a smaller path MTU, ``EIO`` under IPsec), that train
    and everything after it go one datagram per call. Returns the number of
    ``sendmsg`` calls and the train size for this socket's next frame: 1
    after a fallback.
    """
    count, tail = fragment_layout(len(data))
    flags = frame_flags(is_iframe, forced)
    frame_id &= 0xFFFFFFFF
    view = memoryview(data)
    pack = HEADER.pack
    last = count - 1
    sends = start = 0
    while start < count:
        end = min(start + train, count)
        parts = [None] * (2 * (end - start))
        parts[::2] = [
            pack(
                MAGIC, VERSION, MSG_DATA, flags, frame_id, i, count,
                PAYLOAD_CAP if i < last else tail, gen_timestamp_us,
            )
            for i in range(start, end)
        ]
        # the view ends with the frame, so the last slice is the tail
        parts[1::2] = [
            view[at : at + PAYLOAD_CAP]
            for at in range(start * PAYLOAD_CAP, end * PAYLOAD_CAP, PAYLOAD_CAP)
        ]
        try:
            sock.sendmsg(parts, _SEGMENT_AT_MTU if train > 1 else (), 0, peer)
        except OSError:
            if train == 1:
                raise
            train = 1  # the same train again, one datagram per call
            continue
        sends += 1
        start = end
    return sends, train


def seq_newer(a: int, b: int) -> bool:
    """True if frame id ``a`` is newer than ``b`` under 32-bit serial arithmetic."""
    return a != b and ((a - b) & 0xFFFFFFFF) < 0x80000000


@dataclass
class FrameComplete:
    frame_id: int
    is_iframe: bool
    forced: bool
    gen_timestamp_us: int
    first_arrival: SimTime
    last_arrival: SimTime
    data: bytes


@dataclass
class FrameDropped:
    frame_id: int
    is_iframe: bool


ReassemblyEvent = Union[FrameComplete, FrameDropped]


class _PendingFrame:
    __slots__ = (
        "frag_count",
        "received",
        "mask",
        "first_arrival",
        "deadline_anchor",
        "is_iframe",
        "forced",
        "gen_timestamp_us",
        "chunks",
    )

    def __init__(self, anchor: SimTime):
        self.frag_count = 0
        self.received = 0
        self.mask = 0
        self.first_arrival: Optional[SimTime] = None
        self.deadline_anchor = anchor  # first arrival, or discovery via a newer frame
        self.is_iframe = False
        self.forced = False
        self.gen_timestamp_us = 0
        # each run's bytes, by the index of its first fragment
        self.chunks: dict[int, bytes] = {}


class Reassembler:
    """Per-frame fragment collection with deadline-based whole-frame dropping.

    Each frame id resolves exactly once, to either FrameComplete or
    FrameDropped. A frame is dropped when its deadline (anchored at its first
    fragment arrival, or at the first sight of a newer frame if none of its
    own fragments ever arrived) expires - either observed directly via
    ``expire`` or implied by a fragment of a newer frame arriving later.

    It is the runner's wire receiver: ``on_fragments`` takes a run of
    datagrams of one frame with consecutive fragment indices, read together
    (one datagram is a run of one), and the frame's bytes are joined when it
    completes.
    """

    def __init__(self, drop_deadline_us: int):
        self.drop_deadline_us = drop_deadline_us
        self._pending: dict[int, _PendingFrame] = {}
        self._resolved: set[int] = set()
        # no pending deadline anchor is below this, so no sweep before
        # ``_anchor_floor + drop_deadline_us`` can drop a frame
        self._anchor_floor = math.inf
        self.highest_seen: Optional[int] = None
        self.malformed_count = 0
        self.duplicate_count = 0

    def _resolve(self, frame_id: int) -> None:
        self._pending.pop(frame_id, None)
        self._resolved.add(frame_id)
        if len(self._resolved) > 8192 and self.highest_seen is not None:
            horizon = (self.highest_seen - 2048) & 0xFFFFFFFF
            self._resolved = {f for f in self._resolved if not seq_newer(horizon, f)}

    def _sweep(self, now: SimTime, newest_id: Optional[int]) -> list[FrameDropped]:
        """Drop the pending frames past their deadline that are older than
        ``newest_id``, or all of them when it is None."""
        if now <= self._anchor_floor + self.drop_deadline_us:
            return []
        dropped = []
        floor = math.inf
        for fid, pend in list(self._pending.items()):
            expired = now > pend.deadline_anchor + self.drop_deadline_us
            if expired and (newest_id is None or seq_newer(newest_id, fid)):
                dropped.append(FrameDropped(frame_id=fid, is_iframe=pend.is_iframe))
                self._resolve(fid)
            elif pend.deadline_anchor < floor:
                floor = pend.deadline_anchor
        self._anchor_floor = floor
        return dropped

    def _note_frame(self, now: SimTime, frame_id: int) -> list[FrameDropped]:
        """Record that frame_id is on the air: discover gaps, run the drop sweep."""
        if self.highest_seen is None or seq_newer(frame_id, self.highest_seen):
            # frames skipped entirely start their deadline at discovery time
            if self.highest_seen is not None:
                gap = (frame_id - self.highest_seen) & 0xFFFFFFFF
                if gap <= GAP_LIMIT:
                    fid = (self.highest_seen + 1) & 0xFFFFFFFF
                    while seq_newer(frame_id, fid):
                        if fid not in self._resolved and fid not in self._pending:
                            self._pending[fid] = _PendingFrame(anchor=now)
                            if now < self._anchor_floor:
                                self._anchor_floor = now
                        fid = (fid + 1) & 0xFFFFFFFF
            self.highest_seen = frame_id
        return self._sweep(now, frame_id)

    def on_fragments(
        self,
        now: SimTime,
        frame_id: int,
        frag_index: int,
        frag_count: int,
        is_iframe: bool,
        forced: bool,
        gen_timestamp_us: int,
        payloads: Sequence[bytes | memoryview],
    ) -> list[ReassemblyEvent]:
        """Ingest fragments ``frag_index``, ``frag_index + 1``, ... of one
        frame, all arrived at ``now``, one per item of ``payloads``. The
        header fields are the run's first datagram's. A payload may be a view
        of a reused buffer (it is copied).

        The events and the state left equal one call per fragment, in order:
        the drop sweep runs once, since every fragment repeats its ``now``
        and frame id. A run goes in as one step when it can
        (``_ingest_run``), else one fragment at a time.
        """
        events: list[ReassemblyEvent] = list(self._note_frame(now, frame_id))
        if len(payloads) > 1 and self._ingest_run(
            now, frame_id, frag_index, frag_count, is_iframe, forced, gen_timestamp_us, payloads,
            events,
        ):
            return events
        for index, payload in enumerate(payloads, frag_index):
            ingested = self._ingest(
                now, frame_id, index, frag_count, is_iframe, forced, gen_timestamp_us, payload
            )
            if ingested is not None:
                events.append(ingested)
        return events

    def _ingest(
        self,
        now: SimTime,
        frame_id: int,
        frag_index: int,
        frag_count: int,
        is_iframe: bool,
        forced: bool,
        gen_timestamp_us: int,
        payload: bytes | memoryview,
    ) -> Optional[FrameComplete]:
        if frame_id in self._resolved:
            return None
        pend = self._pending.get(frame_id)
        if pend is None or pend.first_arrival is None:
            pend = self._open(now, frame_id, pend, frag_count, is_iframe, forced, gen_timestamp_us)
        elif frag_count != pend.frag_count:
            self.malformed_count += 1
            return None

        bit = 1 << frag_index
        if pend.mask & bit:
            self.duplicate_count += 1
            return None
        pend.mask |= bit
        pend.received += 1
        pend.chunks[frag_index] = bytes(payload)
        if pend.received == pend.frag_count:
            return self._complete(now, frame_id, pend)
        return None

    def _ingest_run(
        self,
        now: SimTime,
        frame_id: int,
        frag_index: int,
        frag_count: int,
        is_iframe: bool,
        forced: bool,
        gen_timestamp_us: int,
        payloads: Sequence[bytes | memoryview],
        events: list[ReassemblyEvent],
    ) -> bool:
        """Take a run of fragments in one step, its bytes as one chunk, and
        say whether it did. It does when the frame is not resolved, agrees
        on ``frag_count`` (or opens with this run), has none of the run's
        fragments yet and cannot complete before the run's last one. Then
        ``_ingest`` would take each fragment in turn with the same result,
        and only the last could complete the frame."""
        if frame_id in self._resolved:
            return False
        pend = self._pending.get(frame_id)
        n = len(payloads)
        bits = ((1 << n) - 1) << frag_index
        if pend is None or pend.first_arrival is None:
            if n > frag_count:
                return False
            pend = self._open(now, frame_id, pend, frag_count, is_iframe, forced, gen_timestamp_us)
        elif frag_count != pend.frag_count or pend.received + n > frag_count or pend.mask & bits:
            return False
        pend.mask |= bits
        pend.received += n
        pend.chunks[frag_index] = b"".join(payloads)
        if pend.received == frag_count:
            events.append(self._complete(now, frame_id, pend))
        return True

    def _open(
        self,
        now: SimTime,
        frame_id: int,
        pend: Optional[_PendingFrame],
        frag_count: int,
        is_iframe: bool,
        forced: bool,
        gen_timestamp_us: int,
    ) -> _PendingFrame:
        """The pending frame ``frame_id`` as its first fragment leaves it:
        new, or ``pend``, discovered through a newer frame, whose deadline
        now runs from ``now``."""
        if pend is None:
            pend = self._pending[frame_id] = _PendingFrame(anchor=now)
        pend.frag_count = frag_count
        pend.first_arrival = now
        pend.deadline_anchor = now
        if now < self._anchor_floor:
            self._anchor_floor = now
        pend.is_iframe = is_iframe
        pend.forced = forced
        pend.gen_timestamp_us = gen_timestamp_us
        return pend

    def _complete(self, now: SimTime, frame_id: int, pend: _PendingFrame) -> FrameComplete:
        # one chunk, a whole frame read as one run, is the frame: no join
        data = b"".join([pend.chunks[i] for i in sorted(pend.chunks)])
        self._resolve(frame_id)
        return FrameComplete(
            frame_id=frame_id,
            is_iframe=pend.is_iframe,
            forced=pend.forced,
            gen_timestamp_us=pend.gen_timestamp_us,
            first_arrival=pend.first_arrival,
            last_arrival=now,
            data=data,
        )

    def expire(self, now: SimTime) -> list[FrameDropped]:
        """Resolve every pending frame whose deadline has passed."""
        return self._sweep(now, None)


# --- host-side copy accounting -------------------------------------------


@dataclass
class CopyLedger:
    entries: list[tuple[str, int, tuple[str, str]]] = field(default_factory=list)

    def add(self, stage: str, nbytes: int, src: str, dst: str) -> None:
        self.entries.append((stage, nbytes, (src, dst)))

    def total_bytes(self) -> int:
        return sum(n for _, n, _ in self.entries)

    def stages(self) -> list[str]:
        return [s for s, _, _ in self.entries]


def host_send_path(size_bytes: int, direct_net_io: bool, ledger: CopyLedger) -> CopyLedger:
    """Account the encoded-content copies taken by the host network path.

    The layered path repartitions the frame at the transport, network and link
    layers (one buffer copy each); direct network I/O maps the link buffer into
    the sender's space so the frame is copied exactly once.
    """
    if direct_net_io:
        ledger.add("link-buffer", size_bytes, "device", "link")
        return ledger
    ledger.add("transport-buffer", size_bytes, "main", "transport")
    ledger.add("network-reframe", size_bytes, "transport", "network")
    ledger.add("link-reframe", size_bytes, "network", "link")
    return ledger


def host_capture_path(
    raw_bytes: int,
    raw_converted_bytes: int,
    transcode_avoidance: bool,
    shared_gpu_buffer: bool,
    ledger: CopyLedger,
) -> CopyLedger:
    """Account the raw-content copies ahead of the encoder.

    With a shared GPU buffer the encoder reads the render target in place and
    no raw bytes ever cross a memory-domain boundary.
    """
    if shared_gpu_buffer:
        return ledger
    ledger.add("capture", raw_bytes, "gpu", "main")
    encode_in = raw_bytes if transcode_avoidance else raw_converted_bytes
    ledger.add("encode-input", encode_in, "main", "gpu")
    return ledger
