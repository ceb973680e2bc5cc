"""The reference packet codec of the tests: a datagram as a ``DppPacket``.

``encode_packet`` and ``decode_packet`` write and read one datagram through
``dpp.HEADER`` and ``dpp.parse_header``; ``fragment`` builds a frame's DATA
packets. ``dpp.send_frame`` and ``cp.encode_cp`` are pinned to this codec's
bytes. ``deliver`` feeds a packet to a ``Reassembler`` the way the runner
feeds a parsed datagram.
"""

from dataclasses import dataclass

from uvrpipe.dpp import (
    FLAG_FORCED,
    FLAG_IFRAME,
    HEADER,
    HEADER_LEN,
    MAGIC,
    MAX_FRAGS,
    MSG_DATA,
    MTU,
    PAYLOAD_CAP,
    VERSION,
    FragmentationError,
    Reassembler,
    frame_flags,
    parse_header,
)


@dataclass
class DppPacket:
    msg_type: int
    flags: int
    frame_id: int
    frag_index: int
    frag_count: int
    gen_timestamp_us: int
    payload: bytes

    def __post_init__(self):
        if not (0 <= self.frag_index < self.frag_count <= MAX_FRAGS):
            raise FragmentationError(
                f"frag_index {self.frag_index} not below frag_count {self.frag_count}"
            )
        if HEADER_LEN + len(self.payload) > MTU:
            raise FragmentationError(f"packet exceeds {MTU}-byte MTU")

    @property
    def wire_size(self) -> int:
        return HEADER_LEN + len(self.payload)


def encode_packet(p: DppPacket) -> bytes:
    return HEADER.pack(
        MAGIC,
        VERSION,
        p.msg_type,
        p.flags,
        p.frame_id & 0xFFFFFFFF,
        p.frag_index,
        p.frag_count,
        len(p.payload),
        p.gen_timestamp_us,
    ) + p.payload


def decode_packet(b: bytes) -> DppPacket:
    """The packet of datagram ``b``; rejects what ``parse_header`` rejects."""
    msg_type, flags, frame_id, frag_index, frag_count, ts = parse_header(b, len(b))
    return DppPacket(msg_type, flags, frame_id, frag_index, frag_count, ts, b[HEADER_LEN:])


def fragment(
    frame_id: int,
    data: bytes,
    gen_timestamp_us: int,
    is_iframe: bool,
    forced: bool = False,
    payload_cap: int = PAYLOAD_CAP,
) -> list[DppPacket]:
    """Split encoded frame bytes into ordered DATA packets: full fragments of
    ``payload_cap`` bytes, then the tail. ``dpp.send_frame`` is pinned to
    these packets' encoding."""
    count = -(-len(data) // payload_cap)
    flags = frame_flags(is_iframe, forced)
    return [
        DppPacket(
            msg_type=MSG_DATA,
            flags=flags,
            frame_id=frame_id,
            frag_index=index,
            frag_count=count,
            gen_timestamp_us=gen_timestamp_us,
            payload=data[index * payload_cap : (index + 1) * payload_cap],
        )
        for index in range(count)
    ]


def deliver(reasm: Reassembler, p: DppPacket, now: int) -> list:
    """``reasm.on_fragments`` with the fields and payload of packet ``p``."""
    return reasm.on_fragments(
        now,
        p.frame_id,
        p.frag_index,
        p.frag_count,
        bool(p.flags & FLAG_IFRAME),
        bool(p.flags & FLAG_FORCED),
        p.gen_timestamp_us,
        [p.payload],
    )
