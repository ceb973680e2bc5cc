"""Builds a frame's ``DppPacket`` fragments, and feeds them to a ``Reassembler``
the way the runner feeds parsed datagrams."""

from uvrpipe.dpp import (
    FLAG_FORCED,
    FLAG_IFRAME,
    MSG_DATA,
    PAYLOAD_CAP,
    DppPacket,
    Reassembler,
    frame_flags,
)


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
