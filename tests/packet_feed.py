"""Feeds ``DppPacket`` objects to a ``Reassembler`` the way the runner feeds
parsed datagrams."""

from uvrpipe.dpp import FLAG_FORCED, FLAG_IFRAME, DppPacket, Reassembler


def deliver(reasm: Reassembler, p: DppPacket, now: int) -> list:
    """``reasm.on_fragment`` with the fields and payload of packet ``p``."""
    return reasm.on_fragment(
        now,
        p.frame_id,
        p.frag_index,
        p.frag_count,
        bool(p.flags & FLAG_IFRAME),
        bool(p.flags & FLAG_FORCED),
        p.gen_timestamp_us,
        p.payload,
    )
