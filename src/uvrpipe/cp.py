"""Control protocol: dropped-frame feedback and forced-I-frame suppression.

CP messages ride the same 23-byte header as data packets (``dpp.HEADER``)
with msg_type 0x02 and a 9-byte payload: subtype(1) + dropped_frame_id(4) +
last_received(4), big-endian. One datagram per message, exactly
``WIRE_BYTES`` (32) on the wire, packed in one call and checked by
``dpp.parse_header``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import dpp
from .core import SimTime

SUB_IFRAME_REQUEST = 0x01
SUB_HELLO = 0x02

_PAYLOAD = struct.Struct(">BII")
# the whole datagram: the data-plane header, then the payload
_DATAGRAM = struct.Struct(dpp.HEADER.format + _PAYLOAD.format[1:])
WIRE_BYTES = _DATAGRAM.size

DEFAULT_SUPPRESSION_WINDOW_US = 200_000


@dataclass
class CpMessage:
    subtype: int
    dropped_frame_id: int = 0
    last_received_frame_id: int = 0
    send_time: SimTime = 0


def encode_cp(msg: CpMessage) -> bytes:
    return _DATAGRAM.pack(
        dpp.MAGIC, dpp.VERSION, dpp.MSG_CTRL, 0, 0, 0, 1, _PAYLOAD.size, msg.send_time,
        msg.subtype, msg.dropped_frame_id & 0xFFFFFFFF, msg.last_received_frame_id & 0xFFFFFFFF,
    )


def decode_cp(b: bytes) -> CpMessage:
    msg_type, _flags, _frame_id, _index, _count, send_time = dpp.parse_header(b, len(b))
    if msg_type != dpp.MSG_CTRL:
        raise dpp.MalformedHeader("not a control datagram")
    if len(b) != WIRE_BYTES:
        raise dpp.LengthMismatch(f"control payload of {len(b) - dpp.HEADER_LEN} bytes")
    subtype, dropped, last_received = _PAYLOAD.unpack_from(b, dpp.HEADER_LEN)
    return CpMessage(
        subtype=subtype,
        dropped_frame_id=dropped,
        last_received_frame_id=last_received,
        send_time=send_time,
    )


class MudMode(Enum):
    NORMAL = "NORMAL"
    RECOVERY = "RECOVERY"


@dataclass
class MudFeedbackState:
    mode: MudMode = MudMode.NORMAL
    dropped_frame_id: int = 0
    last_received_frame_id: int = 0
    requests_sent: int = 0


def mud_on_complete(
    state: MudFeedbackState, frame_id: int, is_iframe: bool, now: SimTime
) -> Optional[CpMessage]:
    """Receiver reaction to a complete frame: an I-frame ends recovery, and
    any other frame in recovery repeats the I-frame request."""
    state.last_received_frame_id = frame_id
    if is_iframe:
        state.mode = MudMode.NORMAL
    elif state.mode is MudMode.RECOVERY:
        state.requests_sent += 1
        return CpMessage(SUB_IFRAME_REQUEST, state.dropped_frame_id, frame_id, now)
    return None


def mud_on_drop(state: MudFeedbackState, frame_id: int, now: SimTime) -> CpMessage:
    """Receiver reaction to a dropped frame: enter recovery and request an I-frame."""
    state.mode = MudMode.RECOVERY
    state.dropped_frame_id = frame_id
    state.requests_sent += 1
    return CpMessage(SUB_IFRAME_REQUEST, frame_id, state.last_received_frame_id, now)


class HostDecision(Enum):
    FORCE_NEXT_IFRAME = "ForceNextIFrame"
    SUPPRESSED = "Suppressed"


@dataclass
class HostFeedbackState:
    suppression_until: SimTime = 0
    pending_force: bool = False
    suppressed_count: int = 0
    forced_count: int = 0


def host_on_request(state: HostFeedbackState, msg: CpMessage, now: SimTime) -> HostDecision:
    if msg.subtype != SUB_IFRAME_REQUEST:
        raise ValueError("host_on_request expects an IFRAME_REQUEST")
    if now >= state.suppression_until:  # boundary inclusive
        state.pending_force = True
        return HostDecision.FORCE_NEXT_IFRAME
    state.suppressed_count += 1
    return HostDecision.SUPPRESSED


def host_on_iframe_emitted(
    state: HostFeedbackState,
    now: SimTime,
    window_us: SimTime = DEFAULT_SUPPRESSION_WINDOW_US,
) -> None:
    """Note that an I-frame satisfying a pending request was just encoded.

    Scheduled I-frames with no request pending do not start a window.
    """
    if state.pending_force:
        state.pending_force = False
        state.forced_count += 1
        state.suppression_until = now + window_us
