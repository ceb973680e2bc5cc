from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st
from packet_feed import DppPacket, decode_packet, encode_packet

from uvrpipe import dpp
from uvrpipe.cp import (
    WIRE_BYTES,
    CpMessage,
    HostDecision,
    HostFeedbackState,
    MudFeedbackState,
    MudMode,
    SUB_IFRAME_REQUEST,
    decode_cp,
    encode_cp,
    host_on_iframe_emitted,
    host_on_request,
    mud_on_complete,
    mud_on_drop,
)


def _complete(fid, is_i):
    return dpp.FrameComplete(
        frame_id=fid, is_iframe=is_i, forced=False, gen_timestamp_us=0,
        first_arrival=0, last_arrival=0, data=b"",
    )


def test_wire_size_and_roundtrip():
    msg = CpMessage(SUB_IFRAME_REQUEST, dropped_frame_id=100, last_received_frame_id=99,
                    send_time=123_456)
    raw = encode_cp(msg)
    assert len(raw) == WIRE_BYTES == 32
    assert decode_cp(raw) == msg


def test_ctrl_rides_the_shared_header():
    raw = encode_cp(CpMessage(SUB_IFRAME_REQUEST))
    packet = decode_packet(raw)
    assert packet.msg_type == dpp.MSG_CTRL
    assert len(packet.payload) == 9


_U32 = st.integers(0, 2**32 - 1)


@given(st.builds(CpMessage, st.integers(0, 255), _U32, _U32, st.integers(0, 2**64 - 1)))
def test_encode_cp_is_the_reference_codec(m):
    payload = bytes([m.subtype]) + m.dropped_frame_id.to_bytes(4, "big")
    payload += m.last_received_frame_id.to_bytes(4, "big")
    assert encode_cp(m) == encode_packet(DppPacket(dpp.MSG_CTRL, 0, 0, 0, 1, m.send_time, payload))
    assert decode_cp(encode_cp(m)) == m


def test_normal_complete_is_silent():
    state = MudFeedbackState()
    assert mud_on_complete(state, 5, False, 0) is None
    assert state.mode is MudMode.NORMAL


def test_drop_enters_recovery_and_requests():
    state = MudFeedbackState()
    msg = mud_on_drop(state, 100, 7)
    assert state.mode is MudMode.RECOVERY
    assert msg.subtype == SUB_IFRAME_REQUEST
    assert msg.dropped_frame_id == 100


def test_request_train_until_iframe():
    state = MudFeedbackState()
    mud_on_drop(state, 10, 0)
    train = [mud_on_complete(state, fid, False, fid) for fid in (11, 12, 13)]
    assert None not in train
    assert mud_on_complete(state, 14, True, 14) is None
    assert state.mode is MudMode.NORMAL
    assert mud_on_complete(state, 15, False, 15) is None


def _reference_frame_event(state, ev, now):
    """The MUD rule as one function over reassembler events, the reference."""
    messages = []
    if isinstance(ev, dpp.FrameDropped):
        state.mode = MudMode.RECOVERY
        state.dropped_frame_id = ev.frame_id
        messages.append(CpMessage(SUB_IFRAME_REQUEST, ev.frame_id, state.last_received_frame_id, now))
    else:
        state.last_received_frame_id = ev.frame_id
        if ev.is_iframe:
            state.mode = MudMode.NORMAL
        elif state.mode is MudMode.RECOVERY:
            messages.append(CpMessage(SUB_IFRAME_REQUEST, state.dropped_frame_id, ev.frame_id, now))
    state.requests_sent += len(messages)
    return messages


# a resolved frame: (frame id, dropped, is I-frame, now)
EVENTS = st.lists(st.tuples(_U32, st.booleans(), st.booleans(), st.integers(0, 2**62)), max_size=30)


@given(EVENTS)
def test_complete_and_drop_entries_equal_the_frame_event_rule(events):
    reference, entries = MudFeedbackState(), MudFeedbackState()
    for fid, dropped, is_i, now in events:
        if dropped:
            ev = dpp.FrameDropped(frame_id=fid, is_iframe=is_i)
            got = [mud_on_drop(entries, fid, now)]
        else:
            ev = replace(_complete(fid, is_i), first_arrival=now, last_arrival=now)
            msg = mud_on_complete(entries, fid, is_i, now)
            got = [] if msg is None else [msg]
        want = _reference_frame_event(reference, ev, now)
        assert got == want
        assert entries == reference


def test_host_suppression_window():
    state = HostFeedbackState()
    assert host_on_request(state, CpMessage(SUB_IFRAME_REQUEST), 0) is HostDecision.FORCE_NEXT_IFRAME
    host_on_iframe_emitted(state, 10_000, window_us=200_000)
    assert state.suppression_until == 210_000
    assert (
        host_on_request(state, CpMessage(SUB_IFRAME_REQUEST), 60_000)
        is HostDecision.SUPPRESSED
    )
    assert state.suppressed_count == 1
    # boundary is inclusive
    assert (
        host_on_request(state, CpMessage(SUB_IFRAME_REQUEST), 210_000)
        is HostDecision.FORCE_NEXT_IFRAME
    )


def test_scheduled_iframe_without_pending_leaves_window_alone():
    state = HostFeedbackState()
    host_on_iframe_emitted(state, 50_000)
    assert state.suppression_until == 0
    assert state.forced_count == 0


def test_scheduled_iframe_with_pending_clears_and_starts_window():
    state = HostFeedbackState()
    host_on_request(state, CpMessage(SUB_IFRAME_REQUEST), 0)
    host_on_iframe_emitted(state, 1_000_000, window_us=200_000)
    assert not state.pending_force
    assert state.suppression_until == 1_200_000
    assert state.forced_count == 1


def test_forced_iframes_spaced_at_least_a_window_apart():
    state = HostFeedbackState()
    emitted = []
    now = 0
    for _ in range(2_000):
        now += 16_667
        if host_on_request(state, CpMessage(SUB_IFRAME_REQUEST), now) is HostDecision.FORCE_NEXT_IFRAME:
            host_on_iframe_emitted(state, now, window_us=200_000)
            emitted.append(now)
    gaps = [b - a for a, b in zip(emitted, emitted[1:])]
    assert min(gaps) >= 200_000
