import random

import pytest
from packet_feed import DppPacket, decode_packet, deliver, encode_packet, fragment

from uvrpipe import dpp
from uvrpipe.dpp import (
    CopyLedger,
    FrameComplete,
    FrameDropped,
    FragmentationError,
    LengthMismatch,
    MalformedHeader,
    Reassembler,
    UnsupportedVersion,
    fragment_layout,
    host_capture_path,
    host_send_path,
    seq_newer,
)

GOLDEN_PACKET = DppPacket(
    msg_type=dpp.MSG_DATA,
    flags=dpp.FLAG_IFRAME,
    frame_id=1,
    frag_index=0,
    frag_count=1,
    gen_timestamp_us=42,
    payload=b"AB",
)

# 23-byte header + payload, hand-assembled per the wire layout
GOLDEN_BYTES = bytes.fromhex("555601010100000001000000010002000000000000002a4142")


def test_golden_vector_encode():
    assert encode_packet(GOLDEN_PACKET) == GOLDEN_BYTES
    assert len(GOLDEN_BYTES) == dpp.HEADER_LEN + 2


def test_golden_vector_decode():
    p = decode_packet(GOLDEN_BYTES)
    assert p == GOLDEN_PACKET


def test_header_is_23_bytes_and_mtu_holds():
    assert dpp.HEADER_LEN == 23
    assert dpp.PAYLOAD_CAP == 2_281
    packet = DppPacket(dpp.MSG_DATA, 0, 1, 0, 1, 0, b"x" * dpp.PAYLOAD_CAP)
    assert packet.wire_size == 2_304
    with pytest.raises(FragmentationError):
        DppPacket(dpp.MSG_DATA, 0, 1, 0, 1, 0, b"x" * (dpp.PAYLOAD_CAP + 1))


def test_p_frame_flags_zero():
    packets = fragment(9, b"abc", 0, is_iframe=False)
    assert packets[0].flags == 0x00


def test_decode_rejections():
    with pytest.raises(MalformedHeader):
        decode_packet(GOLDEN_BYTES[:10])
    bad_magic = b"\x00" + GOLDEN_BYTES[1:]
    with pytest.raises(MalformedHeader):
        decode_packet(bad_magic)
    bad_version = GOLDEN_BYTES[:2] + b"\x07" + GOLDEN_BYTES[3:]
    with pytest.raises(UnsupportedVersion):
        decode_packet(bad_version)
    with pytest.raises(LengthMismatch):
        decode_packet(GOLDEN_BYTES[:-1])  # payload_len says 2, one byte present
    # frag_index >= frag_count
    p = encode_packet(DppPacket(dpp.MSG_DATA, 0, 1, 1, 2, 0, b""))
    broken = bytearray(p)
    broken[11:13] = (1).to_bytes(2, "big")  # frag_count = 1 while frag_index = 1
    with pytest.raises(MalformedHeader):
        decode_packet(bytes(broken))


def test_fragment_counts():
    assert fragment_layout(144_928) == (64, 1_225)
    assert fragment_layout(2_281) == (1, 2_281)
    assert fragment_layout(41_408)[0] == 19
    with pytest.raises(FragmentationError):
        fragment_layout(0)
    with pytest.raises(FragmentationError):
        fragment_layout(dpp.MAX_FRAGS * dpp.PAYLOAD_CAP + 1)


def test_fragment_roundtrip_identity():
    rnd = random.Random(11)
    for _ in range(200):
        size = rnd.choice([1, 2, 2_281, 2_282, rnd.randint(1, 200_000)])
        data = rnd.randbytes(size)
        packets = fragment(5, data, 100, is_iframe=True)
        assert b"".join(p.payload for p in packets) == data
        assert all(p.frag_count == len(packets) for p in packets)
        assert len(packets[0].payload) == min(size, dpp.PAYLOAD_CAP)


def test_reassembly_in_order():
    reasm = Reassembler(33_334)
    data = bytes(range(256)) * 600
    packets = fragment(3, data, 50, is_iframe=True)
    events = []
    for i, p in enumerate(packets):
        events = deliver(reasm, p, 1_000 + i)
        if i < len(packets) - 1:
            assert events == []
    assert len(events) == 1
    ev = events[0]
    assert isinstance(ev, FrameComplete)
    assert ev.data == data
    assert ev.first_arrival == 1_000
    assert ev.is_iframe


def test_reassembly_shuffled_and_duplicated():
    rnd = random.Random(5)
    for trial in range(50):
        size = rnd.randint(1, 60_000)
        data = rnd.randbytes(size)
        packets = fragment(trial, data, 0, is_iframe=False)
        stream = packets + rnd.choices(packets, k=3)
        rnd.shuffle(stream)
        reasm = Reassembler(33_334)
        completes = []
        for i, p in enumerate(stream):
            for ev in deliver(reasm, p, i):
                if isinstance(ev, FrameComplete):
                    completes.append(ev)
        assert len(completes) == 1
        assert completes[0].data == data


def test_duplicate_fragment_is_idempotent():
    packets = fragment(1, b"z" * 5_000, 0, is_iframe=False)
    reasm = Reassembler(33_334)
    assert deliver(reasm, packets[0], 0) == []
    assert deliver(reasm, packets[0], 1) == []
    assert reasm.duplicate_count == 1


def test_drop_on_newer_frame_past_deadline():
    reasm = Reassembler(33_334)
    packets = fragment(10, b"q" * 10_000, 0, is_iframe=False)
    for p in packets[:-1]:  # last fragment lost
        assert deliver(reasm, p, 1_000) == []
    # next frame arrives after the deadline
    nxt = fragment(11, b"r" * 100, 40_000, is_iframe=False)
    events = deliver(reasm, nxt[0], 40_000)
    drops = [e for e in events if isinstance(e, FrameDropped)]
    completes = [e for e in events if isinstance(e, FrameComplete)]
    assert [d.frame_id for d in drops] == [10]
    assert [c.frame_id for c in completes] == [11]
    # late fragment for the dropped frame is ignored, exactly-once holds
    assert deliver(reasm, packets[-1], 41_000) == []


def test_drop_on_deadline_expiry():
    reasm = Reassembler(33_334)
    packets = fragment(4, b"q" * 10_000, 0, is_iframe=True)
    deliver(reasm, packets[0], 2_000)
    assert reasm.expire(2_000 + 33_334) == []  # boundary not yet past
    drops = reasm.expire(2_000 + 33_335)
    assert [d.frame_id for d in drops] == [4]
    assert drops[0].is_iframe


def test_wholly_lost_frame_dropped_via_gap_anchor():
    reasm = Reassembler(33_334)
    a = fragment(0, b"a" * 100, 0, is_iframe=True)[0]
    c = fragment(2, b"c" * 100, 0, is_iframe=False)[0]
    assert [type(e) for e in deliver(reasm, a, 0)] == [FrameComplete]
    # frame 1 never appears; discovered when frame 2 arrives
    assert [type(e) for e in deliver(reasm, c, 20_000)] == [FrameComplete]
    assert reasm.expire(20_000 + 33_334) == []
    drops = reasm.expire(20_000 + 33_335)
    assert [d.frame_id for d in drops] == [1]


def test_exactly_once_under_loss_and_reorder():
    rnd = random.Random(9)
    reasm = Reassembler(33_334)
    outcomes: dict[int, list] = {}
    now = 0
    for fid in range(60):
        data = rnd.randbytes(rnd.randint(1, 30_000))
        packets = fragment(fid, data, now, is_iframe=(fid % 10 == 0))
        survivors = [p for p in packets if rnd.random() > 0.05]
        rnd.shuffle(survivors)
        for p in survivors:
            now += 293
            for ev in deliver(reasm, p, now):
                outcomes.setdefault(ev.frame_id, []).append(ev)
        now += 5_000
        for ev in reasm.expire(now):
            outcomes.setdefault(ev.frame_id, []).append(ev)
    for ev in reasm.expire(now + 100_000):
        outcomes.setdefault(ev.frame_id, []).append(ev)
    assert all(len(evs) == 1 for evs in outcomes.values())


def test_serial_arithmetic_wrap():
    assert seq_newer(1, 0xFFFFFFFF)
    assert not seq_newer(0xFFFFFFFF, 1)
    assert seq_newer(5, 4)
    reasm = Reassembler(33_334)
    hi = fragment(0xFFFFFFFE, b"x" * 10, 0, is_iframe=False)[0]
    wrapped = fragment(1, b"y" * 10, 50_000, is_iframe=False)[0]
    evs = deliver(reasm, hi, 0)
    assert [e.frame_id for e in evs] == [0xFFFFFFFE]
    evs = deliver(reasm, wrapped, 50_000)
    assert any(isinstance(e, FrameComplete) and e.frame_id == 1 for e in evs)
    # ids skipped across the wrap get deadline anchors at discovery
    drops = reasm.expire(50_000 + 33_335)
    assert {d.frame_id for d in drops} == {0xFFFFFFFF, 0}


def test_host_send_path_copies():
    direct = host_send_path(41_408, direct_net_io=True, ledger=CopyLedger())
    assert len(direct.entries) == 1
    assert direct.total_bytes() == 41_408
    layered = host_send_path(41_408, direct_net_io=False, ledger=CopyLedger())
    assert len(layered.entries) == 3
    assert layered.total_bytes() == 3 * 41_408
    assert direct.total_bytes() < layered.total_bytes()


def test_raw_content_never_copied_with_shared_buffer():
    ledger = host_capture_path(6_220_800, 3_110_400, False, True, CopyLedger())
    assert ledger.entries == []
    baseline = host_capture_path(6_220_800, 3_110_400, False, False, CopyLedger())
    assert baseline.stages() == ["capture", "encode-input"]
    assert baseline.total_bytes() == 6_220_800 + 3_110_400
