"""The runner's buffer datapath against the packet codec.

The host sends a frame with ``dpp.send_frame`` and the receiver parses each
datagram in place with ``dpp.parse_header`` and hands ``on_fragment`` a view
of its one reused receive buffer. The reference is the codec the runner
used before and ``cp`` still uses: ``fragment`` + ``encode_packet`` on the
host, ``decode_packet`` + ``Reassembler.on_fragment`` with the decoded
packet's fields on the receiver, with the drop sweep doing a full pass on
every call. Both must give the same bytes, the same events and the same
counters.

The simulator's entry, ``Reassembler.on_frame``, is checked here too: against
the full sweep, and its O(1) whole and partial frames against their
fragments fed to ``on_fragment`` in shuffled order.
"""

import math
import random
import socket
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from packet_feed import deliver, fragment

from uvrpipe import dpp, runner
from uvrpipe.dpp import (
    HEADER_LEN,
    PAYLOAD_CAP,
    DppPacket,
    LengthMismatch,
    MalformedHeader,
    Reassembler,
    UnsupportedVersion,
    decode_packet,
    encode_packet,
    parse_header,
)

I_FRAME_66 = 66 * PAYLOAD_CAP - 1_000  # the size of a default 150-kB I-frame burst
GOLDEN_BYTES = bytes.fromhex("555601010100000001000000010002000000000000002a4142")


class CaptureSocket:
    """Records each datagram a sender gathers, copied at send time."""

    def __init__(self):
        self.sent = []

    def sendmsg(self, buffers, ancdata, flags, address):
        assert ancdata == () and flags == 0
        self.sent.append((b"".join(bytes(b) for b in buffers), address))


# --- host -----------------------------------------------------------------


@settings(max_examples=60)
@given(
    size=st.one_of(
        st.sampled_from([1, PAYLOAD_CAP, PAYLOAD_CAP + 1, I_FRAME_66]),
        st.integers(1, 200_000),
    ),
    frame_id=st.integers(0, 2**40),
    gen_timestamp_us=st.integers(0, 2**64 - 1),
    is_iframe=st.booleans(),
    forced=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(3_000_000, 2**32 + 5, 1_700_000_000_000_000, True, True, 0)
@example(PAYLOAD_CAP + 1, 0xFFFFFFFF, 0, False, True, 1)
def test_send_frame_emits_the_codec_datagrams(
    size, frame_id, gen_timestamp_us, is_iframe, forced, seed
):
    data = random.Random(seed).randbytes(size)
    peer = ("127.0.0.1", 9)
    capture = CaptureSocket()
    dpp.send_frame(capture, peer, frame_id, data, gen_timestamp_us, is_iframe, forced)
    reference = fragment(frame_id, data, gen_timestamp_us, is_iframe, forced)
    assert capture.sent == [(encode_packet(p), peer) for p in reference]


def test_send_frame_takes_the_frame_payload():
    # the runner hands it a slice of the shared pattern buffer
    capture = CaptureSocket()
    payload = runner.frame_payload(5, I_FRAME_66)
    dpp.send_frame(capture, None, 5, payload, 7, True, False)
    assert len(capture.sent) == 66
    assert b"".join(decode_packet(d).payload for d, _ in capture.sent) == payload


def test_frame_payload_is_the_pattern():
    for frame_id in (0, 1, 2, 255, 256, 2**33 + 7):
        for size in (1, 255, 256, 257, 5_000):
            expected = bytes((frame_id * 131 + i) % 256 for i in range(size))
            assert runner.frame_payload(frame_id, size) == expected


# --- receiver -------------------------------------------------------------


class FullSweep(Reassembler):
    """The reassembler whose drop sweep always walks every pending frame."""

    def _sweep(self, now, newest_id):
        self._anchor_floor = -math.inf
        return super()._sweep(now, newest_id)


def _stream(seed: int, frames: int, loss: float, dups: int) -> list[tuple[str, int, bytes]]:
    """("datagram", arrival, bytes) and ("expire", now, b"") steps of a lossy
    stream with duplicates, frag_count liars, fragments displaced across
    frames, and pauses longer than the drop deadline."""
    rnd = random.Random(seed)
    packets = []
    for fid in range(frames):
        data = rnd.randbytes(rnd.randint(1, 12 * PAYLOAD_CAP))
        frame = fragment(fid, data, fid * 16_667, fid % 7 == 0, fid % 14 == 0)
        sent = [p for p in frame if rnd.random() >= loss]
        sent += rnd.choices(frame, k=dups)
        if rnd.random() < 0.2:
            liar = frame[0]
            sent.append(DppPacket(**{**liar.__dict__, "frag_count": liar.frag_count + 1}))
        rnd.shuffle(sent)
        packets += sent
    for i in range(len(packets)):
        if rnd.random() < 0.1:  # arrives late, behind fragments of newer frames
            packets.insert(min(len(packets), i + rnd.randint(1, 40)), packets.pop(i))
    steps = []
    now = 0
    for p in packets:
        now += rnd.randint(0, 3_000) if rnd.random() < 0.97 else rnd.randint(20_000, 80_000)
        steps.append(("datagram", now, encode_packet(p)))
        if rnd.random() < 0.05:
            steps.append(("expire", now, b""))
    steps.append(("expire", now + 10**6, b""))
    return steps


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32),
    frames=st.integers(1, 40),
    loss=st.sampled_from([0.0, 0.02, 0.2, 0.6]),
    dups=st.integers(0, 3),
)
def test_buffer_receive_matches_packet_receive(seed, frames, loss, dups):
    reference = FullSweep(33_334)
    reasm = Reassembler(33_334)
    buf = bytearray(65_535)  # reused for every datagram, as in the runner
    view = memoryview(buf)
    for kind, now, datagram in _stream(seed, frames, loss, dups):
        if kind == "expire":
            assert reasm.expire(now) == reference.expire(now)
            continue
        n = len(datagram)
        buf[:n] = datagram
        buf[n : n + 64] = random.Random(now).randbytes(64)  # stale bytes past the end
        msg_type, flags, frame_id, frag_index, frag_count, ts = parse_header(buf, n)
        events = reasm.on_fragment(
            now,
            frame_id,
            frag_index,
            frag_count,
            bool(flags & dpp.FLAG_IFRAME),
            bool(flags & dpp.FLAG_FORCED),
            ts,
            view[HEADER_LEN:n],
        )
        assert events == deliver(reference, decode_packet(datagram), now)
    assert reasm.malformed_count == reference.malformed_count
    assert reasm.duplicate_count == reference.duplicate_count
    assert not reasm._pending and not reference._pending


def _simulator_steps(seed: int, frames: int):
    """A random sequence of what the simulator hands its reassembler.

    ("frame", (args, indices)) steps hold ``on_frame`` arguments and the
    indices of the delivered fragments, shuffled; ("poll", None) and
    ("expire", now) steps follow them. As in the simulator, each frame id
    goes on the air once, in order, and a one-fragment frame arrives at
    ``first == last``. A frame id that is skipped is wholly lost,
    discovered through a newer frame.
    """
    rnd = random.Random(seed)
    now = 0
    for fid in range(frames):
        now += rnd.choice([0, 5_000, 16_667, 40_000, 90_000])
        step = rnd.random()
        if step < 0.25:
            continue
        count = rnd.randint(1, 20)
        flags = (fid % 5 == 0, fid % 10 == 0, now)
        if step < 0.6:
            last = now + (rnd.randint(0, 9_000) if count > 1 else 0)
            got = list(range(count))
        else:
            got = rnd.sample(range(count), rnd.randint(1, count))
            last = now + 300 * (len(got) - 1)
        rnd.shuffle(got)
        yield "frame", ((now, last, len(got), fid, count, *flags), got)
        if rnd.random() < 0.5:
            yield "poll", None
        if rnd.random() < 0.3:
            yield "expire", now + rnd.randint(0, 50_000)
    yield "expire", now + 10**6


def _fragment_loop(reasm: Reassembler, args, indices) -> list:
    """``on_frame``'s reference: ``on_fragment`` for each delivered fragment,
    in the shuffled order given, all at ``first``, where ``on_frame`` runs
    its one drop sweep. The frame's completion then reports ``last`` as its
    last arrival."""
    first, last, _delivered, fid, count, *flags = args
    events = []
    for index in indices:
        events += reasm.on_fragment(first, fid, index, count, *flags, None)
    return [
        replace(ev, last_arrival=last) if isinstance(ev, dpp.FrameComplete) else ev
        for ev in events
    ]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), frames=st.integers(1, 60))
def test_simulator_entries_match_full_sweep(seed, frames):
    # whole frames, bursts, deadline polls and expiry, as the simulator sends them
    reference, reasm = FullSweep(33_334), Reassembler(33_334)
    for kind, arg in _simulator_steps(seed, frames):
        if kind == "frame":
            assert reasm.on_frame(*arg[0]) == reference.on_frame(*arg[0])
        elif kind == "poll":
            assert reasm.pending_deadlines() == reference.pending_deadlines()
        else:
            assert reasm.expire(arg) == reference.expire(arg)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), frames=st.integers(1, 60))
def test_whole_frame_matches_its_fragment_loop(seed, frames):
    # on_frame's O(1) whole and partial frames against the same frame's fragments
    whole, loop = Reassembler(33_334), Reassembler(33_334)
    for kind, arg in _simulator_steps(seed, frames):
        if kind == "frame":
            assert whole.on_frame(*arg[0]) == _fragment_loop(loop, *arg)
        elif kind == "poll":
            assert whole.pending_deadlines() == loop.pending_deadlines()
        else:
            assert whole.expire(arg) == loop.expire(arg)
    counters = (whole.malformed_count, whole.duplicate_count)
    assert counters == (loop.malformed_count, loop.duplicate_count)
    assert not whole._pending and not loop._pending


def _with_frag_count(raw: bytes, index: int, count: int) -> bytes:
    broken = bytearray(raw)
    broken[9:13] = index.to_bytes(2, "big") + count.to_bytes(2, "big")
    return bytes(broken)


_FULL = encode_packet(DppPacket(dpp.MSG_DATA, 0, 1, 0, 1, 0, b"x" * PAYLOAD_CAP))
_OVERSIZE = _FULL[:13] + (PAYLOAD_CAP + 1).to_bytes(2, "big") + _FULL[15:] + b"x"
# the malformed vectors of tests/test_dpp.py, plus an unknown msg_type and a
# datagram whose payload_len agrees with its length but exceeds the MTU
MALFORMED = [
    (GOLDEN_BYTES[:10], MalformedHeader),
    (b"", MalformedHeader),
    (b"\x00" + GOLDEN_BYTES[1:], MalformedHeader),
    (GOLDEN_BYTES[:2] + b"\x07" + GOLDEN_BYTES[3:], UnsupportedVersion),
    (GOLDEN_BYTES[:-1], LengthMismatch),
    (GOLDEN_BYTES + b"C", LengthMismatch),
    (_with_frag_count(encode_packet(DppPacket(dpp.MSG_DATA, 0, 1, 1, 2, 0, b"")), 1, 1),
     MalformedHeader),
    (GOLDEN_BYTES[:3] + b"\x09" + GOLDEN_BYTES[4:], MalformedHeader),
    (_OVERSIZE, LengthMismatch),
]


@pytest.mark.parametrize("datagram, error", MALFORMED)
def test_parse_header_rejects_like_decode_packet(datagram, error):
    with pytest.raises(error):
        decode_packet(datagram)
    buf = bytearray(GOLDEN_BYTES * 3000)  # a larger buffer with valid-looking bytes after n
    buf[: len(datagram)] = datagram
    with pytest.raises(error):
        parse_header(buf, len(datagram))


def test_forged_fragment_count_allocates_little():
    datagram = _with_frag_count(
        encode_packet(DppPacket(dpp.MSG_DATA, 0, 9, 0, 1, 0, b"y" * PAYLOAD_CAP)), 65_534, 65_535
    )
    buf = bytearray(datagram)
    reasm = Reassembler(33_334)
    tracemalloc.start()
    try:
        _type, flags, frame_id, frag_index, frag_count, ts = parse_header(buf, len(buf))
        events = reasm.on_fragment(
            0, frame_id, frag_index, frag_count, False, False, ts, memoryview(buf)[HEADER_LEN:]
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (frag_index, frag_count, events) == (65_534, 65_535, [])
    assert peak < 1 << 20


# --- sockets --------------------------------------------------------------


@pytest.mark.skipif(runner.SO_RXQ_OVFL is None, reason="SO_RXQ_OVFL is Linux only")
def test_overflowed_receive_queue_reports_kernel_drops():
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4_096)
        rx.bind(("127.0.0.1", 0))
        rx.setblocking(False)
        anc_size = runner._count_kernel_drops(rx)
        assert anc_size > 0
        for _ in range(200):  # flooded before it is read
            tx.sendto(b"z" * 1_000, rx.getsockname())
        drops, buf = 0, bytearray(65_535)

        def drain():
            nonlocal drops
            while True:
                try:
                    _n, ancdata, _flags, _addr = rx.recvmsg_into([buf], anc_size)
                except BlockingIOError:
                    return
                drops = runner._kernel_drops(ancdata, drops)

        drain()
        # the counter rides on datagrams queued after the drops
        tx.sendto(b"z", rx.getsockname())
        drain()
    finally:
        rx.close()
        tx.close()
    assert drops > 0


def test_host_ends_on_time_when_the_peer_stays_silent():
    host_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    host_sock.bind(("127.0.0.1", 0))
    host_addr = host_sock.getsockname()
    host_sock.close()
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(0.1)
    cfg = runner.RunnerConfig(bind=host_addr, peer=peer.getsockname(), duration_s=0.3)
    fp = runner.config_fingerprint(cfg.codec, cfg.feedback_control)
    hello = runner.cp_mod.encode_cp(runner._hello_message(fp, 0))

    def silent_peer():
        # HELLO until the host answers, then only read: no control message
        for _ in range(30):
            peer.sendto(hello, host_addr)
            try:
                peer.recvfrom(65_535)
                return
            except socket.timeout:
                continue

    thread = threading.Thread(target=silent_peer)
    thread.start()
    try:
        stats = runner.host_run(cfg)
    finally:
        thread.join()
        peer.close()
    assert stats.frames_sent == 18
