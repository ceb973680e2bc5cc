"""The runner's buffer datapath against the packet codec.

The host sends a frame with ``dpp.send_frame``, in trains of datagrams that
the kernel cuts at the MTU, and the receiver parses each datagram in place
with ``dpp.parse_header`` and hands ``on_fragments`` views of its one reused
receive buffer, a run of consecutive fragments of one frame at a time. The
reference is the packet codec of ``packet_feed``: ``fragment`` +
``encode_packet`` on the host, one datagram at a time, and ``decode_packet``
+ ``Reassembler.on_fragments`` with one decoded packet's fields per call on
the receiver, with the drop sweep doing a full pass on every call. Both must
give the same bytes, the same events and the same counters.

A simulated frame's burst as the reassembler takes it,
``StepwiseOnFrame.on_frame`` (``reassembler_run.py``), is checked here too:
against the full sweep, and its whole and partial frames against their
fragments fed to ``on_fragments`` one at a time in shuffled order. The
simulator's in-order receiver is checked against it in
``test_in_order_receiver.py``.
"""

import errno
import math
import os
import random
import socket
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from packet_feed import DppPacket, decode_packet, deliver, encode_packet, fragment
from reassembler_run import StepwiseOnFrame

from uvrpipe import cp, dpp, runner
from uvrpipe.dpp import (
    HEADER_LEN,
    PAYLOAD_CAP,
    LengthMismatch,
    MalformedHeader,
    Reassembler,
    UnsupportedVersion,
    parse_header,
)

I_FRAME_66 = 66 * PAYLOAD_CAP - 1_000  # the size of a default 150-kB I-frame burst
GOLDEN_BYTES = bytes.fromhex("555601010100000001000000010002000000000000002a4142")


class CaptureSocket:
    """Records each datagram a sender gathers, copied at send time. A call
    with ``UDP_SEGMENT`` is cut at its segment size, as the kernel cuts it."""

    def __init__(self):
        self.sent = []
        self.calls = 0

    def sendmsg(self, buffers, ancdata, flags, address):
        assert flags == 0 and len(ancdata) <= 1
        data = b"".join(bytes(b) for b in buffers)
        segment = len(data)
        for level, kind, value in ancdata:
            assert (level, kind) == (dpp.SOL_UDP, dpp.UDP_SEGMENT)
            segment = int.from_bytes(value, sys.byteorder)  # a native u16
            assert len(value) == 2 and len(data) <= 65_507
        self.calls += 1
        self.sent += [(data[at : at + segment], address) for at in range(0, len(data), segment)]


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
    sent = dpp.send_frame(capture, peer, frame_id, data, gen_timestamp_us, is_iframe, forced)
    reference = fragment(frame_id, data, gen_timestamp_us, is_iframe, forced)
    assert capture.sent == [(encode_packet(p), peer) for p in reference]
    assert sent == (capture.calls, dpp.TRAIN)
    assert capture.calls == -(-len(reference) // dpp.TRAIN)


class RefusingSocket(CaptureSocket):
    """A capture socket that takes ``accepted`` sends with ``UDP_SEGMENT``
    and refuses each later one, with the next of ``errors``."""

    def __init__(self, accepted, errors):
        super().__init__()
        self.accepted, self.errors, self.refused = accepted, errors, 0

    def sendmsg(self, buffers, ancdata, flags, address):
        if ancdata and self.accepted == 0:
            code = self.errors[min(self.refused, len(self.errors) - 1)]
            self.refused += 1
            raise OSError(code, os.strerror(code))
        self.accepted -= bool(ancdata)
        super().sendmsg(buffers, ancdata, flags, address)


@pytest.mark.skipif(dpp.TRAIN == 1, reason="no UDP_SEGMENT: every send is one datagram")
@pytest.mark.parametrize("accepted", [0, 1])
@pytest.mark.parametrize(
    "errors", [[errno.EIO, errno.EMSGSIZE], [errno.EMSGSIZE, errno.EIO]], ids=["EIO", "EMSGSIZE"]
)
def test_a_refused_train_goes_one_datagram_per_call_from_then_on(accepted, errors):
    # IPsec refuses a train with EIO, a path MTU below the segment size with
    # EMSGSIZE. The train is resent one datagram per call, and so is every
    # later frame on the socket: the second error is never raised.
    frames = [runner.frame_payload(i, size) for i, size in enumerate([I_FRAME_66, 40_000, 900])]
    refusing, train = RefusingSocket(accepted, errors), dpp.TRAIN
    calls = []
    for i, payload in enumerate(frames):
        before = refusing.calls
        sends, train = dpp.send_frame(refusing, None, i, payload, 7, i == 0, False, train)
        calls.append(refusing.calls - before)
        assert sends == calls[-1]
    assert (refusing.refused, train) == (1, 1)
    reference = [
        (encode_packet(p), None)
        for i, payload in enumerate(frames)
        for p in fragment(i, payload, 7, i == 0, False)
    ]
    assert refusing.sent == reference
    # the accepted trains, then one call per datagram
    assert sum(calls) == accepted + len(reference) - accepted * dpp.TRAIN


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
            # the receiver's check, in place
            assert runner.is_frame_payload(frame_id, expected)
            assert not runner.is_frame_payload(frame_id + 1, expected)
            assert not runner.is_frame_payload(frame_id, expected[:-1] + b"?")


# --- receiver -------------------------------------------------------------


class FullSweep(Reassembler):
    """The reassembler whose drop sweep always walks every pending frame."""

    def _sweep(self, now, newest_id):
        self._anchor_floor = -math.inf
        return super()._sweep(now, newest_id)


class StepwiseFullSweep(StepwiseOnFrame, FullSweep):
    """Simulated bursts taken with the full sweep."""


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
        events = reasm.on_fragments(
            now,
            frame_id,
            frag_index,
            frag_count,
            bool(flags & dpp.FLAG_IFRAME),
            bool(flags & dpp.FLAG_FORCED),
            ts,
            [view[HEADER_LEN:n]],
        )
        assert events == deliver(reference, decode_packet(datagram), now)
    assert reasm.malformed_count == reference.malformed_count
    assert reasm.duplicate_count == reference.duplicate_count
    assert not reasm._pending and not reference._pending


def _train_steps(seed: int, frames: int):
    """("read", now, packets) and ("expire", now, None) steps of a stream
    sent in order, as trains of up to 28 datagrams arrive: a read's packets
    share its arrival time.

    Each frame's fragments go out in order, apart from lost fragments (gaps),
    duplicates, a neighbour pair swapped, and up to three consecutive
    fragments that claim one fragment too many, placed amid the others. A
    frame's tail may arrive behind the start of the next frame, and some
    pauses outlast the drop deadline.
    """
    rnd = random.Random(seed)
    chunks = []
    for fid in range(frames):
        count = rnd.randint(1, 40)
        data = rnd.randbytes(rnd.randint(8 * count - 7, 8 * count))
        sent = fragment(fid, data, fid * 16_667, fid % 7 == 0, fid % 14 == 0, payload_cap=8)
        if rnd.random() < 0.2:
            sent = [p for p in sent if rnd.random() > 0.15]
        for _ in range(rnd.choice([0, 0, 0, 1, 3]) if sent else 0):
            sent.insert(rnd.randint(0, len(sent)), rnd.choice(sent))
        if len(sent) > 2 and rnd.random() < 0.15:
            at = rnd.randrange(len(sent) - 1)
            sent[at], sent[at + 1] = sent[at + 1], sent[at]
        if sent and rnd.random() < 0.2:  # one to three consecutive liars
            at = rnd.randrange(len(sent))
            liars = [
                DppPacket(**{**p.__dict__, "frag_count": p.frag_count + 1})
                for p in sent[at : at + rnd.randint(1, 3)]
            ]
            at = rnd.randint(0, len(sent))
            sent[at:at] = liars
        cut = rnd.randint(1, len(sent)) if sent and rnd.random() < 0.3 else len(sent)
        chunks += [sent[:cut], sent[cut:]]
    for i in range(1, len(chunks) - 2, 2):
        if rnd.random() < 0.4:  # the frame's tail behind the start of the next frame
            chunks[i], chunks[i + 1] = chunks[i + 1], chunks[i]
    packets = [p for chunk in chunks for p in chunk]
    now = at = 0
    while at < len(packets):
        now += rnd.randint(0, 3_000) if rnd.random() < 0.9 else rnd.randint(20_000, 80_000)
        size = rnd.randint(1, 28)
        yield "read", now, packets[at : at + size]
        at += size
        if rnd.random() < 0.1:
            yield "expire", now + rnd.randint(0, 50_000), None
    yield "expire", now + 10**6, None


def _runs(packets):
    """The packets of one read cut as ``mud_run`` cuts them: runs of
    consecutive fragments of one frame that agree on ``frag_count``."""
    runs = []
    for p in packets:
        last = runs[-1][-1] if runs else None
        key = (p.frame_id, p.frag_index - 1, p.frag_count)
        if last is not None and key == (last.frame_id, last.frag_index, last.frag_count):
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


def _state(reasm: Reassembler):
    """The pending frames, each with its bytes so far in fragment order,
    ``highest_seen``, the resolved frames and the reject counters."""
    pending = {
        fid: tuple(
            b"".join(pend.chunks[i] for i in sorted(pend.chunks))
            if slot == "chunks"
            else getattr(pend, slot)
            for slot in type(pend).__slots__
        )
        for fid, pend in reasm._pending.items()
    }
    counters = (reasm.malformed_count, reasm.duplicate_count)
    return pending, reasm.highest_seen, reasm._resolved, counters


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), frames=st.integers(1, 30))
def test_runs_match_one_fragment_at_a_time(seed, frames):
    # the run lane against per-fragment calls on the full sweep
    reference, reasm = FullSweep(33_334), Reassembler(33_334)
    for kind, now, packets in _train_steps(seed, frames):
        if kind == "expire":
            assert reasm.expire(now) == reference.expire(now)
        else:
            expected = [ev for p in packets for ev in deliver(reference, p, now)]
            events = []
            for run in _runs(packets):
                p = run[0]
                flags = (bool(p.flags & dpp.FLAG_IFRAME), bool(p.flags & dpp.FLAG_FORCED))
                events += reasm.on_fragments(
                    now, p.frame_id, p.frag_index, p.frag_count, *flags, p.gen_timestamp_us,
                    [memoryview(q.payload) for q in run],
                )
            assert events == expected
        assert _state(reasm) == _state(reference)
    assert not reasm._pending


def _simulator_steps(seed: int, frames: int):
    """A random sequence of simulated bursts for a reassembler.

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


def _fragment_loop(reasm: StepwiseOnFrame, args, indices) -> list:
    """``on_frame``'s reference: ``on_fragments`` for each delivered fragment,
    in the shuffled order given, all at ``first``, where ``on_frame`` runs
    its one drop sweep. The frame's completion then reports ``last`` as its
    last arrival."""
    first, last, _delivered, fid, count, *flags = args
    events = []
    for index in indices:
        events += reasm.on_fragments(first, fid, index, count, *flags, [b""])
    return [
        replace(ev, last_arrival=last) if isinstance(ev, dpp.FrameComplete) else ev
        for ev in events
    ]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), frames=st.integers(1, 60))
def test_simulator_entries_match_full_sweep(seed, frames):
    # whole frames, bursts, deadline polls and expiry, as the simulator sends them
    reference, reasm = StepwiseFullSweep(33_334), StepwiseOnFrame(33_334)
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
    # on_frame's whole and partial frames against the same frame's fragments
    whole, loop = StepwiseOnFrame(33_334), StepwiseOnFrame(33_334)
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
    """``parse_header`` rejects each datagram, read from a larger buffer, as
    listed, and so do its two readers: the reference ``decode_packet`` and
    the control plane's ``cp.decode_cp``."""
    buf = bytearray(GOLDEN_BYTES * 3000)  # a larger buffer with valid-looking bytes after n
    buf[: len(datagram)] = datagram
    with pytest.raises(error):
        parse_header(buf, len(datagram))
    for reader in (decode_packet, cp.decode_cp):
        with pytest.raises(error):
            reader(datagram)


def test_decode_cp_rejects_what_is_no_control_message():
    with pytest.raises(MalformedHeader):
        cp.decode_cp(GOLDEN_BYTES)  # a well-formed DATA datagram
    for size in (8, 10):
        datagram = encode_packet(DppPacket(dpp.MSG_CTRL, 0, 0, 0, 1, 5, b"\x01" * size))
        parse_header(datagram, len(datagram))
        with pytest.raises(LengthMismatch):
            cp.decode_cp(datagram)


def test_forged_fragment_count_allocates_little():
    datagram = _with_frag_count(
        encode_packet(DppPacket(dpp.MSG_DATA, 0, 9, 0, 1, 0, b"y" * PAYLOAD_CAP)), 65_534, 65_535
    )
    buf = bytearray(datagram)
    reasm = Reassembler(33_334)
    tracemalloc.start()
    try:
        _type, flags, frame_id, frag_index, frag_count, ts = parse_header(buf, len(buf))
        events = reasm.on_fragments(
            0, frame_id, frag_index, frag_count, False, False, ts, [memoryview(buf)[HEADER_LEN:]]
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (frag_index, frag_count, events) == (65_534, 65_535, [])
    assert peak < 1 << 20


# --- sockets --------------------------------------------------------------


def _flooded_drops(trains: bool) -> int:
    """The drop count that a small-buffer socket reports after a flood
    before it is read: 200 datagrams, or ``send_frame`` trains of
    ``dpp.TRAIN`` datagrams each to a ``UDP_GRO`` socket."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4_096)
        rx.bind(("127.0.0.1", 0))
        rx.setblocking(False)
        anc_size = runner._count_kernel_drops(rx)
        assert anc_size > 0
        if trains:
            anc_size += runner._receive_trains(rx)
            payload = runner.frame_payload(0, dpp.TRAIN * PAYLOAD_CAP)
            for i in range(10):
                assert dpp.send_frame(tx, rx.getsockname(), i, payload, 0, False, False)[0] == 1
        else:
            for _ in range(200):
                tx.sendto(b"z" * 1_000, rx.getsockname())
        drops, buf = 0, bytearray(65_535)

        def drain():
            nonlocal drops
            while True:
                try:
                    n, ancdata, _flags, _addr = rx.recvmsg_into([buf], anc_size)
                except BlockingIOError:
                    return
                drops, _segment = runner._ancillary(ancdata, drops, n)

        drain()
        # the counter rides on datagrams queued after the drops
        tx.sendto(b"z", rx.getsockname())
        drain()
    finally:
        rx.close()
        tx.close()
    return drops


@pytest.mark.skipif(runner.SO_RXQ_OVFL is None, reason="SO_RXQ_OVFL is Linux only")
def test_overflowed_receive_queue_reports_kernel_drops():
    assert _flooded_drops(trains=False) > 0
    # a UDP_GRO socket keeps a train in one piece and drops it whole, as one
    assert 0 < _flooded_drops(trains=True) <= 10


@pytest.mark.skipif(runner.UDP_GRO is None, reason="UDP_SEGMENT and UDP_GRO are Linux only")
def test_a_train_crosses_loopback_as_the_codec_datagrams():
    # one train of dpp.TRAIN datagrams, its last one short
    payload = runner.frame_payload(3, dpp.TRAIN * PAYLOAD_CAP - 1_000)
    reference = [encode_packet(p) for p in fragment(3, payload, 777, True, False)]
    assert len(reference) == dpp.TRAIN
    plain, gro, tx = (socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(3))
    try:
        for rx in (plain, gro):
            rx.bind(("127.0.0.1", 0))
            rx.settimeout(2.0)
        anc_size = runner._count_kernel_drops(gro) + runner._receive_trains(gro)
        for rx in (plain, gro):
            sent = dpp.send_frame(tx, rx.getsockname(), 3, payload, 777, True, False)
            assert sent == (1, dpp.TRAIN)
        assert [plain.recv(65_535) for _ in reference] == reference
        buf = bytearray(65_535)
        n, ancdata, _flags, _addr = gro.recvmsg_into([buf], anc_size)
        assert runner._ancillary(ancdata, 0, n) == (0, dpp.MTU)
        assert buf[:n] == b"".join(reference)
        for rx in (plain, gro):
            rx.settimeout(0.05)
            with pytest.raises(socket.timeout):
                rx.recv(65_535)
    finally:
        for sock in (plain, gro, tx):
            sock.close()


def _host_with_silent_peer(**config) -> runner.RunnerStats:
    """``host_run`` against a peer that says HELLO and then only reads."""
    host_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    host_sock.bind(("127.0.0.1", 0))
    host_addr = host_sock.getsockname()
    host_sock.close()
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(0.1)
    cfg = runner.RunnerConfig(bind=host_addr, peer=peer.getsockname(), **config)
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
        return runner.host_run(cfg)
    finally:
        thread.join()
        peer.close()


def test_host_ends_on_time_when_the_peer_stays_silent():
    assert _host_with_silent_peer(duration_s=0.3).frames_sent == 18


def test_host_sends_every_frame_of_its_duration():
    # 0.7 * 90 is 62.99999999999999 in floats: 63 frames, not 62
    codec = runner.CodecConfig(fps=90)
    assert _host_with_silent_peer(duration_s=0.7, codec=codec).frames_sent == 63
