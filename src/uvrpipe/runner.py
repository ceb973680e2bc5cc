"""Real-datagram validation: host and receiver roles over UDP.

The DPP bytes are carried verbatim as UDP payloads (raw link-layer sockets
need privileges and bring nothing extra to the format). Both roles exchange a
HELLO carrying a fingerprint of the codec parameters before streaming; frames
are synthetic (model sizes, deterministic byte pattern) so the receiver can
verify payload integrity end to end.

The host streams the simulator's workload: the SYNC send grid
(``scenario.send_grid``) at the codec's rate sets the frames, their ticks and
their complexities, which ``codec.encoded_sizes`` sizes for each frame's type.
The receiver's one-way latency is ``report._dist_ms`` of its completed frames
(ms to 4 decimals, None when none completed), as the simulator reports its
stages. It is only meaningful when both roles share a clock, i.e. run on the
same machine. The latency and the datagrams' generation stamps are
the only use of the wall clock: deadlines and the suppression window run on
the monotonic clock, so a wall-clock step neither drops nor freezes frames.

Neither role polls on a timeout per datagram. Each drains its socket without
blocking and then waits on it once: the host until its next frame tick, the
receiver for at most ``POLL_MS``.

On Linux a frame crosses the socket in trains: the host sends up to
``dpp.TRAIN`` datagrams per ``sendmsg`` (``dpp.send_frame``), and the
receiver turns on ``UDP_GRO``, so that a train from loopback arrives as one
read whose ancillary data gives the segment size. Each segment is then
checked and counted as its own datagram, and consecutive fragments of one
frame go to the reassembler as one run. Where the kernel refuses either
option, the same code moves one datagram per call.
"""

from __future__ import annotations

import hashlib
import random
import select
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cp as cp_mod
from . import dpp
from .codec import CodecConfig, FrameType, GopWalker, encoded_sizes, nominal_sizes
from .core import US_PER_S
from .report import _dist_ms
from .scenario import EncodeMode, send_grid

DEFAULT_PORT = 28_864
HANDSHAKE_TIMEOUT_S = 3.0
HELLO_RETRY_S = 0.2
# An I-frame arrives as a burst of ~64 datagrams, which overflows the usual
# 212,992-byte default. The kernel caps the request at net.core.rmem_max.
RCVBUF_BYTES = 4 << 20
# socket(7): with this option set, a datagram carries the number of datagrams
# the socket has dropped so far, whenever that number is above 0. Linux only;
# the socket module has no constant for it.
SO_RXQ_OVFL = 40 if sys.platform.startswith("linux") else None
# udp(7): with this option set, a train of datagrams sent with UDP_SEGMENT
# (``dpp.send_frame``) may arrive as one read, whose ancillary data carries
# the segment size. Linux only, like UDP_SEGMENT.
UDP_GRO = 104 if sys.platform.startswith("linux") else None
# the receiver's longest wait for a datagram before it checks its deadlines
POLL_MS = 50


class RunnerError(RuntimeError):
    pass


class HandshakeTimeout(RunnerError):
    pass


class ConfigMismatch(RunnerError):
    pass


def _now_us() -> int:
    return time.time_ns() // 1000


def _mono_us() -> int:
    return time.monotonic_ns() // 1000


def config_fingerprint(codec: CodecConfig, feedback: bool) -> int:
    canon = "|".join(
        str(v)
        for v in (
            codec.bitrate_bps,
            codec.fps,
            codec.gop_size,
            codec.p_to_i_ratio,
            codec.rgb_inflation,
            codec.transcode_avoidance,
            feedback,
        )
    )
    return int.from_bytes(hashlib.blake2b(canon.encode(), digest_size=8).digest(), "big")


def _hello_message(fp: int, now_us: int) -> cp_mod.CpMessage:
    return cp_mod.CpMessage(
        subtype=cp_mod.SUB_HELLO,
        dropped_frame_id=(fp >> 32) & 0xFFFFFFFF,
        last_received_frame_id=fp & 0xFFFFFFFF,
        send_time=now_us,
    )


def _hello_fp(msg: cp_mod.CpMessage) -> int:
    return (msg.dropped_frame_id << 32) | msg.last_received_frame_id


_TILE = bytes(range(256))
_pattern = _TILE  # the tile repeated; grown on demand, never shrunk


def _pattern_at(frame_id: int, size: int) -> tuple[bytes, int]:
    """The pattern buffer, grown to hold frame ``frame_id``'s ``size`` bytes,
    and where they start in it."""
    global _pattern
    start = frame_id * 131 % 256
    pattern = _pattern
    if start + size > len(pattern):
        pattern = _pattern = _TILE * ((start + size) // 256 + 1)
    return pattern, start


def frame_payload(frame_id: int, size: int) -> memoryview:
    """byte i of frame f = (f*131 + i) mod 256: a view of one periodic buffer,
    so the host sends it without a copy."""
    pattern, start = _pattern_at(frame_id, size)
    return memoryview(pattern)[start : start + size]


def is_frame_payload(frame_id: int, data) -> bool:
    """Whether ``data`` is ``frame_payload(frame_id, len(data))``, compared
    in place (``bytes.startswith``; a ``memoryview`` compares item by item)."""
    pattern, start = _pattern_at(frame_id, len(data))
    return pattern.startswith(data, start)


@dataclass
class RunnerConfig:
    bind: tuple[str, int] = ("127.0.0.1", DEFAULT_PORT)
    peer: tuple[str, int] = ("127.0.0.1", DEFAULT_PORT + 1)
    codec: CodecConfig = field(default_factory=CodecConfig)
    duration_s: float = 10.0
    seed: int = 1
    feedback_control: bool = True
    complexity_sigma: float = 0.15
    drop_deadline_us: int = dpp.DROP_DEADLINE_US
    suppression_window_us: int = cp_mod.DEFAULT_SUPPRESSION_WINDOW_US
    induced_loss: float = 0.0  # receiver-side drop shim for loss experiments


@dataclass
class RunnerStats:
    role: str
    frames_sent: int = 0
    frames_completed: int = 0
    frames_dropped: int = 0
    pattern_mismatches: int = 0
    requests_sent: int = 0
    requests_received: int = 0
    requests_suppressed: int = 0
    forced_iframes: int = 0
    malformed_datagrams: int = 0  # datagrams that fail to parse as DPP
    frag_count_mismatches: int = 0  # fragments whose frag_count disagrees with their frame's
    duplicate_fragments: int = 0
    induced_drops: int = 0
    # of the completed frames (``report._dist_ms``); None when none completed
    latency_p50_ms: Optional[float] = None
    latency_p99_ms: Optional[float] = None
    latency_mean_ms: Optional[float] = None
    rcvbuf_bytes: int = 0  # SO_RCVBUF as granted by the kernel
    # packets the receive queue overflowed (SO_RXQ_OVFL): a datagram, or a
    # whole train that UDP_GRO kept in one piece, counts as one
    kernel_drops: int = 0
    sends: int = 0  # host: sendmsg calls that carried frame datagrams
    reads: int = 0  # receiver: receive calls that returned data
    datagrams: int = 0  # receiver: datagrams those reads carried

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "socket": {
                "rcvbuf_bytes": self.rcvbuf_bytes,
                "kernel_drops": self.kernel_drops,
                "sends": self.sends,
                "reads": self.reads,
                "datagrams": self.datagrams,
            },
            "frames": {
                "sent": self.frames_sent,
                "completed": self.frames_completed,
                "dropped": self.frames_dropped,
            },
            "integrity": {
                "pattern_mismatches": self.pattern_mismatches,
                "malformed_datagrams": self.malformed_datagrams,
                "frag_count_mismatches": self.frag_count_mismatches,
                "duplicate_fragments": self.duplicate_fragments,
                "induced_drops": self.induced_drops,
            },
            "feedback": {
                "requests_sent": self.requests_sent,
                "requests_received": self.requests_received,
                "requests_suppressed": self.requests_suppressed,
                "forced_iframes": self.forced_iframes,
            },
            "one_way_latency": {
                "mean_ms": self.latency_mean_ms,
                "p50_ms": self.latency_p50_ms,
                "p99_ms": self.latency_p99_ms,
            },
        }


def _open_socket(bind: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
    try:
        sock.bind(bind)
    except OSError as exc:
        sock.close()
        raise RunnerError(f"cannot bind {bind[0]}:{bind[1]}: {exc}") from exc
    return sock


def _count_kernel_drops(sock: socket.socket) -> int:
    """Ask for the drop counter on every datagram; returns the ancillary
    buffer size that ``recvmsg_into`` needs to receive it (0: unsupported)."""
    if SO_RXQ_OVFL is None:
        return 0
    sock.setsockopt(socket.SOL_SOCKET, SO_RXQ_OVFL, 1)
    return socket.CMSG_SPACE(4)


def _receive_trains(sock: socket.socket) -> int:
    """Turn on ``UDP_GRO`` where the kernel allows it; returns the ancillary
    buffer size that ``recvmsg_into`` needs for the segment size (0: off)."""
    if UDP_GRO is None:
        return 0
    try:
        sock.setsockopt(dpp.SOL_UDP, UDP_GRO, 1)
    except OSError:
        return 0
    return socket.CMSG_SPACE(4)


def _ancillary(ancdata: list, drops: int, n: int) -> tuple[int, int]:
    """The drop count and the segment size that ``ancdata`` of one ``n``-byte
    read carries; ``drops`` and ``n`` (one datagram) for what it lacks."""
    segment = n
    for level, kind, data in ancdata:
        if level == socket.SOL_SOCKET and kind == SO_RXQ_OVFL:
            drops = int.from_bytes(data[:4], sys.byteorder)
        elif level == dpp.SOL_UDP and kind == UDP_GRO:
            segment = int.from_bytes(data[:4], sys.byteorder)
    return drops, segment


def host_run(cfg: RunnerConfig, stop: Optional[threading.Event] = None) -> RunnerStats:
    """Stream paced synthetic frames; honor I-frame requests from the peer."""
    # the simulator's SYNC send grid at the codec's rate paces the frames; per
    # type (P, then I), its complexities size them. Built before the socket
    # opens: a process's first draw loads numpy's random module, which must
    # delay neither the HELLO reply nor the stream's clock.
    codec, fps, duration_us = cfg.codec, cfg.codec.fps, round(cfg.duration_s * US_PER_S)
    grid, _ = send_grid(cfg.seed, cfg.complexity_sigma, fps, fps, duration_us, EncodeMode.SYNC)
    nominal = nominal_sizes(codec)
    sizes = [encoded_sizes(i, codec, grid.complexity, nominal).tolist() for i in (False, True)]
    ticks = grid.tick.tolist()
    stats = RunnerStats(role="HOST")
    fp = config_fingerprint(cfg.codec, cfg.feedback_control)
    sock = _open_socket(cfg.bind)
    stats.rcvbuf_bytes = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    host_fb = cp_mod.HostFeedbackState()
    peer = None

    def receive(until: float) -> None:
        """Handle datagrams until ``until`` (monotonic s), or until the HELLO
        that makes the peer known; checks the socket at least once."""
        nonlocal peer
        while True:
            readable, _, _ = select.select([sock], [], [], max(0.0, until - time.monotonic()))
            while readable:
                try:
                    data, addr = sock.recvfrom(65_535, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    break
                try:
                    msg = cp_mod.decode_cp(data)
                except dpp.WireError:
                    stats.malformed_datagrams += 1
                    continue
                if peer is None and msg.subtype == cp_mod.SUB_HELLO:
                    if _hello_fp(msg) != fp:
                        raise ConfigMismatch("peer codec configuration does not match")
                    peer = addr
                    sock.sendto(cp_mod.encode_cp(_hello_message(fp, _now_us())), peer)
                    return
                if peer is not None and msg.subtype == cp_mod.SUB_IFRAME_REQUEST:
                    stats.requests_received += 1
                    cp_mod.host_on_request(host_fb, msg, _mono_us())
            if time.monotonic() >= until:
                return

    try:
        receive(time.monotonic() + HANDSHAKE_TIMEOUT_S)
        if peer is None:
            raise HandshakeTimeout("no HELLO from receiver within 3 s")
        walker = GopWalker(codec)
        train = dpp.TRAIN
        t0 = time.monotonic()
        for i, tick in enumerate(ticks):
            if stop is not None and stop.is_set():
                break
            # a request is acted on at the next plan: wait for the tick here
            receive(t0 + tick / 1e6)
            force = host_fb.pending_force if cfg.feedback_control else False
            ftype, forced = walker.plan(force)
            iframe = ftype is FrameType.I
            if iframe and cfg.feedback_control:
                cp_mod.host_on_iframe_emitted(host_fb, _mono_us(), cfg.suppression_window_us)
            payload = frame_payload(i, sizes[iframe][i])
            sends, train = dpp.send_frame(sock, peer, i, payload, _now_us(), iframe, forced, train)
            stats.sends += sends
            stats.frames_sent += 1
        stats.requests_suppressed = host_fb.suppressed_count
        stats.forced_iframes = host_fb.forced_count
        return stats
    finally:
        sock.close()


def mud_run(cfg: RunnerConfig, stop: Optional[threading.Event] = None) -> RunnerStats:
    """Receive, reassemble, verify, and feed dropped-frame requests back."""
    stats = RunnerStats(role="MUD")
    fp = config_fingerprint(cfg.codec, cfg.feedback_control)
    sock = _open_socket(cfg.bind)
    stats.rcvbuf_bytes = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    sock.settimeout(HELLO_RETRY_S)
    shim, loss = random.Random(cfg.seed), cfg.induced_loss
    try:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        confirmed = False
        while not confirmed:
            if time.monotonic() >= deadline:
                raise HandshakeTimeout("no HELLO reply from host within 3 s")
            sock.sendto(cp_mod.encode_cp(_hello_message(fp, _now_us())), cfg.peer)
            try:
                data, _addr = sock.recvfrom(65_535)
            except socket.timeout:
                continue
            try:
                msg = cp_mod.decode_cp(data)
            except dpp.WireError:
                stats.malformed_datagrams += 1
                continue
            if msg.subtype == cp_mod.SUB_HELLO:
                if _hello_fp(msg) != fp:
                    raise ConfigMismatch("host codec configuration does not match")
                confirmed = True

        reasm = dpp.Reassembler(cfg.drop_deadline_us)
        mud_fb = cp_mod.MudFeedbackState()
        latencies_us: list[int] = []
        idle_limit_s = max(1.0, cfg.duration_s * 0.2)
        end_by = time.monotonic() + cfg.duration_s + HANDSHAKE_TIMEOUT_S
        last_rx = time.monotonic()
        # drain without blocking, then wait once
        sock.setblocking(False)
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        anc_size = _count_kernel_drops(sock) + _receive_trains(sock)
        buf = bytearray(65_535)
        bufs, view = [buf], memoryview(buf)

        def handle_events(events) -> None:
            if not events:
                return
            # stamped after the reassembler's work, which the latency counts
            wall_us = _now_us()
            for ev in events:
                msg = None
                if isinstance(ev, dpp.FrameComplete):
                    stats.frames_completed += 1
                    latencies_us.append(wall_us - ev.gen_timestamp_us)
                    if not is_frame_payload(ev.frame_id, ev.data):
                        stats.pattern_mismatches += 1
                    if cfg.feedback_control:
                        msg = cp_mod.mud_on_complete(mud_fb, ev.frame_id, ev.is_iframe, wall_us)
                else:
                    stats.frames_dropped += 1
                    if cfg.feedback_control:
                        msg = cp_mod.mud_on_drop(mud_fb, ev.frame_id, wall_us)
                if msg is not None:
                    sock.sendto(cp_mod.encode_cp(msg), cfg.peer)

        def ingest(now: int, head: tuple, run: list) -> None:
            handle_events(reasm.on_fragments(now, *head, run))

        while True:
            # drain first: a wake-up goes straight to its datagrams
            received = False
            while True:
                try:
                    n, ancdata, _flags, _addr = sock.recvmsg_into(bufs, anc_size)
                except BlockingIOError:
                    break
                received = True
                stats.reads += 1
                mono_us = _mono_us()
                segment = n
                if ancdata:
                    stats.kernel_drops, segment = _ancillary(ancdata, stats.kernel_drops, n)
                # payload views of consecutive fragments of one frame, the first
                # one's ``on_fragments`` fields, and the next fragment's key
                run: list = []
                head = expected = None
                # a read without a segment size is one datagram, an empty one too
                offsets = range(0, n, segment) if segment < n else (0,)
                stats.datagrams += len(offsets)
                for at in offsets:
                    size = min(segment, n - at)
                    if loss > 0.0 and shim.random() < loss:
                        stats.induced_drops += 1
                        continue
                    try:
                        msg_type, flags, frame_id, frag_index, frag_count, ts = dpp.parse_header(
                            view[at:], size
                        )
                    except dpp.WireError:
                        stats.malformed_datagrams += 1
                        continue
                    if msg_type == dpp.MSG_CTRL:
                        continue  # HELLO retransmits
                    payload = view[at + dpp.HEADER_LEN : at + size]
                    if run and (frame_id, frag_index, frag_count) == expected:
                        run.append(payload)
                    else:
                        if run:
                            ingest(mono_us, head, run)
                        run = [payload]
                        is_iframe = bool(flags & dpp.FLAG_IFRAME)
                        forced = bool(flags & dpp.FLAG_FORCED)
                        head = (frame_id, frag_index, frag_count, is_iframe, forced, ts)
                    expected = (frame_id, frag_index + 1, frag_count)
                if run:
                    ingest(mono_us, head, run)
            now_s = time.monotonic()
            if received:
                last_rx = now_s
            handle_events(reasm.expire(_mono_us()))
            if now_s >= end_by or (stop is not None and stop.is_set()):
                break
            if now_s - last_rx > idle_limit_s:
                break
            poller.poll(POLL_MS)

        handle_events(reasm.expire(_mono_us() + cfg.drop_deadline_us + 1))
        stats.requests_sent = mud_fb.requests_sent
        stats.frag_count_mismatches = reasm.malformed_count
        stats.duplicate_fragments = reasm.duplicate_count
        latency = _dist_ms(np.array(latencies_us, dtype=np.int64))
        stats.latency_mean_ms, stats.latency_p50_ms, stats.latency_p99_ms = latency.values()
        return stats
    finally:
        sock.close()
