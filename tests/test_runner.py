import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from packet_feed import decode_packet, encode_packet, fragment
from test_wire_path import CaptureSocket, _host_with_silent_peer

from uvrpipe import dpp, runner
from uvrpipe.codec import CodecConfig, FrameType, encoded_size, nominal_sizes
from uvrpipe.core import Rng
from uvrpipe.runner import (
    ConfigMismatch,
    HandshakeTimeout,
    RunnerConfig,
    config_fingerprint,
    frame_payload,
    host_run,
    mud_run,
)
from uvrpipe.scenario import EncodeMode, send_grid


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _pair(duration_s=2.0, **overrides):
    host_port, mud_port = _free_port(), _free_port()
    host_cfg = RunnerConfig(
        bind=("127.0.0.1", host_port),
        peer=("127.0.0.1", mud_port),
        duration_s=duration_s,
    )
    mud_cfg = RunnerConfig(
        bind=("127.0.0.1", mud_port),
        peer=("127.0.0.1", host_port),
        duration_s=duration_s,
    )
    for key, value in overrides.items():
        setattr(host_cfg, key, value)
        if key != "induced_loss":
            setattr(mud_cfg, key, value)
        else:
            mud_cfg.induced_loss = value
    return host_cfg, mud_cfg


def _run_pair(host_cfg, mud_cfg):
    results = {}

    def mud():
        results["mud"] = mud_run(mud_cfg)

    thread = threading.Thread(target=mud)
    thread.start()
    results["host"] = host_run(host_cfg)
    thread.join(timeout=30)
    assert not thread.is_alive()
    return results["host"], results["mud"]


def test_payload_pattern():
    assert frame_payload(0, 4) == bytes([0, 1, 2, 3])
    assert frame_payload(2, 3) == bytes([(2 * 131 + i) % 256 for i in range(3)])
    assert len(frame_payload(7, 100_000)) == 100_000


def test_loopback_lossfree_short_run():
    host_cfg, mud_cfg = _pair(duration_s=2.0)
    host_stats, mud_stats = _run_pair(host_cfg, mud_cfg)
    expected = int(2.0 * 60)
    assert abs(host_stats.frames_sent - expected) <= 1
    assert mud_stats.frames_completed == host_stats.frames_sent
    assert mud_stats.frames_dropped == 0
    assert mud_stats.pattern_mismatches == 0
    assert mud_stats.frames_completed + mud_stats.frames_dropped <= host_stats.frames_sent
    assert mud_stats.latency_p50_ms > 0  # reported, not asserted against a bound
    # the granted receive buffer is reported; its size depends on rmem_max
    assert mud_stats.to_dict()["socket"]["rcvbuf_bytes"] == mud_stats.rcvbuf_bytes > 0
    assert mud_stats.to_dict()["socket"]["kernel_drops"] == mud_stats.kernel_drops == 0
    integrity = mud_stats.to_dict()["integrity"]
    assert integrity["frag_count_mismatches"] == 0
    assert integrity["duplicate_fragments"] == 0


def test_wall_clock_step_drops_no_frame(monkeypatch):
    # frame 0 is an I-frame of ~64 fragments; the wall clock jumps 1 s ahead
    # just after its second fragment arrives, which must not expire it
    parse_header, now_us = dpp.parse_header, runner._now_us
    frame0_fragments = []

    def parse(buf, n):
        header = parse_header(buf, n)
        msg_type, _flags, frame_id, frag_index = header[:4]
        if msg_type == dpp.MSG_DATA and frame_id == 0:
            frame0_fragments.append(frag_index)
        return header

    def stepped_now_us():
        return now_us() + (1_000_000 if len(frame0_fragments) >= 2 else 0)

    monkeypatch.setattr(dpp, "parse_header", parse)
    monkeypatch.setattr(runner, "_now_us", stepped_now_us)
    host_stats, mud_stats = _run_pair(*_pair(duration_s=1.0))
    assert len(frame0_fragments) > 2
    assert mud_stats.frames_dropped == 0
    assert mud_stats.frames_completed == host_stats.frames_sent


def test_reassembler_rejects_are_reported(monkeypatch):
    # every frame (16+ fragments here) is sent with its first fragment twice
    # and once more claiming one fragment too many, before the rest arrive
    send_frame = dpp.send_frame

    def doctored(sock, peer, *args):
        capture = CaptureSocket()
        send_frame(capture, peer, *args)
        datagrams = [datagram for datagram, _address in capture.sent]
        first = decode_packet(datagrams[0])
        bad_count = replace(first, frag_count=first.frag_count + 1)
        for packet in [first, first, bad_count]:
            sock.sendto(encode_packet(packet), peer)
        for datagram in datagrams[1:]:
            sock.sendto(datagram, peer)
        return len(datagrams) + 2, 1

    monkeypatch.setattr(dpp, "send_frame", doctored)
    host_stats, mud_stats = _run_pair(*_pair(duration_s=0.5))
    integrity = mud_stats.to_dict()["integrity"]
    assert integrity["duplicate_fragments"] == host_stats.frames_sent > 0
    assert integrity["frag_count_mismatches"] == host_stats.frames_sent
    assert integrity["malformed_datagrams"] == 0
    assert mud_stats.frames_completed == host_stats.frames_sent
    assert mud_stats.pattern_mismatches == 0


def test_host_with_a_scripted_peer(monkeypatch):
    # The peer runs inside the host's own calls, so the host's thread is the
    # only one: a malformed datagram and a HELLO as soon as the host's socket
    # is bound, an IFRAME_REQUEST once frame 0 is out (after the HELLO reply),
    # and another malformed datagram mid-stream.
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(1.0)
    cfg = RunnerConfig(
        bind=("127.0.0.1", _free_port()), peer=peer.getsockname(), duration_s=0.2
    )
    fp = config_fingerprint(cfg.codec, cfg.feedback_control)
    request = runner.cp_mod.CpMessage(subtype=runner.cp_mod.SUB_IFRAME_REQUEST)
    open_socket, send_frame = runner._open_socket, dpp.send_frame
    threads_before = threading.active_count()
    threads_seen, forced_frames, sent_at = [], [], []

    def scripted_open_socket(bind):
        sock = open_socket(bind)
        peer.sendto(b"not a datagram", bind)
        peer.sendto(runner.cp_mod.encode_cp(runner._hello_message(fp, 0)), bind)
        return sock

    def scripted_send_frame(sock, to, frame_id, payload, stamp_us, is_iframe, forced, train):
        sent_at.append(time.monotonic())
        sent = send_frame(sock, to, frame_id, payload, stamp_us, is_iframe, forced, train)
        threads_seen.append(threading.active_count())
        if forced:
            forced_frames.append(frame_id)
        if frame_id == 0:
            reply = runner.cp_mod.decode_cp(peer.recvfrom(65_535)[0])
            assert reply.subtype == runner.cp_mod.SUB_HELLO
            peer.sendto(runner.cp_mod.encode_cp(request), cfg.bind)
        elif frame_id == 6:
            peer.sendto(b"\x55\x56 truncated", cfg.bind)
        return sent

    monkeypatch.setattr(runner, "_open_socket", scripted_open_socket)
    monkeypatch.setattr(dpp, "send_frame", scripted_send_frame)
    try:
        stats = host_run(cfg)
    finally:
        peer.close()
    assert stats.frames_sent == 12
    assert stats.malformed_datagrams == 2
    assert stats.requests_received == stats.forced_iframes == 1
    assert forced_frames and forced_frames[0] in (0, 1)
    assert max(threads_seen) == threads_before
    # paced on the ticks, also when a datagram ends the wait early; frame 0
    # went out right after the stream's clock started
    tick_s = 1 / cfg.codec.fps
    for i, at in enumerate(sent_at):
        assert at - sent_at[0] > (i - 0.5) * tick_s


def _sent_frames(monkeypatch, **config) -> list[tuple[int, bool, int]]:
    """(frame id, I-frame, size) of each frame that ``host_run`` sends to a
    silent peer, in order."""
    sent, send_frame = [], dpp.send_frame

    def recording_send_frame(sock, to, frame_id, payload, stamp_us, is_iframe, forced, train):
        sent.append((frame_id, is_iframe, len(payload)))
        return send_frame(sock, to, frame_id, payload, stamp_us, is_iframe, forced, train)

    monkeypatch.setattr(dpp, "send_frame", recording_send_frame)
    assert _host_with_silent_peer(**config).frames_sent == len(sent)
    return sent


@pytest.mark.parametrize(
    "codec, duration_s",
    [
        (CodecConfig(fps=90, gop_size=7), 0.4),
        (CodecConfig(fps=60, gop_size=5, transcode_avoidance=True), 0.25),
    ],
)
def test_host_frames_are_the_scalar_workload(codec, duration_s, monkeypatch):
    # whole periods: one scalar complexity draw and one ``encoded_size`` per
    # frame, on the GOP schedule, as the host drew them before it read the
    # simulator's send grid
    seed, sigma = 7, 0.3
    sent = _sent_frames(
        monkeypatch, codec=codec, duration_s=duration_s, seed=seed, complexity_sigma=sigma
    )
    draw, nominal = Rng(seed).stream("workload").standard_normal, nominal_sizes(codec)
    reference = []
    for i in range(round(duration_s * 1e6) * codec.fps // 10**6):
        ftype = FrameType.I if i % codec.gop_size == 0 else FrameType.P
        size = encoded_size(ftype, codec, float(np.exp(sigma * draw())), nominal)
        reference.append((i, ftype is FrameType.I, size))
    assert sent == reference
    assert len(reference) == round(duration_s * codec.fps)


def test_host_sends_the_send_grids_frames(monkeypatch):
    # 0.21 s is 12.6 periods at 60 FPS: the grid's ticks 0 to 200,000 us are 13
    cfg = RunnerConfig(duration_s=0.21)
    grid, _ = send_grid(cfg.seed, cfg.complexity_sigma, 60, 60, 210_000, EncodeMode.SYNC)
    sent = _sent_frames(monkeypatch, duration_s=0.21)
    assert [frame_id for frame_id, _, _ in sent] == list(range(len(grid.tick))) == list(range(13))


def test_a_session_that_completes_no_frame_reports_no_latency():
    host_cfg, mud_cfg = _pair(duration_s=0.3, induced_loss=1.0)
    stop, results = threading.Event(), {}
    thread = threading.Thread(target=lambda: results.update(mud=mud_run(mud_cfg, stop)))
    thread.start()
    try:
        host_stats = host_run(host_cfg)
    finally:
        stop.set()  # the receiver need not wait out its idle limit
        thread.join(timeout=10)
    assert not thread.is_alive()
    mud_stats = results["mud"]
    assert host_stats.frames_sent == 18
    assert mud_stats.induced_drops > 0
    assert mud_stats.frames_completed == mud_stats.frames_dropped == 0
    latency = mud_stats.to_dict()["one_way_latency"]
    assert latency == {"mean_ms": None, "p50_ms": None, "p99_ms": None}


def test_a_session_that_sees_no_data_ends_by_its_idle_limit():
    # the idle limit runs from the handshake: a receiver that drops every
    # datagram ends within it of the host's end, not at duration_s + 3 s
    host_cfg, mud_cfg = _pair(duration_s=0.3, induced_loss=1.0)
    results = {}

    def mud():
        results["mud"] = mud_run(mud_cfg)
        results["mud_end"] = time.monotonic()

    thread = threading.Thread(target=mud)
    thread.start()
    host_run(host_cfg)
    host_end = time.monotonic()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert results["mud"].induced_drops > 0
    idle_limit_s = max(1.0, 0.2 * mud_cfg.duration_s)
    assert results["mud_end"] - host_end < idle_limit_s + 0.5


def test_handshake_timeout_without_peer():
    cfg = RunnerConfig(
        bind=("127.0.0.1", _free_port()), peer=("127.0.0.1", _free_port()), duration_s=1.0
    )
    with pytest.raises(HandshakeTimeout):
        host_run(cfg)


def test_config_mismatch_detected():
    host_cfg, mud_cfg = _pair(duration_s=1.0)
    mud_cfg.codec = replace(mud_cfg.codec, gop_size=480)
    errors = {}

    def mud():
        try:
            mud_run(mud_cfg)
        except Exception as exc:  # either side may observe the mismatch first
            errors["mud"] = exc

    thread = threading.Thread(target=mud)
    thread.start()
    with pytest.raises(ConfigMismatch):
        host_run(host_cfg)
    thread.join(timeout=10)


def test_fingerprint_sensitivity():
    a = RunnerConfig()
    fp = config_fingerprint(a.codec, True)
    assert fp == config_fingerprint(RunnerConfig().codec, True)
    assert fp != config_fingerprint(replace(a.codec, gop_size=480), True)
    assert fp != config_fingerprint(a.codec, False)


def test_wire_bytes_match_simulator_encoding():
    # a datagram sent by the runner parses to the identical packet the
    # simulator-side encoder produced
    payload = frame_payload(3, 5_000)
    packets = fragment(3, payload, 777, is_iframe=True, forced=True)
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.bind(("127.0.0.1", 0))
    rx.settimeout(2.0)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        dpp.send_frame(tx, rx.getsockname(), 3, payload, 777, is_iframe=True, forced=True)
        for p in packets:
            data, _ = rx.recvfrom(65_535)
            assert data == encode_packet(p)
            assert decode_packet(data) == p
    finally:
        rx.close()
        tx.close()
