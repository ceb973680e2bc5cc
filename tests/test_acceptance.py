"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
"""

import json
import random
import socket
import statistics
import threading
import time

import pytest
from packet_feed import DppPacket, decode_packet, deliver, encode_packet, fragment
from reassembler_run import StepwiseOnFrame

from uvrpipe import dpp
from uvrpipe.cli import main
from uvrpipe.codec import DecodeServer
from uvrpipe.core import tick_time
from uvrpipe.experiments import recovery_sweep
from uvrpipe.pipeline import ab_suite, run_scenario
from uvrpipe.report import load_report, strip_meta
from uvrpipe.runner import RunnerConfig, frame_payload, host_run, mud_run
from uvrpipe.scenario import EncodeMode, preset_config
from uvrpipe.stages import ledger_frame_copies


def _ok(cid, detail):
    print(f"ACCEPTANCE {cid}: PASS - {detail}")


def _preset(name, seed=42, duration=60.0):
    cfg = preset_config(name)
    cfg.seed = seed
    cfg.duration_s = duration
    return cfg


def test_c01_baseline_breakdown():
    t0 = time.monotonic()
    metrics = run_scenario(_preset("baseline")).metrics
    runtime = time.monotonic() - t0
    stages = {name: d["mean_ms"] for name, d in metrics.stages.items()}
    assert stages["host-netstack"] == pytest.approx(17.63, abs=0.05)
    assert stages["encode-path"] == pytest.approx(13.94, abs=0.05)
    assert stages["network"] == pytest.approx(3.2, abs=0.05)
    assert stages["mud"] == pytest.approx(3.64, abs=0.05)
    assert metrics.end_to_end["mean_ms"] == pytest.approx(38.41, abs=0.05)
    assert max(stages, key=stages.get) == "host-netstack"  # dominant baseline cost
    assert runtime < 10.0
    _ok(
        "C1",
        f"baseline stages {stages}, total {metrics.end_to_end['mean_ms']} ms,"
        f" runtime {runtime:.2f} s",
    )


def test_c02_optimized_total():
    metrics = run_scenario(_preset("openuvr")).metrics
    mean = metrics.end_to_end["mean_ms"]
    frames = metrics.end_to_end["mean_frames_60fps"]
    assert mean == pytest.approx(14.32, abs=0.05)
    assert frames < 1.0
    _ok("C2", f"all-on mean {mean} ms = {frames} 60-FPS frames")


def test_c03_per_toggle_deltas_and_residual():
    suite = ab_suite(_preset("baseline"))
    deltas = {name: ab["delta_ms"] for name, ab in suite["deltas"].items()}
    assert deltas["transcode_avoidance"] == pytest.approx(5.51, abs=0.1)
    assert deltas["shared_gpu_buffer"] == pytest.approx(4.71, abs=0.1)
    assert deltas["direct_net_io"] == pytest.approx(13.67 + 0.7, abs=0.1)
    direct_stages = suite["deltas"]["direct_net_io"]["stage_deltas_ms"]
    assert direct_stages["host-netstack"] == pytest.approx(13.67, abs=0.1)
    assert direct_stages["mud"] == pytest.approx(0.7, abs=0.1)
    assert deltas["p2p_topology"] == pytest.approx(1.6, abs=0.1)  # YUV
    assert suite["p2p_topology_rgb"]["delta_ms"] == pytest.approx(0.8, abs=0.1)
    assert deltas["feedback_control"] == pytest.approx(0.1, abs=0.1)
    assert suite["interaction_residual_ms"] == pytest.approx(1.4, abs=0.1)
    _ok(
        "C3",
        f"deltas {deltas}, p2p(RGB) {suite['p2p_topology_rgb']['delta_ms']},"
        f" residual {suite['interaction_residual_ms']} ms",
    )


def test_c04_sync_mode_budget():
    cfg = _preset("openuvr")
    cfg.encode_mode = EncodeMode.SYNC
    cfg.render_work_us = 11_100
    metrics = run_scenario(cfg).metrics
    assert metrics.sync["task_time_mean_ms"] == pytest.approx(3.72, abs=0.05)
    assert metrics.sync["tick_overruns"] == 0
    assert metrics.end_to_end["mean_ms"] == pytest.approx(14.32, abs=0.05)
    _ok(
        "C4",
        f"sync task {metrics.sync['task_time_mean_ms']} ms,"
        f" {metrics.sync['tick_overruns']} overruns in 60 s",
    )


def test_c05_recovery_with_and_without_feedback():
    n = 1_000
    with_fb = recovery_sweep(n, feedback=True)
    intervals = sorted(t["corrupted_interval"] for t in with_fb)
    assert all(t["dropped"] == 1 and t["recovered"] for t in with_fb)
    within_5 = sum(1 for v in intervals if v <= 5) / n
    median = statistics.median(intervals)
    assert within_5 >= 0.99
    assert median <= 3
    without_fb = recovery_sweep(n, feedback=False)
    off_median = statistics.median(t["corrupted_interval"] for t in without_fb)
    assert 0.4 * 480 <= off_median <= 0.6 * 480
    _ok(
        "C5",
        f"feedback: {100 * within_5:.1f}% <= 5 frames, median {median};"
        f" no feedback: median {off_median} in [192, 288]",
    )


def _spike_positions(records, threshold_ms):
    latencies = {
        r.frame_id: (r.presented_us - r.gen_us) / 1000.0
        for r in records
        if r.presented_us >= 0
    }
    p_lat = [v for fid, v in latencies.items() if records[fid].frame_type == "P"]
    floor = statistics.median(p_lat) + threshold_ms
    return sorted(fid for fid, v in latencies.items() if v > floor)


def test_c06_iframe_cadence_and_stutter():
    big = run_scenario(_preset("openuvr", duration=25.0)).records
    spikes = _spike_positions(big, 0.6)
    assert spikes == list(range(0, len(big), 480))  # one spike per 8 s
    assert all(big[fid].frame_type == "I" for fid in spikes)
    small = run_scenario(_preset("baseline", duration=5.0)).records
    spikes20 = _spike_positions(small, 1.0)
    assert spikes20 == list(range(0, len(small), 20))  # three per second
    _ok("C6", "I-latency spikes exactly every 480 frames (8 s) and every 20 frames (3/s)")


def test_c07_protocol_properties():
    rnd = random.Random(1234)
    # encode/decode round trip, 10^4 randomized packets, through the reference
    # codec and the receiver's header check
    for _ in range(10_000):
        count = rnd.randint(1, 64)
        p = DppPacket(
            msg_type=rnd.choice((dpp.MSG_DATA, dpp.MSG_CTRL)),
            flags=rnd.randint(0, 3),
            frame_id=rnd.randint(0, 0xFFFFFFFF),
            frag_index=rnd.randint(0, count - 1),
            frag_count=count,
            gen_timestamp_us=rnd.randint(0, 2**63),
            payload=rnd.randbytes(rnd.randint(0, dpp.PAYLOAD_CAP)),
        )
        raw = encode_packet(p)
        assert decode_packet(raw) == p
        assert encode_packet(decode_packet(raw)) == raw
        assert dpp.parse_header(raw, len(raw)) == (
            p.msg_type, p.flags, p.frame_id, p.frag_index, p.frag_count, p.gen_timestamp_us
        )

    # fragment/reassemble identity, 10^4 randomized frames (shuffled delivery);
    # byte-exact payload verification on a sample including the extremes
    checked_bytes = 0
    for case in range(10_000):
        verify_payload = case % 5 == 0 or case in (1, 2)
        if case == 1:
            size = 1
        elif case == 2:
            size = 10_000_000
        elif verify_payload:
            size = rnd.randint(1, 60_000)
        else:
            size = rnd.randint(1, 500_000)
        if verify_payload:
            data = rnd.randbytes(size)
            packets = fragment(case, data, 0, is_iframe=False)
            order = list(range(len(packets)))
            rnd.shuffle(order)
            reasm = dpp.Reassembler(10**9)
            completes = []
            for i in order:
                completes += [
                    e
                    for e in deliver(reasm, packets[i], i)
                    if isinstance(e, dpp.FrameComplete)
                ]
            assert len(completes) == 1 and completes[0].data == data
            checked_bytes += size
        else:
            count, tail = dpp.fragment_layout(size)
            assert (count - 1) * dpp.PAYLOAD_CAP + tail == size
            assert count == -(-size // dpp.PAYLOAD_CAP)
            reasm = dpp.Reassembler(10**9)
            order = list(range(count))
            rnd.shuffle(order)
            events = []
            for i in order:
                events += reasm.on_fragments(0, case, i, count, False, False, 0, [b""])
            assert [e.frame_id for e in events] == [case]
            events = StepwiseOnFrame(10**9).on_frame(0, 0, count, case, count, False, False, 0)
            assert [e.frame_id for e in events] == [case]

    # exactly-once resolution under shuffled, duplicated, lossy delivery
    reasm = dpp.Reassembler(33_334)
    outcomes = {}
    now = 0
    for fid in range(400):
        packets = fragment(fid, rnd.randbytes(rnd.randint(1, 20_000)), now, False)
        stream = [p for p in packets if rnd.random() > 0.03]
        stream += rnd.choices(packets, k=2)
        rnd.shuffle(stream)
        for p in stream:
            now += 211
            for ev in deliver(reasm, p, now):
                outcomes.setdefault(ev.frame_id, []).append(ev)
        now += 4_000
        for ev in reasm.expire(now):
            outcomes.setdefault(ev.frame_id, []).append(ev)
    for ev in reasm.expire(now + 10**6):
        outcomes.setdefault(ev.frame_id, []).append(ev)
    assert all(len(evs) == 1 for evs in outcomes.values())

    # shared golden vector, simulator-side and across a real datagram socket
    golden = DppPacket(dpp.MSG_DATA, dpp.FLAG_IFRAME, 1, 0, 1, 42, b"AB")
    golden_bytes = bytes.fromhex("555601010100000001000000010002000000000000002a4142")
    assert encode_packet(golden) == golden_bytes
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.bind(("127.0.0.1", 0))
    rx.settimeout(2.0)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        tx.sendto(encode_packet(golden), rx.getsockname())
        wire, _ = rx.recvfrom(65_535)
    finally:
        rx.close()
        tx.close()
    assert wire == golden_bytes
    assert decode_packet(wire) == golden
    _ok("C7", f"10^4 wire + 10^4 reassembly cases ({checked_bytes} payload bytes verified)")


def test_c08_copy_ledger_dominance():
    base_res = run_scenario(_preset("baseline", duration=5.0))
    opt_res = run_scenario(_preset("openuvr", duration=5.0))
    assert base_res.graph.host_netstack_copies == 3
    assert opt_res.graph.host_netstack_copies == 1
    raw_rgb, raw_yuv = 6_220_800, 3_110_400
    for rb, ro in zip(base_res.records, opt_res.records):
        lb = ledger_frame_copies(base_res.graph, raw_rgb, raw_yuv, rb.size_bytes)
        lo = ledger_frame_copies(opt_res.graph, raw_rgb, raw_yuv, ro.size_bytes)
        encoded_copies = [e for e in lo.entries if e[0] == "link-buffer"]
        assert len(encoded_copies) == 1 and len(lo.entries) == 1
        assert len(lb.entries) == 5  # capture + encode-input + 3 netstack copies
        assert lo.total_bytes() < lb.total_bytes()
    assert opt_res.metrics.copies["host_netstack_copies_per_frame"] == 1
    assert base_res.metrics.copies["host_netstack_copies_per_frame"] == 3
    _ok("C8", "optimized path: 1 encoded copy/frame vs 3; fewer bytes for every frame")


def test_c09_bitrate_conservation():
    cfg = _preset("baseline")
    cfg.workload.complexity_sigma = 0.0
    metrics = run_scenario(cfg).metrics
    rate = metrics.network["encoded_throughput_bps"]
    assert metrics.frames["dropped"] == 0
    assert abs(rate - 20_000_000) <= 20_000_000 * 0.001
    _ok("C9", f"sigma=0 throughput {rate} bps (target 20 Mbps +/- 0.1%)")


def test_c10_decode_cap():
    overloaded = DecodeServer(60)
    waits = [overloaded.offer(tick_time(i, 90))[1] for i in range(900)]  # 10 s at 90 FPS
    tail = waits[5:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert tail[-1] > tail[0]
    at_cap = DecodeServer(60)
    waits60 = sorted(at_cap.offer(tick_time(i, 60))[1] for i in range(600))
    p99 = waits60[int(0.99 * len(waits60))]
    assert p99 < 3_640
    _ok("C10", f"90 FPS backlog grows to {tail[-1] / 1000:.1f} ms; 60 FPS p99 wait {p99} us")


def _runner_pair(duration_s, induced_loss=0.0):
    def free_port():
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    hp, mp = free_port(), free_port()
    host_cfg = RunnerConfig(bind=("127.0.0.1", hp), peer=("127.0.0.1", mp), duration_s=duration_s)
    mud_cfg = RunnerConfig(
        bind=("127.0.0.1", mp),
        peer=("127.0.0.1", hp),
        duration_s=duration_s,
        induced_loss=induced_loss,
    )
    results = {}

    def mud():
        results["mud"] = mud_run(mud_cfg)

    thread = threading.Thread(target=mud)
    thread.start()
    results["host"] = host_run(host_cfg)
    thread.join(timeout=duration_s + 20)
    assert not thread.is_alive()
    return results["host"], results["mud"]


def test_c11_runner_loopback_and_induced_loss():
    host_stats, mud_stats = _runner_pair(10.0)
    assert host_stats.frames_sent == pytest.approx(600, abs=1)
    assert mud_stats.frames_dropped == 0
    assert mud_stats.pattern_mismatches == 0
    assert mud_stats.frames_completed == host_stats.frames_sent

    lossy_host, lossy_mud = _runner_pair(5.0, induced_loss=0.01)
    assert lossy_mud.induced_drops > 0
    assert lossy_mud.frames_dropped > 0
    assert lossy_mud.requests_sent >= 1  # IFRAME_REQUESTs on the wire
    assert lossy_host.requests_received >= 1
    assert lossy_host.forced_iframes >= 1
    assert lossy_mud.frames_completed + lossy_mud.frames_dropped <= lossy_host.frames_sent

    golden = DppPacket(dpp.MSG_DATA, dpp.FLAG_IFRAME, 1, 0, 1, 42, b"AB")
    assert encode_packet(golden) == bytes.fromhex(
        "555601010100000001000000010002000000000000002a4142"
    )
    _ok(
        "C11",
        f"loss-free: {mud_stats.frames_completed}/{host_stats.frames_sent} frames,"
        f" 0 mismatches; 1% loss: {lossy_mud.frames_dropped} drops,"
        f" {lossy_mud.requests_sent} requests, {lossy_host.forced_iframes} forced I",
    )


def test_c12_determinism(tmp_path):
    argv = ["sim", "run", "--preset", "openuvr", "--seed", "42", "--set", "duration_s=10"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    da, db = load_report(a), load_report(b)
    assert strip_meta(da) == strip_meta(db)
    assert json.dumps(strip_meta(da), sort_keys=False) == json.dumps(
        strip_meta(db), sort_keys=False
    )
    assert da["meta"]["created_utc"]  # wall clock lives only here
    _ok("C12", "same seed twice: reports byte-identical outside meta")
