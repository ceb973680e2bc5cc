"""The ``net_loopback`` workload: the real UDP runner pair over ``lo``.

This process runs ``runner.mud_run`` as the receiver; one child process
(``host_child.py``) runs ``runner.host_run`` at the default 20 Mbps and
60 FPS. The host is an open loop paced at 60 FPS, so a faster datapath does
not raise throughput: it shows as less CPU per frame, lower latency, and
(through how fast the receiver drains its socket) less frame loss. No socket
option is set and the default bitrate is kept, so the known receive-buffer
overflow on I-frame bursts shows in the loss figure.

A run is a series of fixed-length sessions, each with a fresh host process
and a fresh handshake.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, ROOT

SESSION_S = 5.0
QUICK_SESSION_S = 1.0
# after the host finishes, the receiver drains for this long before stopping
DRAIN_S = 0.25
CHILD_TIMEOUT_S = 30.0


class SessionError(RuntimeError):
    pass


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_session(seed: int, duration_s: float, tracer=None, host_spans=None) -> dict:
    """One host/receiver session.

    With a ``tracer``, the receiver's calls are wrapped and the host process
    traces its own calls into the ``host_spans`` file.
    """
    from uvrpipe import cp, runner

    host_port, mud_port = _free_port(), _free_port()
    argv = [
        sys.executable,
        str(BENCH_DIR / "host_child.py"),
        str(host_port),
        str(mud_port),
        repr(duration_s),
        str(seed),
        str(host_spans) if tracer is not None else "-",
    ]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    decode_cp = cp.decode_cp
    hello_at: list[float] = []
    host_line: list[str] = []
    stop = threading.Event()

    def timed_decode_cp(data):
        msg = decode_cp(data)
        if not hello_at and msg.subtype == cp.SUB_HELLO:
            hello_at.append(time.monotonic())
        return msg

    def wait_for_host():
        host_line.append(proc.stdout.readline())
        time.sleep(DRAIN_S)
        stop.set()

    watcher = threading.Thread(target=wait_for_host, daemon=True)
    try:
        if proc.stdout.readline().strip() != "bound":
            raise SessionError("host process exited before binding its socket")
        cp.decode_cp = timed_decode_cp
        watcher.start()
        cfg = runner.RunnerConfig(
            bind=("127.0.0.1", mud_port),
            peer=("127.0.0.1", host_port),
            duration_s=duration_s,
            seed=seed,
        )
        if tracer is not None:
            from layers import install_receiver

            install_receiver(tracer)
        try:
            c0, start = time.process_time(), time.monotonic()
            mud = runner.mud_run(cfg, stop)
            rx_cpu_s = time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
            cp.decode_cp = decode_cp
        watcher.join(timeout=CHILD_TIMEOUT_S)
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not host_line or not host_line[0].strip():
        raise SessionError(f"host process failed with exit code {proc.returncode}")
    host = json.loads(host_line[0])
    hs = host["stats"]
    sent = hs["frames"]["sent"]
    handshake_s = hello_at[0] - start
    return {
        "seed": seed,
        "sent": sent,
        "completed": mud.frames_completed,
        "dropped": mud.frames_dropped,
        "pattern_mismatches": mud.pattern_mismatches,
        "malformed": mud.malformed_datagrams + hs["integrity"]["malformed_datagrams"],
        "latency_p50_ms": mud.latency_p50_ms,
        "latency_p99_ms": mud.latency_p99_ms,
        "handshake_s": handshake_s,
        "setup_s": host["setup_s"] / host["setup_slowdown"] + handshake_s,
        "stream_s": host["end_monotonic"] - hello_at[0],
        "rx_cpu_s": rx_cpu_s,
        "tx_cpu_s": host["cpu_s"],
        "requests_sent": mud.requests_sent,
        "requests_suppressed": hs["feedback"]["requests_suppressed"],
        "forced_iframes": hs["feedback"]["forced_iframes"],
        "layers": host.get("layers"),
        "fps": cfg.codec.fps,
        "duration_s": duration_s,
    }


def check(session: dict) -> list[str]:
    errors = []
    if session["pattern_mismatches"]:
        errors.append(f"{session['pattern_mismatches']} payload pattern mismatches")
    if session["malformed"]:
        errors.append(f"{session['malformed']} malformed datagrams")
    expected = session["duration_s"] * session["fps"]
    if abs(session["sent"] - expected) > 1:
        errors.append(f"host sent {session['sent']} frames, expected {expected:g} +/- 1")
    return errors


def sessions_for(seconds: float, quick: bool, traced: bool) -> tuple[float, list[bool]]:
    """Session length and, per session, whether it is traced.

    A traced run alternates untraced and traced sessions so that the tracing
    overhead is measured on the same machine state.
    """
    length = QUICK_SESSION_S if quick else SESSION_S
    n = max(1, round(seconds / length))
    if traced:
        n = max(2, n + n % 2)
        return length, [i % 2 == 1 for i in range(n)]
    return length, [False] * n

