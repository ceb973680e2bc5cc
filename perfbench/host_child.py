"""Host role of ``net_loopback``, run in its own process.

Usage: python3 perfbench/host_child.py <host_port> <mud_port> <duration_s> <seed> <spans.npz or ->

Prints ``bound`` as soon as the host's socket is bound, so the receiver can
start without racing the host's start-up, then streams with
``runner.host_run`` and prints one JSON line with its stats and CPU time.
Given a spans path it wraps the host's layer calls before calling
``host_run`` and writes the spans there.
The reference loop runs before and after set-up, so the set-up time can be
scaled to the reference speed.
"""

import json
import sys
import time
from pathlib import Path

import calibrate

loop_before_setup = calibrate.loop_seconds(2)
t0 = time.perf_counter()
from common import import_package  # noqa: E402

import_package()
from uvrpipe import runner  # noqa: E402

t1 = time.perf_counter()
host_port, mud_port, duration_s, seed, spans_path = sys.argv[1:6]
cfg = runner.RunnerConfig(
    bind=("127.0.0.1", int(host_port)),
    peer=("127.0.0.1", int(mud_port)),
    duration_s=float(duration_s),
    seed=int(seed),
)
t2 = time.perf_counter()
loop_after_setup = calibrate.loop_seconds(2)

open_socket = runner._open_socket


def announcing_open_socket(bind):
    sock = open_socket(bind)
    print("bound", flush=True)
    return sock


runner._open_socket = announcing_open_socket

tracer = None
if spans_path != "-":
    from layers import install_host
    from tracing import Tracer

    tracer = Tracer()
    install_host(tracer)

c0 = time.process_time()
stats = runner.host_run(cfg)
cpu_s = time.process_time() - c0
end_mono = time.monotonic()

result = {
    "setup_s": t2 - t0,
    "setup_slowdown": calibrate.slowdown(loop_before_setup, loop_after_setup),
    "cpu_s": cpu_s,
    "end_monotonic": end_mono,
    "stats": stats.to_dict(),
}
if tracer is not None:
    from layers import host_metrics

    tracer.uninstall()
    result["layers"] = host_metrics(tracer.analyse(), cfg.codec.fps)
    tracer.save(Path(spans_path))
print(json.dumps(result), flush=True)
