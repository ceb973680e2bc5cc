"""Layer instrumentation: which public calls get spans, and the per-layer metrics.

Every traced run prints every metric in ``PER_LAYER``. A layer that the
workload does not exercise reads 0 (no calls, no time), so the simulator
layers read 0 on ``net_loopback`` and the runner and wire-codec layers read
0 on the two simulator workloads.
"""

from __future__ import annotations

import numpy as np

from common import median, percentile
from tracing import SpanTable, Tracer

# (name, unit); "us" alone means microseconds per call of the wrapped function
PER_LAYER = (
    ("core.events", "count"),
    ("core.event_queue_us", "us/frame"),
    ("core.frame_source_us", "us/frame"),
    ("core.rng_init_us", "us"),
    ("scenario.config_us", "us/run"),
    ("stages.build_datapath_us", "us"),
    ("codec.encoded_size_us", "us"),
    ("codec.gop_plan_us", "us"),
    ("codec.decode_offer_us", "us"),
    ("codec.decode_wait_ms_mean", "ms"),
    ("netsim.bursts", "count"),
    ("netsim.packets", "count"),
    ("netsim.burst_us", "us"),
    ("netsim.us_per_packet", "us"),
    ("netsim.clean_share", "ratio"),
    ("netsim.transmit_us", "us"),
    ("netsim.lost_packets", "count"),
    ("dpp.reasm_bursts", "count"),
    ("dpp.reasm_us", "us"),
    ("dpp.reasm_whole_share", "ratio"),
    ("dpp.expire_us", "us"),
    ("dpp.deadlines_us", "us"),
    ("dpp.fragment_us_per_frame", "us"),
    ("dpp.encode_us_per_packet", "us"),
    ("dpp.decode_us_per_packet", "us"),
    ("dpp.on_packet_us", "us"),
    ("dpp.datagrams_rx", "count"),
    ("cp.frame_events_us", "us"),
    ("cp.requests_sent", "count"),
    ("cp.requests_suppressed", "count"),
    ("cp.forced_iframes", "count"),
    ("cp.useful_ratio", "ratio"),
    ("pipeline.self_us_per_frame", "us/frame"),
    ("report.distributions_us", "us"),
    ("runner.payload_us_per_frame", "us/frame"),
    ("runner.handshake_s", "s"),
    ("runner.tx_lateness_p50_us", "us"),
    ("runner.tx_lateness_max_us", "us"),
    ("runner.latency_p99_ms", "ms"),
    ("runner.rx_cpu_us_per_frame", "us/frame"),
    ("runner.tx_cpu_us_per_frame", "us/frame"),
    ("model.baseline_ms", "ms"),
    ("model.e2e_mean_ms", "ms"),
    ("model.e2e_p99_ms", "ms"),
    ("model.frame_loss", "ratio"),
    ("model.corrupted_rate", "ratio"),
    ("trace.spans", "count"),
    ("trace.frames_per_s_untraced", "frames/s"),
    ("trace.frames_per_s_traced", "frames/s"),
    ("trace.rx_cpu_us_per_frame_traced", "us/frame"),
)

RUN = "pipeline.run"


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def _sizes_len(ch, link, sizes, *args, **kwargs):
    return len(sizes)


def _whole_burst(self, fragments, frame_id, frag_count, *args, **kwargs):
    return float(len(fragments) == frag_count)


def _frame_id(frame_id, *args, **kwargs):
    return frame_id


def install_simulator(tracer: Tracer) -> None:
    """Spans around every simulator-side layer call."""
    from uvrpipe import codec, core, cp, dpp, netsim, pipeline, report, scenario, stages

    tracer.patch_method(pipeline.Simulator, "run", RUN)
    tracer.patch_method(core.EventQueue, "schedule", "core.schedule")
    tracer.patch_method(core.EventQueue, "pop", "core.pop")
    tracer.patch_method(core.FrameSource, "next_frame", "core.next_frame")
    tracer.patch_method(core.Rng, "__init__", "core.rng_init")
    for fn in ("preset_config", "with_toggle", "to_flat_dict"):
        tracer.patch_function(scenario, fn, "scenario.config")
    tracer.patch_method(scenario.ScenarioConfig, "validate", "scenario.config")
    tracer.patch_function(stages, "build_datapath", "stages.build_datapath")
    tracer.patch_function(codec, "encoded_size", "codec.encoded_size")
    tracer.patch_method(codec.GopWalker, "plan", "codec.gop_plan")
    tracer.patch_method(codec.DecodeServer, "offer", "codec.decode_offer")
    tracer.patch_function(netsim, "transmit_burst", "netsim.transmit_burst", _sizes_len)
    tracer.patch_function(netsim, "_burst_clean", "netsim.burst_clean")
    tracer.patch_function(netsim, "transmit", "netsim.transmit")
    tracer.patch_method(dpp.Reassembler, "on_burst", "dpp.on_burst", _whole_burst)
    tracer.patch_method(dpp.Reassembler, "expire", "dpp.expire")
    tracer.patch_method(dpp.Reassembler, "pending_deadlines", "dpp.pending_deadlines")
    tracer.patch_function(cp, "mud_on_frame_event", "cp.frame_event")
    tracer.patch_function(report, "build_distributions", "report.distributions")


def install_receiver(tracer: Tracer) -> None:
    """Spans around the receiver role's wire-side calls (single-threaded)."""
    from uvrpipe import cp, dpp, runner

    tracer.patch_function(dpp, "decode_packet", "dpp.decode_packet")
    tracer.patch_method(dpp.Reassembler, "on_packet", "dpp.on_packet")
    tracer.patch_method(dpp.Reassembler, "expire", "dpp.expire")
    tracer.patch_function(cp, "mud_on_frame_event", "cp.frame_event")
    tracer.patch_function(runner, "frame_payload", "runner.frame_payload")


def install_host(tracer: Tracer) -> None:
    """Spans around the host role's main-thread calls.

    The host's control listener thread decodes datagrams, so ``decode_packet``
    is deliberately left unwrapped here: the span stack is not thread-safe.
    """
    from uvrpipe import codec, core, dpp, runner

    tracer.patch_method(core.Rng, "__init__", "core.rng_init")
    tracer.patch_method(codec.GopWalker, "plan", "codec.gop_plan")
    tracer.patch_function(codec, "encoded_size", "codec.encoded_size")
    tracer.patch_function(runner, "frame_payload", "runner.frame_payload")
    tracer.patch_function(dpp, "fragment", "dpp.fragment", _frame_id)
    tracer.patch_function(dpp, "encode_packet", "dpp.encode_packet")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulator_metrics(table: SpanTable, reports: list, frames: int) -> dict[str, float]:
    """Layer metrics of the simulator workloads from spans and run reports."""
    m = zero_metrics()
    us = 1e6
    runs = table.count(RUN)
    m["core.events"] = table.count("core.pop", RUN)
    m["core.event_queue_us"] = us * _ratio(
        table.total_s("core.schedule", RUN) + table.total_s("core.pop", RUN), frames
    )
    m["core.frame_source_us"] = us * _ratio(table.total_s("core.next_frame", RUN), frames)
    m["core.rng_init_us"] = table.per_call_us("core.rng_init")
    m["scenario.config_us"] = us * _ratio(table.total_s("scenario.config"), runs)
    m["stages.build_datapath_us"] = table.per_call_us("stages.build_datapath")
    m["codec.encoded_size_us"] = table.per_call_us("codec.encoded_size")
    m["codec.gop_plan_us"] = table.per_call_us("codec.gop_plan")
    m["codec.decode_offer_us"] = table.per_call_us("codec.decode_offer")

    bursts = table.select("netsim.transmit_burst", RUN)
    n_bursts = int(bursts.sum())
    packets = float(table.value[bursts].sum())
    burst_s = float(table.duration[bursts].sum())
    clean = int(table.select("netsim.burst_clean", "netsim.transmit_burst", RUN).sum())
    m["netsim.bursts"] = n_bursts
    m["netsim.packets"] = packets
    m["netsim.burst_us"] = us * _ratio(burst_s, n_bursts)
    m["netsim.us_per_packet"] = us * _ratio(burst_s, packets)
    m["netsim.clean_share"] = _ratio(clean, n_bursts)
    m["netsim.transmit_us"] = table.per_call_us("netsim.transmit", RUN)

    reasm = table.count("dpp.on_burst")
    m["dpp.reasm_bursts"] = reasm
    m["dpp.reasm_us"] = table.per_call_us("dpp.on_burst")
    m["dpp.reasm_whole_share"] = _ratio(float(table.values("dpp.on_burst").sum()), reasm)
    m["dpp.expire_us"] = table.per_call_us("dpp.expire")
    m["dpp.deadlines_us"] = table.per_call_us("dpp.pending_deadlines")
    m["cp.frame_events_us"] = table.per_call_us("cp.frame_event")
    m["pipeline.self_us_per_frame"] = us * _ratio(table.self_s(RUN), frames)
    m["report.distributions_us"] = table.per_call_us("report.distributions")
    m["trace.spans"] = len(table)

    m["netsim.lost_packets"] = sum(r.network["lost_packets"] for r in reports)
    requests = sum(r.feedback["iframe_requests_sent"] for r in reports)
    forced = sum(r.feedback["forced_iframes"] for r in reports)
    m["cp.requests_sent"] = requests
    m["cp.requests_suppressed"] = sum(r.feedback["requests_suppressed"] for r in reports)
    m["cp.forced_iframes"] = forced
    m["cp.useful_ratio"] = _ratio(forced, requests)
    waits = [
        (r.stages["decode-wait"]["mean_ms"], r.frames["presented"])
        for r in reports
        if "decode-wait" in r.stages
    ]
    m["codec.decode_wait_ms_mean"] = _ratio(
        sum(w * n for w, n in waits), sum(n for _, n in waits)
    )
    return m


def host_metrics(table: SpanTable, fps: int) -> dict[str, float]:
    """Host-role layer numbers, computed in the host process from its spans."""
    frames = table.count("dpp.fragment")
    starts = table.starts("dpp.fragment")
    frame_ids = table.values("dpp.fragment")
    plans = table.starts("codec.gop_plan")
    lateness_us: list[float] = []
    if frames and len(plans):
        from uvrpipe.core import tick_time

        # frame 0 is due when the paced loop starts, just before its first plan
        t0 = float(plans[0])
        lateness_us = [
            1e6 * (float(start) - t0) - tick_time(int(fid), fps)
            for start, fid in zip(starts, frame_ids)
        ]
    return {
        "frames": frames,
        "payload_s": table.total_s("runner.frame_payload"),
        "core.rng_init_us": table.per_call_us("core.rng_init"),
        "codec.gop_plan_us": table.per_call_us("codec.gop_plan"),
        "codec.encoded_size_us": table.per_call_us("codec.encoded_size"),
        "dpp.fragment_us_per_frame": table.per_call_us("dpp.fragment"),
        "dpp.encode_us_per_packet": table.per_call_us("dpp.encode_packet"),
        "tx_lateness_us": lateness_us,
        "spans": len(table),
    }


def net_metrics(rx: SpanTable, traced: list[dict]) -> dict[str, float]:
    """Layer metrics of ``net_loopback`` from receiver spans and host reports."""
    m = zero_metrics()
    hosts = [s["layers"] for s in traced]
    for key in (
        "core.rng_init_us",
        "codec.gop_plan_us",
        "codec.encoded_size_us",
        "dpp.fragment_us_per_frame",
        "dpp.encode_us_per_packet",
    ):
        m[key] = _weighted(hosts, key)
    m["dpp.decode_us_per_packet"] = rx.per_call_us("dpp.decode_packet")
    m["dpp.on_packet_us"] = rx.per_call_us("dpp.on_packet")
    m["dpp.datagrams_rx"] = rx.count("dpp.decode_packet")
    m["dpp.expire_us"] = rx.per_call_us("dpp.expire")
    m["cp.frame_events_us"] = rx.per_call_us("cp.frame_event")
    payload_s = rx.total_s("runner.frame_payload") + sum(h["payload_s"] for h in hosts)
    m["runner.payload_us_per_frame"] = 1e6 * _ratio(payload_s, sum(s["sent"] for s in traced))
    lateness = [v for h in hosts for v in h["tx_lateness_us"]]
    if lateness:
        m["runner.tx_lateness_p50_us"] = percentile(lateness, 50)
        m["runner.tx_lateness_max_us"] = float(np.max(lateness))
    m["trace.spans"] = len(rx) + sum(h["spans"] for h in hosts)
    return m


def _weighted(hosts: list[dict], key: str) -> float:
    total = sum(h["frames"] for h in hosts)
    return _ratio(sum(h[key] * h["frames"] for h in hosts), total)


def session_metrics(m: dict, sessions: list[dict]) -> None:
    """Fill the counters and medians every loopback session reports."""
    requests = sum(s["requests_sent"] for s in sessions)
    forced = sum(s["forced_iframes"] for s in sessions)
    m["cp.requests_sent"] = requests
    m["cp.requests_suppressed"] = sum(s["requests_suppressed"] for s in sessions)
    m["cp.forced_iframes"] = forced
    m["cp.useful_ratio"] = _ratio(forced, requests)
    m["runner.handshake_s"] = median([s["handshake_s"] for s in sessions])
    m["runner.latency_p99_ms"] = median([s["latency_p99_ms"] for s in sessions])
