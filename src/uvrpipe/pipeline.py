"""End-to-end frame lifecycle simulation and A/B comparison.

One simulated frame flows: render tick -> encode (GOP plan + sizing) ->
host network stack -> fragment burst on the air -> reassembly at the
receiver -> rate-capped decode -> presentation. Dropped-frame feedback runs
against the same clock over the same (shared) medium.

A run is computed in one of two ways, with the same result:

  * The event loop (``Simulator._run_events``), the general one: burst,
    deadline and feedback events on one heap, with the render and sample
    tick grid merged in lazily (``EventQueue.run``) rather than pushed onto
    the heap, and the render ticks' complexities drawn as one batch. A tick
    still goes before a heap event at its time, and a render before a
    sample, as when every tick was scheduled up front; a frame's burst is
    drawn, then timed (``netsim.transmit_frame``), and the reassembler takes
    its result as it is (``Reassembler.on_frame``).
  * The array run (``Simulator._run_arrays``), for a draw-free run:
    Bernoulli loss at ``loss_p == 0``, no jitter, no fault frame and no
    transcript. Nothing is lost, so no frame drops, no feedback is sent
    and every frame follows the GOP schedule; ticks, complexities, sizes,
    fragment layouts, the link (``netsim.clean_run``) and the decoder's
    token bucket (``DecodeServer.offer_run``) are whole-run numpy arrays,
    with no Python step per frame. Only a bucket that makes some frame wait
    is offered frame by frame. The ``FrameRecord`` list is built from the
    arrays when ``SimResult.records`` is first read. When a precondition
    fails on the arrays (the receiver's FIFO clamp binds, a frame exceeds
    the fragment limit, a time could outgrow int64), it leaves the rng and
    the link as they were and the event loop runs.

``tests/test_array_run.py`` keeps the event loop as the array run's reference,
and ``tests/test_tick_merge.py`` keeps the eager tick schedule as the lazy
merge's.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Any, Optional, Union

import numpy as np

from . import cp as cp_mod
from . import dpp, netsim
from .codec import DecodeServer, FrameType, GopWalker, encoded_size, encoded_sizes, nominal_sizes
from .core import (
    ColorSpace,
    EventQueue,
    Rng,
    SimTime,
    frame_ticks,
    raw_frame_bytes,
    tick_time,
)
from .report import FrameRecord, MetricsReport, build_distributions
from .scenario import EncodeMode, ScenarioConfig, ScenarioError, to_flat_dict, with_toggle
from .stages import (
    DatapathGraph,
    OptimizationToggles,
    TOGGLE_NAMES,
    build_datapath,
    ledger_frame_copies,
)

# the FrameRecord fields that ``Simulator._metrics`` reads, as columns
_COLUMNS = (
    "gen_us",
    "encoded_us",
    "net_us",
    "queue_wait_us",
    "presented_us",
    "size_bytes",
    "dropped",
    "corrupted",
)


def _column(records: list[FrameRecord], name: str) -> np.ndarray:
    values = list(map(attrgetter(name), records))
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # times past int64 on a link of a few bits per second
        return np.array(values, dtype=object)


class SimResult:
    """A run's report, datapath, optional event transcript and per-frame records.

    ``records`` comes in as the list of ``FrameRecord`` or, from an array
    run, as a dict of per-frame arrays keyed by ``FrameRecord`` field; the
    list is then built on the first read of ``records``.
    """

    def __init__(
        self,
        metrics: MetricsReport,
        records: Union[list[FrameRecord], dict[str, np.ndarray]],
        graph: DatapathGraph,
        transcript: Optional[list[tuple]] = None,
    ):
        self.metrics = metrics
        self.graph = graph
        self.transcript = transcript
        if isinstance(records, list):
            self.records = records
        else:
            self._frames = records

    @cached_property
    def records(self) -> list[FrameRecord]:
        frames = self._frames
        return list(map(FrameRecord, *(frames[f.name].tolist() for f in fields(FrameRecord))))


class Simulator:
    def __init__(self, cfg: ScenarioConfig, collect_transcript: bool = False):
        errors = cfg.validate()
        if errors:
            raise ScenarioError(errors)
        self.cfg = cfg
        self.graph = build_datapath(cfg.toggles, cfg.codec, cfg.channel)
        self.codec_cfg = self.graph.codec
        self.channel = self.graph.channel
        self.rng = Rng(cfg.seed)
        self.queue = EventQueue()
        self.link = netsim.LinkState()
        self.walker = GopWalker(self.codec_cfg)
        self.nominal_sizes = nominal_sizes(self.codec_cfg)
        self.reasm = dpp.Reassembler(cfg.drop_deadline_us)
        self.mud_fb = cp_mod.MudFeedbackState()
        self.host_fb = cp_mod.HostFeedbackState()
        self.decoder = DecodeServer(self.codec_cfg.decode_fps_cap, self.graph.mud_service_us)
        self.transcript: Optional[list[tuple]] = [] if collect_transcript else None

        self.records: list[FrameRecord] = []  # indexed by wire frame id
        # the event loop's render ticks: times and complexities, by tick index
        self._render_us: list[SimTime] = []
        self._complexity: list[float] = []
        self._latest_render = -1
        self._last_sampled = -1
        self._rendered = 0
        self._sync_overruns = 0

    # --- host side ---------------------------------------------------------

    def _encode_and_send(self, now: SimTime, index: int) -> None:
        """Encode render tick ``index``'s frame at ``now`` and put it on the air."""
        gen_time = self._render_us[index]
        g = self.graph
        force = self.host_fb.pending_force if self.cfg.toggles.feedback_control else False
        ftype, _, forced = self.walker.plan(force)
        encode_done = now + g.encode_path_us
        frame_id = len(self.records)
        size = encoded_size(ftype, self.codec_cfg, self._complexity[index], self.nominal_sizes)
        is_iframe = ftype is FrameType.I
        if is_iframe and self.cfg.toggles.feedback_control:
            cp_mod.host_on_iframe_emitted(
                self.host_fb, encode_done, self.cfg.suppression_window_us
            )

        rec = FrameRecord(
            frame_id=frame_id,
            frame_type=ftype.value,
            forced=forced,
            gen_us=gen_time,
            encoded_us=encode_done,
            size_bytes=size,
        )
        self.records.append(rec)

        wire_request = encode_done + g.host_netstack_us
        busy_before = self.link.busy_until
        rec.sent_first_us = wire_request if wire_request > busy_before else busy_before
        count, tail = dpp.fragment_layout(size)
        sent = self._transmit(frame_id, count, dpp.HEADER_LEN + tail, wire_request)
        if sent is not None:
            first, last, delivered = sent
            self.queue.schedule(
                last,
                ("burst", frame_id, first, last, delivered, count, is_iframe, forced, gen_time),
            )

    def _transmit(
        self, frame_id: int, count: int, tail_wire: int, request: SimTime
    ) -> Optional[tuple[SimTime, SimTime, int]]:
        """Put one frame's fragments on the air.

        Returns None if none arrives, else (first arrival, last arrival,
        fragments delivered).
        """
        if frame_id != self.cfg.fault_drop_frame_id:
            return netsim.transmit_frame(
                self.channel, self.link, count, dpp.MTU, tail_wire, request, self.rng
            )
        sizes = [dpp.MTU] * (count - 1) + [tail_wire]
        arrivals = netsim.transmit_burst(self.channel, self.link, sizes, request, self.rng)
        victim = self.cfg.fault_drop_frag_index
        if victim < 0:
            victim = int(self.rng.stream("fault").integers(0, count))
        if victim < count:
            arrivals[victim] = None
        return netsim.frame_arrivals(arrivals)

    def _sync_sends(self, index):
        """Whether SYNC encodes render tick ``index`` (an int or an int64 array).

        Decimates to the codec rate when rendering faster than it; at or
        below the codec rate every tick's codec slot differs from the next.
        """
        fps, render_fps = self.codec_cfg.fps, self.cfg.render_fps
        return index * fps // render_fps != (index + 1) * fps // render_fps

    def _sync_overrun(self, index, t):
        """Whether rendering plus encoding overruns the period of tick ``index`` at ``t``."""
        period = tick_time(index + 1, self.cfg.render_fps) - t
        return self.cfg.render_work_us + self.graph.encode_path_us > period

    def _handle_render(self, t: SimTime, index: int) -> None:
        if self.cfg.encode_mode is EncodeMode.SYNC:
            if self._sync_sends(index):
                self._encode_and_send(t, index)
                if self._sync_overrun(index, t):
                    self._sync_overruns += 1
        else:
            self._latest_render = index

    def _handle_sample(self, t: SimTime) -> None:
        index = self._latest_render
        if index == self._last_sampled:
            return
        self._last_sampled = index
        self._encode_and_send(t, index)

    def _handle_cp(self, t: SimTime, msg: cp_mod.CpMessage) -> None:
        if not self.cfg.toggles.feedback_control:
            return
        cp_mod.host_on_request(self.host_fb, msg, t)

    # --- receiver side -----------------------------------------------------

    def _send_cp(self, msg: cp_mod.CpMessage, t: SimTime) -> None:
        arrival = netsim.transmit(self.channel, self.link, msg.wire_size(), t, self.rng)
        if arrival is not None:
            self.queue.schedule(arrival, ("cp", msg))

    def _on_reassembly(self, ev, t: SimTime) -> None:
        rec = self.records[ev.frame_id]
        if isinstance(ev, dpp.FrameComplete):
            net_done = ev.last_arrival + self.graph.link_fixed_us
            rec.arrived_last_us = ev.last_arrival
            rec.net_us = net_done - (rec.encoded_us + self.graph.host_netstack_us)
            start, wait = self.decoder.offer(net_done)
            rec.queue_wait_us = wait
            rec.decode_start_us = start
            rec.presented_us = start + self.graph.mud_service_us + self.graph.residual_us
        else:
            rec.dropped = True
        if self.cfg.toggles.feedback_control:
            for msg in cp_mod.mud_on_frame_event(self.mud_fb, ev, t):
                self._send_cp(msg, t)

    def _schedule_deadlines(self) -> None:
        for fid, deadline in self.reasm.pending_deadlines():
            self.queue.schedule(deadline + 1, ("deadline", fid))

    def _handle_burst(self, t: SimTime, event: tuple) -> None:
        _, wire_id, first, last, delivered, *frame = event
        for ev in self.reasm.on_frame(first, last, delivered, wire_id, *frame):
            self._on_reassembly(ev, t)
        self._schedule_deadlines()

    def _handle_deadline(self, t: SimTime) -> None:
        for ev in self.reasm.expire(t):
            self._on_reassembly(ev, t)
        self._schedule_deadlines()

    # --- run ---------------------------------------------------------------

    def _dispatch(self, t: SimTime, event: tuple) -> None:
        kind = event[0]
        if self.transcript is not None:
            self.transcript.append((t, kind, event[1] if len(event) > 1 else None))
        if kind == "render":
            self._handle_render(t, event[1])
        elif kind == "sample":
            self._handle_sample(t)
        elif kind == "burst":
            self._handle_burst(t, event)
        elif kind == "deadline":
            self._handle_deadline(t)
        elif kind == "cp":
            self._handle_cp(t, event[1])

    def run(self) -> SimResult:
        """Simulate the scenario: as arrays when the run is draw-free, else event by event."""
        if self._draw_free():
            result = self._run_arrays()
            if result is not None:
                return result
        return self._run_events()

    def _draw_free(self) -> bool:
        """Whether the array run applies: no random number is drawn on the
        channel or for a fault, and no event transcript is wanted."""
        return (
            netsim.draw_free(self.channel)
            and self.cfg.fault_drop_frame_id < 0
            and self.transcript is None
        )

    def _run_events(self) -> SimResult:
        cfg = self.cfg
        self._render_us = frame_ticks(cfg.render_fps, cfg.duration_us).tolist()
        self._rendered = len(self._render_us)
        sigma = cfg.workload.complexity_sigma
        self._complexity = self.rng.lognormal_complexity(sigma, self._rendered).tolist()
        ticks = [(t, ("render", i)) for i, t in enumerate(self._render_us)]
        if cfg.encode_mode is EncodeMode.ASYNC:
            samples = frame_ticks(self.codec_cfg.fps, cfg.duration_us).tolist()
            ticks += [(t, ("sample", i)) for i, t in enumerate(samples)]
            ticks.sort(key=itemgetter(0))  # stable: on a tie the render goes first
        self.queue.run(self._dispatch, ticks)
        self._mark_corruption()
        columns = {name: _column(self.records, name) for name in _COLUMNS}
        return SimResult(self._metrics(columns), self.records, self.graph, self.transcript)

    def _run_arrays(self) -> Optional[SimResult]:
        """The whole draw-free run as numpy arrays; None, with nothing drawn or
        changed, when a precondition fails and the event loop must run it.

        Every frame arrives whole, so the receiver never drops one and no
        feedback is sent: each frame is I exactly on its GOP schedule. The
        decoder admits the run in one pass (``DecodeServer.offer_run``) unless
        its token bucket makes some frame wait; then it takes frame by frame.
        The result holds the per-frame arrays, from which ``SimResult``
        builds the ``FrameRecord`` list only when it is read.
        """
        cfg, g = self.cfg, self.graph
        render = frame_ticks(cfg.render_fps, cfg.duration_us)
        workload = self.rng.stream("workload").bit_generator
        drawn_from = workload.state
        complexity = self.rng.lognormal_complexity(cfg.workload.complexity_sigma, len(render))
        if cfg.encode_mode is EncodeMode.SYNC:
            source = np.flatnonzero(self._sync_sends(np.arange(len(render))))
            send = render[source]
        else:
            # the latest render at or before each sample; on a tie the render runs first
            samples = frame_ticks(self.codec_cfg.fps, cfg.duration_us)
            latest = np.searchsorted(render, samples, side="right") - 1
            fresh = np.diff(latest, prepend=-1) > 0
            source, send = latest[fresh], samples[fresh]
        is_iframe = np.arange(len(source)) % self.codec_cfg.gop_size == 0
        sizes = encoded_sizes(is_iframe, self.codec_cfg, complexity[source], self.nominal_sizes)
        sent = None
        if sizes is not None:
            count, tail = dpp.unchecked_layout(sizes)
            if not len(count) or count.max() <= dpp.MAX_FRAGS:
                encoded = send + g.encode_path_us
                request = encoded + g.host_netstack_us
                sent = netsim.clean_run(self.channel, self.link, count, dpp.HEADER_LEN + tail, request)
        if sent is None:
            workload.state = drawn_from
            return None
        start, _first, last = sent

        net_done = last + g.link_fixed_us
        decode_start = self.decoder.offer_run(net_done)
        if decode_start is None:  # the decoder's token bucket makes some frame wait
            offer = self.decoder.offer
            decode_start = np.array([offer(t)[0] for t in net_done.tolist()], dtype=np.int64)
        n = len(sizes)
        zeros = np.zeros(n, dtype=bool)
        frames = {
            "frame_id": np.arange(n),
            "frame_type": np.where(is_iframe, FrameType.I.value, FrameType.P.value),
            "forced": zeros,
            "gen_us": render[source],
            "encoded_us": encoded,
            "sent_first_us": start,
            "arrived_last_us": last,
            "decode_start_us": decode_start,
            "presented_us": decode_start + g.mud_service_us + g.residual_us,
            "dropped": zeros,
            "corrupted": zeros,
            "size_bytes": sizes,
            "queue_wait_us": decode_start - net_done,
            "net_us": net_done - request,
        }
        self._rendered = len(render)
        if cfg.encode_mode is EncodeMode.SYNC:
            self._sync_overruns = int(self._sync_overrun(source, send).sum())
        return SimResult(self._metrics(frames), frames, self.graph, self.transcript)

    def _mark_corruption(self) -> None:
        broken = False
        for rec in self.records:
            if rec.dropped:
                broken = True
            elif rec.presented_us >= 0:
                if rec.frame_type == "I":
                    broken = False
                elif broken:
                    rec.corrupted = True

    def _metrics(self, col: dict[str, np.ndarray]) -> MetricsReport:
        """The run's report from its per-frame ``_COLUMNS``, one array each."""
        cfg = self.cfg
        g = self.graph
        shown = col["presented_us"] >= 0
        n_presented = int(shown.sum())
        dropped = int(col["dropped"].sum())
        corrupted = int(col["corrupted"][shown].sum())
        unresolved = int(((col["dropped"] == 0) & ~shown).sum())

        gen = col["gen_us"][shown]
        per_stage = {
            "sampler-wait": col["encoded_us"][shown] - g.encode_path_us - gen,
            "encode-path": g.encode_path_us,
            "host-netstack": g.host_netstack_us,
            "network": col["net_us"][shown],
            "decode-wait": col["queue_wait_us"][shown],
            "mud": g.mud_service_us,
            "presentation": g.residual_us,
        }
        if not per_stage["sampler-wait"].any():
            del per_stage["sampler-wait"]
        if g.residual_us == 0:
            del per_stage["presentation"]

        stages, e2e_dist = build_distributions(per_stage, col["presented_us"][shown] - gen)
        sent_bytes = int(col["size_bytes"].sum())
        sent = len(col["size_bytes"])
        duration_s = cfg.duration_s
        mech_sent = self.link.sent_packets
        network = {
            "link_utilization": round(
                netsim.link_occupancy(self.link, cfg.duration_us), 6
            ),
            "sent_packets": mech_sent,
            "lost_packets": self.link.lost_packets,
            "fragment_loss_rate": round(self.link.lost_packets / mech_sent, 6)
            if mech_sent
            else 0.0,
            "encoded_throughput_bps": round(sent_bytes * 8 / duration_s, 2),
            "link_fixed_us_per_frame": g.link_fixed_us,
        }
        width, height = cfg.workload.width, cfg.workload.height
        raw_copy_per_frame = ledger_frame_copies(
            g,
            raw_frame_bytes(width, height, ColorSpace.RGB),
            raw_frame_bytes(width, height, ColorSpace.YUV420),
            0,
        ).total_bytes()
        encoded_copy_total = ledger_frame_copies(g, 0, 0, sent_bytes).total_bytes()
        copies = {
            "host_netstack_copies_per_frame": g.host_netstack_copies,
            "raw_copy_bytes_per_frame": raw_copy_per_frame,
            "encoded_copy_bytes_total": encoded_copy_total,
            "host_copied_bytes_total": encoded_copy_total
            + raw_copy_per_frame * sent,
        }
        frames = {
            "rendered": self._rendered,
            "sent": sent,
            "presented": n_presented,
            "dropped": dropped,
            "corrupted": corrupted,
            "forced_i": self.host_fb.forced_count,
            "sampler_skipped": max(0, self._rendered - sent)
            if cfg.encode_mode is EncodeMode.ASYNC
            else 0,
            "dropped_rate": round(dropped / sent, 6) if sent else 0.0,
            "corrupted_rate": round(corrupted / n_presented, 6) if n_presented else 0.0,
        }
        feedback = {
            "iframe_requests_sent": self.mud_fb.requests_sent,
            "requests_suppressed": self.host_fb.suppressed_count,
            "forced_iframes": self.host_fb.forced_count,
        }
        sync = None
        if cfg.encode_mode is EncodeMode.SYNC:
            # every encode task takes the datapath's encode-path time
            mean_task = g.encode_path_us if sent else 0.0
            sync = {
                "task_time_mean_ms": round(mean_task / 1000.0, 4),
                "render_work_ms": round(cfg.render_work_us / 1000.0, 4),
                "tick_overruns": self._sync_overruns,
            }
        return MetricsReport(
            seed=cfg.seed,
            duration_s=duration_s,
            config=to_flat_dict(cfg),
            frames=frames,
            end_to_end=e2e_dist,
            stages=stages,
            network=network,
            copies=copies,
            feedback=feedback,
            sync=sync,
            unresolved_frames=unresolved,
        )


def run_scenario(cfg: ScenarioConfig, collect_transcript: bool = False) -> SimResult:
    return Simulator(cfg, collect_transcript=collect_transcript).run()


def ab_compare(cfg: ScenarioConfig, toggle: str) -> dict[str, Any]:
    """Mean end-to-end saving from enabling one optimization, same seed."""
    off = run_scenario(with_toggle(cfg, toggle, False)).metrics
    on = run_scenario(with_toggle(cfg, toggle, True)).metrics
    stage_deltas = {}
    for name in set(off.stages) | set(on.stages):
        before = off.stages.get(name, {}).get("mean_ms", 0.0)
        after = on.stages.get(name, {}).get("mean_ms", 0.0)
        stage_deltas[name] = round(before - after, 4)
    return {
        "toggle": toggle,
        "off_mean_ms": off.end_to_end["mean_ms"],
        "on_mean_ms": on.end_to_end["mean_ms"],
        "delta_ms": round(off.end_to_end["mean_ms"] - on.end_to_end["mean_ms"], 4),
        "stage_deltas_ms": {k: stage_deltas[k] for k in sorted(stage_deltas)},
    }


def ab_suite(base: ScenarioConfig) -> dict[str, Any]:
    """Every toggle measured one-at-a-time from ``base`` plus the residual.

    The p2p delta is taken both against the base color space and with
    transcoding avoidance active (RGB); the interaction residual follows the
    cumulative-measurement convention, so it uses the RGB p2p delta.
    """
    all_off = base
    results = {name: ab_compare(all_off, name) for name in TOGGLE_NAMES}
    rgb_base = with_toggle(all_off, "transcode_avoidance", True)
    p2p_rgb = ab_compare(rgb_base, "p2p_topology")
    baseline_mean = run_scenario(all_off).metrics.end_to_end["mean_ms"]
    all_on = replace(all_off, toggles=OptimizationToggles.all_on())
    all_on_mean = run_scenario(all_on).metrics.end_to_end["mean_ms"]
    delta_sum = sum(
        (p2p_rgb if name == "p2p_topology" else results[name])["delta_ms"] for name in TOGGLE_NAMES
    )
    residual = round(abs(baseline_mean - delta_sum - all_on_mean), 4)
    return {
        "baseline_mean_ms": baseline_mean,
        "all_on_mean_ms": all_on_mean,
        "deltas": results,
        "p2p_topology_rgb": p2p_rgb,
        "interaction_residual_ms": residual,
    }
