"""End-to-end frame lifecycle simulation and A/B comparison.

One simulated frame flows: render tick -> encode (GOP plan + sizing) ->
host network stack -> fragment burst on the air -> reassembly at the
receiver -> rate-capped decode -> presentation. Dropped-frame feedback runs
against the same clock over the same (shared) medium.

Every run shares one prefix and one tail; only its middle is computed in
one of two ways, with the same result:

  * The prefix (``Simulator._grid``): the send grid, that is the render
    ticks, their complexities as one batched draw, which tick of the
    encoder's clock (each render tick in SYNC, each sample tick in ASYNC)
    sends a frame and which render tick each frame encodes. It fixes the
    frame count and each frame's ``gen_us`` and ``encoded_us``.
    ``scenario.send_grid`` computes it once per (seed, clocks), for
    validation, and caches the last one, read-only, so the run that follows
    and consecutive runs that differ in nothing else share it; each run
    restores the workload stream to where the draw left it.
  * The event loop (``Simulator._run_events``), the general middle, one
    method on locals: burst, deadline and feedback events on one heap
    (``EventQueue``), with the ticks that send a frame merged in lazily by
    the loop itself. A tick goes before a heap event at its time, as when
    every tick was scheduled up front. A frame's size and fragment layout
    come from two whole-run arrays, one per frame type; its burst is drawn,
    then timed (``netsim.Medium.frame``, inline on P2P without jitter, lossy
    or not). The receiver, the MUD's and the host's feedback state and the
    columns that the loop fills are locals; its burst handling, drop sweep
    and request send are nested functions over them; cp's four rules run
    inline, and the feedback states are written back once, at the end. Each
    column is one Python list, made an array once at the end.

    The receiver (the loop's ``burst``) keeps no stream buffer: it
    presents a frame that arrived whole and drops any other at its deadline.
    Every frame goes on the air once, the final hop is FIFO and a tie
    dispatches in scheduling order, so bursts reach it in frame-id order and
    a pending frame never completes. It keeps the newest frame id that
    delivered a fragment and the pending frames' (id, deadline anchor) in id
    order, with anchors that never decrease: a partial frame's is its first
    arrival, and the frames that a burst skips (at most ``dpp.GAP_LIMIT``
    ids past the newest; none before the first arrival) take that burst's.
    So the frames past their deadline are a prefix: a burst drops it at its
    first arrival, then presents its frame or makes it pending, and a
    deadline event, one per newly pending frame, drops it at its own time.
    A frame that no later burst follows stays unresolved. The heap keeps
    only what can interleave:

      - A burst whose last arrival comes strictly before the next tick that
        sends and strictly before every heap event is the loop's next
        dispatch, so its own tick handles it, as its last step.
      - An I-frame request that reaches the host strictly before the next
        tick that sends is decided when it is sent, though the medium still
        times it then. Only an encode reads or writes ``HostFeedbackState``;
        a request sets ``pending_force`` or counts a suppression against a
        ``suppression_until`` that only an encode moves, so the decisions
        between two encodes commute with each other and with every other
        event.

    Deadlines, and bursts and requests that are not next, stay on the heap.
  * The array run (``Simulator._run_arrays``), for a draw-free run:
    Bernoulli loss at ``loss_p == 0``, no jitter and no fault frame. No
    frame drops, no feedback is sent and every frame follows the GOP
    schedule; sizes, fragment layouts, the link (``netsim.clean_run``) and
    the decoder's token bucket (``DecodeServer.offer_run``) are whole-run
    arrays, with no Python step per frame unless the bucket makes some frame
    wait. They depend on the send grid, codec and channel, not on the
    datapath's stage constants, which only shift every time by the same
    amount: ``array_timing`` computes them once, from a fresh link and
    decoder at the clock ticks, and shares them read-only. The sizes,
    layouts and frame types, their total and whether any frame waits for
    the sampler depend on the grid and codec alone, so a color space's two
    topologies share them (``_layout``): an A/B suite lays out each of its
    two color spaces once, times each of its four (color space, topology)
    cells once, and each run adds its own constants. With them a cell keeps
    what every run's report takes as it is: the network stage sorted once,
    with its distribution, the one value of the decode wait, and per frame
    the decode start minus the render time, when no frame waits for the
    sampler and the decode wait has one value.
    A run's config alone picks its middle (``Simulator._draw_free``): no
    array step can decline.
  * The tail: the event loop's decode step (``Simulator._decode``; an array
    run's comes with its timing), corruption, one array step run only when
    some frame dropped, then the report (``Simulator._result``). The MUD
    decodes a frame once it is whole, so nothing in the loop reads the
    decoder: after it, one fresh ``DecodeServer.offer_run`` admits the frames
    in the order they completed, each at its last arrival plus
    ``link_fixed_us``. ``SimResult.frames`` is the frame table, one array per
    ``FrameRecord`` field; ``SimResult.records`` is its read view, built when
    first read. The report sorts only the stages that vary
    (``report.build_distributions``) and formats its config when first read; a
    run shares its datapath (``stages.shared_datapath``) and builds the event
    loop's state only when the event loop runs. An array run whose timing
    keeps its report's stages reads its report off its cell and its own
    constants alone, and builds its frame table only when ``frames`` or
    ``records`` is first read. It sorts nothing and counts nothing: every
    frame is presented, the network stage is the timing's, and end-to-end,
    the sum of the stages on every frame, reads its percentiles off the
    network's order plus the run's constant stages. Only its mean, whose
    float sum depends on those constants, is a pass over values: the cell's
    decode start minus render time plus one int, exact in int64. When some
    frame waits for the sampler, the decode wait varies or the network does
    not, the run builds its table first and the report takes the general
    path, as the event loop's does. A SYNC report counts its tick overruns
    off the grid's sorted render periods.

``tests/test_array_run.py`` keeps the event loop as the array run's
reference (and the general report path as that of a report from the timing's
stages), ``tests/test_event_loop.py`` the loop with one method per step
(``tests/method_run.py``, from which the references below derive) as the
event loop's, ``tests/test_tick_merge.py`` the eager tick schedule as the
lazy merge's, ``tests/test_inline_events.py`` the run that heaps every event
(``tests/transcript_run.py``) as the inline cases',
``tests/test_in_order_receiver.py`` the run whose receiver is a
``dpp.Reassembler`` (``tests/reassembler_run.py``) as the receiver's,
``tests/test_decode_tail.py`` the decoder inside the loop as the decode
step's, and ``tests/test_pipeline.py`` the per-frame corruption loop as the
array step's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields, replace
from functools import cached_property, lru_cache, partial
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from . import cp as cp_mod
from . import dpp, netsim, scenario
from .codec import (
    CodecConfig,
    DecodeServer,
    FrameType,
    GopWalker,
    encoded_sizes,
    nominal_sizes,
)
from .core import (
    ColorSpace,
    EventQueue,
    Rng,
    SchedulingError,
    SimTime,
    raw_frame_bytes,
)
from .report import FrameRecord, KnownStage, MetricsReport, build_distributions, known_stage
from .scenario import EncodeMode, ScenarioConfig, config_values, validated, with_toggle
from .stages import (
    DatapathGraph,
    OptimizationToggles,
    TOGGLE_NAMES,
    channel_values,
    codec_values,
    ledger_frame_copies,
    shared_datapath,
)


# the frame-table columns that the event loop fills: a frame's encode, then its receiver
_LOOP_COLUMNS = (
    "frame_type", "forced", "size_bytes", "sent_first_us", "arrived_last_us", "dropped"
)
# the heap's deadline and I-frame request events; a burst is the tuple of its values
_DEADLINE, _REQUEST = ("deadline",), ("cp",)


def _corrupted(frames: dict[str, np.ndarray]) -> np.ndarray:
    """The presented P-frames decoded against a lost reference: the latest
    drop at or before such a frame comes after the latest presented I-frame
    at or before it."""
    dropped = frames["dropped"]
    index = np.arange(len(dropped))
    presented = frames["presented_us"] >= 0
    is_iframe = frames["frame_type"] == FrameType.I.value
    last_drop = np.maximum.accumulate(np.where(dropped, index, -1))
    last_i = np.maximum.accumulate(np.where(presented & is_iframe, index, -1))
    return presented & ~is_iframe & (last_drop > last_i)


class Layout(NamedTuple):
    """What a send grid and a codec fix for both topologies (``_layout``):
    per frame its type on the GOP schedule, its size, fragment count and tail
    datagram bytes; the total of the sizes, and whether every frame is sent
    at its render time (clock tick equals render time), so that no frame
    waits for the sampler. Frame 0 is sent at clock tick 0 and encodes render
    0, so a sampler wait that takes one value is 0."""

    frame_type: np.ndarray
    size_bytes: np.ndarray
    count: np.ndarray
    tail_wire: np.ndarray
    sent_bytes: int
    no_sampler_wait: bool


class ArrayTiming(NamedTuple):
    """A draw-free run's link and decoder timing, shifted by no datapath
    constant (``array_timing``): per frame its type and size (its color
    space's ``Layout``, shared by both topologies), its burst's start and
    last arrival, ``net`` (last arrival minus send tick), its decode start
    and ``queue_wait`` (decode start minus last arrival); the link's totals;
    and what every run's report takes from it as it is.

    ``stages`` is the report's network stage (``net`` plus the datapath's
    ``link_fixed_us``) sorted once with its distribution, its decode-wait as
    its one value, and per frame its decode start minus its render time,
    which end-to-end is plus the run's constants; None when some frame waits
    for the sampler, the decode wait varies or the network stage does not
    (``report.known_stage``). A run whose cell has ``stages`` reads its report
    from them and builds its frame table only when it is read.
    """

    frame_type: np.ndarray
    size_bytes: np.ndarray
    start: np.ndarray
    last: np.ndarray
    net: np.ndarray
    decode_start: np.ndarray
    queue_wait: np.ndarray
    totals: tuple[int, int, int]  # the link's busy_accum_us, sent_packets, sent_bytes
    # network, decode-wait, decode start minus render time
    stages: Optional[tuple[KnownStage, int, np.ndarray]]
    sent_bytes: int


def array_timing(cfg: ScenarioConfig, graph: DatapathGraph) -> ArrayTiming:
    """The array timing of ``cfg``'s send grid on a datapath's codec and
    draw-free channel (its toggles applied), computed once for their values
    and shared read-only by every run whose values agree."""
    return _timing(
        cfg.seed,
        cfg.workload.complexity_sigma,
        cfg.render_fps,
        cfg.duration_us,
        cfg.encode_mode,
        graph.link_fixed_us,  # a function of the codec and the channel
        *codec_values(graph.codec),
        *channel_values(graph.channel),
    )


def _single_value(values: np.ndarray) -> Optional[int]:
    """The one value that every element of a non-empty int array takes, or None."""
    lo = int(values.min())
    return lo if lo == int(values.max()) else None


def _frame_layout(is_iframe, codec: CodecConfig, complexity: np.ndarray, nominal):
    """Each frame's size, fragment count and tail datagram bytes, as int64
    arrays, as ``encoded_size`` and ``fragment_layout`` give them for its
    type (``is_iframe``, per frame or one for all) and complexity."""
    sizes = encoded_sizes(is_iframe, codec, complexity, nominal)
    count, tail = dpp.unchecked_layout(sizes)
    return sizes, count, dpp.HEADER_LEN + tail


# typed: 1, 1.0 and True differ; 2 holds an A/B suite's two color spaces
@lru_cache(maxsize=2, typed=True)
def _layout(seed, complexity_sigma, render_fps, duration_us, mode, *codec_values) -> Layout:
    """The grid's frames on the GOP schedule, laid out by the codec."""
    codec = CodecConfig(*codec_values)
    grid, _ = scenario.send_grid(seed, complexity_sigma, render_fps, codec.fps, duration_us, mode)
    is_iframe = np.zeros(len(grid.tick), dtype=bool)
    is_iframe[:: codec.gop_size] = True
    sizes, count, tail_wire = _frame_layout(is_iframe, codec, grid.complexity, nominal_sizes(codec))
    frame_type = np.where(is_iframe, FrameType.I.value, FrameType.P.value)
    for array in (frame_type, sizes, count, tail_wire):
        array.flags.writeable = False
    no_wait = bool((grid.tick == grid.gen).all())
    return Layout(frame_type, sizes, count, tail_wire, int(sizes.sum()), no_wait)


# typed: 1, 1.0 and True differ; 4 holds an A/B suite's (color space, topology) cells
@lru_cache(maxsize=4, typed=True)
def _timing(seed, complexity_sigma, render_fps, duration_us, mode, link_fixed_us, *values):
    """A fresh link and decoder timing the grid's frames sent at their clock
    ticks; the frames follow the GOP schedule."""
    codec_at = len(fields(CodecConfig))
    codec = CodecConfig(*values[:codec_at])
    channel = netsim.ChannelModel(*values[codec_at:])
    grid, _ = scenario.send_grid(seed, complexity_sigma, render_fps, codec.fps, duration_us, mode)
    layout = _layout(seed, complexity_sigma, render_fps, duration_us, mode, *values[:codec_at])
    link = netsim.LinkState()
    start, last = netsim.clean_run(channel, link, layout.count, layout.tail_wire, grid.tick)
    decode_start = DecodeServer(codec.decode_fps_cap).offer_run(last)
    columns = dict(
        start=start,
        last=last,
        net=last - grid.tick,
        decode_start=decode_start,
        queue_wait=decode_start - last,
    )
    for array in columns.values():
        array.flags.writeable = False
    stages = None
    network = known_stage(columns["net"], link_fixed_us)
    if network is not None and layout.no_sampler_wait:
        decode_wait = _single_value(columns["queue_wait"])
        if decode_wait is not None:
            to_decode = decode_start - grid.gen
            to_decode.flags.writeable = False
            stages = network, decode_wait, to_decode
    return ArrayTiming(
        frame_type=layout.frame_type,
        size_bytes=layout.size_bytes,
        **columns,
        totals=(link.busy_accum_us, link.sent_packets, link.sent_bytes),
        stages=stages,
        sent_bytes=layout.sent_bytes,
    )


class SimResult:
    """A run's report, datapath and frame table.

    ``frames`` holds one array per ``FrameRecord`` field, indexed by frame
    id; ``records`` is its read view as ``FrameRecord``s, built when first
    read. An array run whose timing keeps its report's stages builds
    ``frames`` itself when it is first read, and every other run before its
    report. The columns that an array run takes as they are from a cache
    (``send_grid``, ``array_timing``) are read-only.
    """

    def __init__(
        self,
        metrics: MetricsReport,
        frames: Union[dict[str, np.ndarray], Callable[[], dict[str, np.ndarray]]],
        graph: DatapathGraph,
    ):
        """``frames`` is the frame table, or the function that builds it."""
        self.metrics = metrics
        self.graph = graph
        if callable(frames):
            self._build_frames = frames
        else:
            self.frames = frames  # the instance's own, so the property never runs

    @cached_property
    def frames(self) -> dict[str, np.ndarray]:
        return self._build_frames()

    @cached_property
    def records(self) -> list[FrameRecord]:
        frames = self.frames
        return list(map(FrameRecord, *(frames[f.name].tolist() for f in fields(FrameRecord))))


class Simulator:
    # an array run sends no feedback and reports these; the event loop builds its own
    mud_fb, host_fb = cp_mod.MudFeedbackState(), cp_mod.HostFeedbackState()

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = validated(cfg)
        self.graph = shared_datapath(cfg.toggles, cfg.codec, cfg.channel)
        self.codec_cfg = self.graph.codec
        self.channel = self.graph.channel
        self.rng = Rng(cfg.seed)
        self.link = netsim.LinkState()

    @cached_property
    def queue(self) -> EventQueue:  # built on first use, as the event loop's other state
        return EventQueue()

    # --- the prefix --------------------------------------------------------

    @cached_property
    def _grid(self) -> scenario.SendGrid:
        """The send grid (``send_grid``) of this run's seed and clocks, with
        the workload stream left where the grid's batched draw leaves it."""
        cfg = self.cfg
        grid, workload = scenario.send_grid(
            cfg.seed,
            cfg.workload.complexity_sigma,
            cfg.render_fps,
            self.codec_cfg.fps,
            cfg.duration_us,
            cfg.encode_mode,
        )
        self.rng.restore("workload", workload)
        return grid

    def _frames(self) -> dict[str, np.ndarray]:
        """The frame table's columns that the send grid fixes."""
        grid = self._grid
        return {
            "frame_id": grid.frame_id,
            "gen_us": grid.gen,
            "encoded_us": grid.tick + self.graph.encode_path_us,
        }

    @property
    def _rendered(self) -> int:
        return len(self._grid.render)

    # --- the event loop ----------------------------------------------------

    def run(self) -> SimResult:
        """Simulate the scenario: as arrays when the run is draw-free, else event by event."""
        return self._run_arrays() if self._draw_free() else self._run_events()

    def _draw_free(self) -> bool:
        """Whether the array run applies: no random number is drawn on the
        channel or for a fault."""
        return netsim.draw_free(self.channel) and self.cfg.fault_drop_frame_id < 0

    def _run_events(self) -> SimResult:
        """The event loop. It merges the send ticks with the heap itself; a
        tick goes before a heap event at its time. At each tick it encodes
        the frame, puts it on the air, and runs the receiver on its burst or
        heaps it. The receiver and both feedback states are locals, written
        to ``mud_fb`` and ``host_fb`` at the end; cp's rules run inline."""
        cfg, g, grid = self.cfg, self.graph, self._grid
        n = len(grid.tick)
        plan = GopWalker(self.codec_cfg).plan
        transmit, medium_frame, link = self._transmit, self._medium.frame, self.link
        queue = self.queue
        heap, schedule, pop = queue._heap, queue.schedule, queue.pop
        # the columns that the loop fills, one list each; frame_type and
        # forced have no default: each frame's encode sets them
        defaults = {f.name: f.default for f in fields(FrameRecord)}
        self._table = {name: [defaults[name]] * n for name in _LOOP_COLUMNS}
        type_col, forced_col, size_col, sent_col, arrived_col, dropped_col = self._table.values()
        done = self._done = []  # the completed frames, in the order they completed
        # per frame type (P, then I), the frames' sizes, fragment counts and tail datagram bytes
        nominal, complexity = nominal_sizes(self.codec_cfg), grid.complexity
        layouts = [
            [column.tolist() for column in _frame_layout(i, self.codec_cfg, complexity, nominal)]
            for i in (False, True)
        ]
        send_at = grid.tick.tolist() + [float("inf")]  # each frame's send tick, then the end
        feedback, deadline_us = cfg.toggles.feedback_control, cfg.drop_deadline_us
        encode_path, to_wire = g.encode_path_us, g.encode_path_us + g.host_netstack_us
        window, wire_bytes, gap_limit, iframe = (
            cfg.suppression_window_us, cp_mod.WIRE_BYTES, dpp.GAP_LIMIT, FrameType.I
        )
        # the receiver: the pending frames' (id, deadline anchor), in id
        # order, and the newest frame id that delivered a fragment
        pending: deque[tuple[int, SimTime]] = deque()
        newest: Optional[int] = None
        # the MUD's feedback state (``MudFeedbackState``), then the host's
        recovery, dropped_id, last_received, requests_sent = False, 0, 0, 0
        suppression_until, pending_force, suppressed, forced_count = 0, False, 0, 0
        next_tick = send_at[0]

        def request(t: SimTime) -> None:
            """Send an I-frame request at ``t``, a one-packet frame. Only an
            encode reads or writes the host's feedback state, and none comes
            before the next tick that sends: one that arrives before then is
            decided now (``host_on_request``, as a heap request below)."""
            nonlocal pending_force, suppressed
            sent = medium_frame(1, wire_bytes, t)
            if sent is not None:
                arrival = sent[0]
                if arrival >= next_tick:
                    schedule(arrival, _REQUEST)
                elif arrival >= suppression_until:  # boundary inclusive
                    pending_force = True
                else:
                    suppressed += 1

        def drop_expired(now: SimTime, t: SimTime) -> None:
            """Drop the pending frames whose deadline has passed at ``now``, a
            prefix of the queue, each with ``mud_on_drop``'s request at ``t``."""
            nonlocal recovery, dropped_id, requests_sent
            horizon = now - deadline_us
            while pending and pending[0][1] < horizon:
                k = pending.popleft()[0]
                dropped_col[k] = True
                if feedback:
                    recovery, dropped_id, requests_sent = True, k, requests_sent + 1
                    request(t)

        def burst(t, k, first, last, delivered, count, is_iframe) -> None:
            """Present a whole frame or make a partial one pending, after the
            pending frames past their deadline at the burst's first arrival
            drop; the frames that the burst skips turn pending too."""
            nonlocal newest, recovery, last_received, requests_sent
            if pending:
                drop_expired(first, t)
            whole = delivered == count
            if whole:
                arrived_col[k] = last
                done.append(k)  # the decode step admits it (``_decode``)
                if feedback:  # ``mud_on_complete``
                    last_received = k
                    if is_iframe:
                        recovery = False
                    elif recovery:
                        requests_sent += 1
                        request(t)
            previous, newest = newest, k
            skips = previous is not None and 1 < k - previous <= gap_limit
            if whole and not skips:
                return
            fresh = range(previous + 1 if skips else k, k if whole else k + 1)
            pending.extend((fid, first) for fid in fresh)
            # a deadline inside the frame's own burst drops it after the burst
            at = max(first + deadline_us + 1, t)
            for _ in fresh:
                schedule(at, _DEADLINE)

        for k, t in enumerate(send_at):
            while heap and heap[0][0] < t:
                now, event = pop()
                if event is _DEADLINE:
                    drop_expired(now, now)
                elif event is not _REQUEST:
                    burst(now, *event)
                elif now >= suppression_until:  # a request: ``host_on_request``
                    pending_force = True
                else:
                    suppressed += 1
            if k == n:
                break
            if t < queue.now:
                raise SchedulingError(f"tick at t={t} before now={queue.now}")
            queue.now = t
            next_tick = send_at[k + 1]
            ftype, forced = plan(pending_force)
            if forced:  # ``host_on_iframe_emitted``, at the frame's ``encoded_us``
                pending_force, forced_count = False, forced_count + 1
                suppression_until = t + encode_path + window
            is_iframe = ftype is iframe
            sizes, counts, tails = layouts[is_iframe]
            size, count, tail_wire = sizes[k], counts[k], tails[k]
            type_col[k] = is_iframe  # made "I" or "P" at the end of the run
            forced_col[k] = forced
            size_col[k] = size
            wire_request, busy = t + to_wire, link.busy_until
            sent_col[k] = wire_request if wire_request > busy else busy
            sent = transmit(k, count, tail_wire, wire_request)
            if sent is not None:
                first, last, delivered = sent
                if last < next_tick and (not heap or last < heap[0][0]):
                    # the loop's next dispatch: no tick and no heap event
                    # comes first. Its time becomes the queue's, as its pop would make it
                    queue.now = last
                    burst(last, k, first, last, delivered, count, is_iframe)
                else:
                    schedule(last, (k, first, last, delivered, count, is_iframe))
        mode = cp_mod.MudMode.RECOVERY if recovery else cp_mod.MudMode.NORMAL
        self.mud_fb = cp_mod.MudFeedbackState(mode, dropped_id, last_received, requests_sent)
        self.host_fb = cp_mod.HostFeedbackState(
            suppression_until, pending_force, suppressed, forced_count
        )
        return self._loop_result()

    def _loop_result(self) -> SimResult:
        """The result of the event loop's columns (``_table``) and the grid's."""
        n = len(self._grid.tick)
        # each column typed as its values, int when there are none; validation
        # keeps every time in int64. The decode step's start at their defaults
        filled = self._frames()
        for name, values in self._table.items():
            filled[name] = np.array(values, dtype=type(values[0]) if n else int)
        frames = {
            name: filled[name] if name in filled else np.full(n, d, dtype=type(d) if n else int)
            for name, d in ((f.name, f.default) for f in fields(FrameRecord))
        }
        frames["frame_type"] = np.where(frames["frame_type"], FrameType.I.value, FrameType.P.value)
        self._decode(frames)
        return self._result(frames)

    def _transmit(
        self, frame_id: int, count: int, tail_wire: int, request: SimTime
    ) -> Optional[tuple[SimTime, SimTime, int]]:
        """Put one frame's fragments on the air.

        Returns None if none arrives, else (first arrival, last arrival,
        fragments delivered).
        """
        if frame_id != self.cfg.fault_drop_frame_id:
            return self._medium.frame(count, tail_wire, request)
        arrivals = self._medium.burst([dpp.MTU] * (count - 1) + [tail_wire], request)
        victim = self.cfg.fault_drop_frag_index
        if victim < 0:
            victim = int(self.rng.stream("fault").integers(0, count))
        if victim < count:
            arrivals[victim] = None
        return netsim.frame_arrivals(arrivals)

    @cached_property
    def _medium(self) -> netsim.Medium:
        """The channel bound to this run's link and loss stream, built when
        the event loop starts: an array run never builds it."""
        return netsim.Medium(self.channel, self.link, self.rng)

    def _run_arrays(self) -> SimResult:
        """The whole draw-free run as numpy arrays.

        Every frame arrives whole, so the receiver never drops one and no
        feedback is sent: each frame is I exactly on its GOP schedule. The
        run is its grid's ``array_timing`` shifted by its datapath's
        constants: a frame's wire request is its clock tick plus ``shift =
        encode_path_us + host_netstack_us``, and its decode arrival its last
        arrival plus ``link_fixed_us``. The shift is exact on a fresh link
        and decoder, and a ``Simulator`` runs once, on the link it builds.
        When the timing keeps the report's stages, the report reads them and
        the frame table is built when it is first read (``SimResult``):

          * Link. With ``busy_until = last_arrival = 0`` and requests >= 0,
            ``clean_run``'s running maximum never takes ``busy_until``, so a
            request shifted by c shifts each start and last arrival by c; the
            busy, packet and byte totals are the same.
          * Decoder. The first frame finds the bucket full at any time >= 0,
            and every later step of ``offer`` (and so of ``offer_run``)
            depends only on differences of times.
          * Bounds. The stage constants make both shifts >= 0, and
            validation keeps every time of the run below 2**62
            (``scenario.time_bound``), so no shifted array wraps.
        """
        g, link = self.graph, self.link
        timing = array_timing(self.cfg, g)
        shift = g.encode_path_us + g.host_netstack_us
        link.busy_accum_us, link.sent_packets, link.sent_bytes = timing.totals
        if len(timing.last):  # a run that sends nothing leaves the link as it was
            link.last_arrival = int(timing.last[-1]) + shift
            link.busy_until = link.last_arrival - self.channel.prop_delay_us  # the last busy end
        table = partial(self._array_frames, timing, shift)
        if timing.stages is None:
            return self._result(table())
        return SimResult(self._metrics(timing=timing), table, g)

    def _array_frames(self, timing: ArrayTiming, shift: SimTime) -> dict[str, np.ndarray]:
        """The array run's frame table: its timing shifted by ``shift`` on
        the wire and by ``link_fixed_us`` more at the decoder."""
        g = self.graph
        decode_start = timing.decode_start + (shift + g.link_fixed_us)
        zeros = np.zeros(len(timing.last), dtype=bool)
        frames = self._frames()
        frames.update(
            frame_type=timing.frame_type,
            forced=zeros,
            sent_first_us=timing.start + shift,
            arrived_last_us=timing.last + shift,
            decode_start_us=decode_start,
            presented_us=decode_start + (g.mud_service_us + g.residual_us),
            dropped=zeros,
            corrupted=zeros,
            size_bytes=timing.size_bytes,
            queue_wait_us=timing.queue_wait,
            net_us=timing.net + g.link_fixed_us,
        )
        return frames

    # --- the tail ----------------------------------------------------------

    def _decode(self, frames: dict[str, np.ndarray]) -> None:
        """The event loop's decode step, which fills the decode columns."""
        g, done = self.graph, np.array(self._done, dtype=np.intp)
        arrivals = frames["arrived_last_us"][done] + g.link_fixed_us
        starts = DecodeServer(self.codec_cfg.decode_fps_cap).offer_run(arrivals)
        frames["net_us"][done] = arrivals - (frames["encoded_us"][done] + g.host_netstack_us)
        frames["queue_wait_us"][done] = starts - arrivals
        frames["decode_start_us"][done] = starts
        frames["presented_us"][done] = starts + (g.mud_service_us + g.residual_us)

    def _result(self, frames: dict[str, np.ndarray]) -> SimResult:
        """Corruption, when some frame dropped, and the report of the frame table."""
        if frames["dropped"].any():
            frames["corrupted"] = _corrupted(frames)
        return SimResult(self._metrics(frames), frames, self.graph)

    def _metrics(
        self, col: Optional[dict[str, np.ndarray]] = None, timing: Optional[ArrayTiming] = None
    ) -> MetricsReport:
        """The run's report from its frame table ``col``, or from ``timing``,
        an array run's, when it keeps the report's stages. Such a run presents
        every frame and only its network stage varies, whose order and
        distribution are the timing's; end-to-end is the timing's decode
        start minus render time plus the run's constants. So the report
        sorts nothing and reads no frame table."""
        cfg = self.cfg
        g = self.graph
        if col is None:
            network, decode_wait, to_decode = timing.stages
            sent = len(to_decode)
            n_presented, dropped, unresolved, corrupted = sent, 0, 0, 0
            sampler_wait = None  # every frame is sent at its render time
            to_wire = g.encode_path_us + g.host_netstack_us
            e2e = to_decode + (to_wire + g.link_fixed_us + g.mud_service_us + g.residual_us)
            sent_bytes = timing.sent_bytes
        else:
            sent = len(col["size_bytes"])
            shown = col["presented_us"] >= 0
            n_presented = int(np.count_nonzero(shown))
            dropped = int(np.count_nonzero(col["dropped"]))
            if n_presented == len(shown):
                # every frame is presented: none is unresolved and no column is copied
                shown, unresolved = slice(None), 0
            else:
                unresolved = int(np.count_nonzero((col["dropped"] == 0) & ~shown))
            corrupted = int(np.count_nonzero(col["corrupted"][shown]))
            gen = col["gen_us"][shown]
            sampler_wait = col["encoded_us"][shown] - g.encode_path_us - gen
            network, decode_wait = col["net_us"][shown], col["queue_wait_us"][shown]
            if not sampler_wait.any():
                sampler_wait = None
            e2e = col["presented_us"][shown] - gen
            sent_bytes = int(col["size_bytes"].sum())

        per_stage = {
            "sampler-wait": sampler_wait,
            "encode-path": g.encode_path_us,
            "host-netstack": g.host_netstack_us,
            "network": network,
            "decode-wait": decode_wait,
            "mud": g.mud_service_us,
            "presentation": g.residual_us,
        }
        if sampler_wait is None:
            del per_stage["sampler-wait"]
        if g.residual_us == 0:
            del per_stage["presentation"]
        stages, e2e_dist = build_distributions(per_stage, e2e)
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
        encoded_copy_total = g.host_netstack_copies * sent_bytes
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
            # rendering plus encoding overruns the period of a tick that
            # sends: the periods below it, which the grid keeps sorted
            overruns = np.searchsorted(self._grid.period, cfg.render_work_us + g.encode_path_us)
            sync = {
                "task_time_mean_ms": round(mean_task / 1000.0, 4),
                "render_work_ms": round(cfg.render_work_us / 1000.0, 4),
                "tick_overruns": int(overruns),
            }
        return MetricsReport(
            seed=cfg.seed,
            duration_s=duration_s,
            config_values=config_values(cfg),
            frames=frames,
            end_to_end=e2e_dist,
            stages=stages,
            network=network,
            copies=copies,
            feedback=feedback,
            sync=sync,
            unresolved_frames=unresolved,
        )


def run_scenario(cfg: ScenarioConfig) -> SimResult:
    return Simulator(cfg).run()


def ab_runs(cfg: ScenarioConfig, toggle: str) -> tuple[SimResult, SimResult]:
    """The runs of ``cfg`` with ``toggle`` off, then on, both validated first."""
    off, on = (validated(with_toggle(cfg, toggle, value)) for value in (False, True))
    return run_scenario(off), run_scenario(on)


def _saving(before: Optional[float], after: Optional[float]) -> Optional[float]:
    """``before - after`` in ms, or None when either run presented no frame."""
    return None if before is None or after is None else round(before - after, 4)


def ab_row(toggle: str, off: MetricsReport, on: MetricsReport) -> dict[str, Any]:
    """One toggle's mean end-to-end saving, from its off and on runs' reports;
    each saving is None when either run presented no frame."""
    stage_deltas = {}
    for name in set(off.stages) | set(on.stages):
        before = off.stages.get(name, {}).get("mean_ms", 0.0)
        after = on.stages.get(name, {}).get("mean_ms", 0.0)
        stage_deltas[name] = _saving(before, after)
    return {
        "toggle": toggle,
        "off_mean_ms": off.end_to_end["mean_ms"],
        "on_mean_ms": on.end_to_end["mean_ms"],
        "delta_ms": _saving(off.end_to_end["mean_ms"], on.end_to_end["mean_ms"]),
        "stage_deltas_ms": {k: stage_deltas[k] for k in sorted(stage_deltas)},
    }


def ab_suite(base: ScenarioConfig) -> dict[str, Any]:
    """Every toggle measured one-at-a-time from ``base``'s values with every
    toggle off, plus the residual.

    The p2p delta is taken both against the base color space and with
    transcoding avoidance active (RGB); the interaction residual follows the
    cumulative-measurement convention, so it uses the RGB p2p delta. All 14
    runs' configs validate before the first run."""
    all_off = replace(base, toggles=OptimizationToggles())
    rgb_base = with_toggle(all_off, "transcode_avoidance", True)
    compared = [(all_off, name) for name in TOGGLE_NAMES] + [(rgb_base, "p2p_topology")]
    configs = [with_toggle(c, name, v) for c, name in compared for v in (False, True)]
    configs += [all_off, replace(all_off, toggles=OptimizationToggles.all_on())]
    configs = [validated(cfg) for cfg in configs]
    metrics = [run_scenario(cfg).metrics for cfg in configs]
    pairs = zip(compared, metrics[::2], metrics[1::2])  # each comparison's off and on run
    rows = [ab_row(name, off, on) for (_, name), off, on in pairs]
    results, p2p_rgb = dict(zip(TOGGLE_NAMES, rows)), rows[-1]
    baseline_mean, all_on_mean = (m.end_to_end["mean_ms"] for m in metrics[-2:])
    # in toggle order, with the RGB p2p delta in p2p's place
    terms = [baseline_mean, all_on_mean]
    terms += [row["delta_ms"] for row in {**results, "p2p_topology": p2p_rgb}.values()]
    residual = None  # when some run presented no frame
    if None not in terms:
        residual = round(abs(baseline_mean - sum(terms[2:]) - all_on_mean), 4)
    return {
        "baseline_mean_ms": baseline_mean,
        "all_on_mean_ms": all_on_mean,
        "deltas": results,
        "p2p_topology_rgb": p2p_rgb,
        "interaction_residual_ms": residual,
    }
