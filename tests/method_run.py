"""The event loop as methods: the structured reference of ``Simulator._run_events``.

``Simulator._run_events`` is one method whose state lives in locals: it
merges the send ticks with the heap itself, its receiver's burst handling,
drop sweep and request send are nested functions, and cp's four rules run
inline. ``MethodRun`` is the loop that it replaced, kept as its reference:
``MethodQueue.run`` merges the ticks that send a frame, (time, frame id)
pairs from ``_ticks``, with the heap and hands each to ``_encode_and_send``
and each heap event to ``_dispatch``; the receiver's state lives on the
instance, and the feedback goes through ``cp``'s functions. ``TranscriptRun``,
``ReassemblerRun`` and the tests' recording runs derive from it, overriding
one method each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

from uvrpipe import cp as cp_mod
from uvrpipe import dpp
from uvrpipe.codec import FrameType, GopWalker, nominal_sizes
from uvrpipe.core import EventQueue, SchedulingError, SimTime
from uvrpipe.pipeline import _LOOP_COLUMNS, Simulator, _frame_layout
from uvrpipe.report import FrameRecord

_HOST_COLUMNS = _LOOP_COLUMNS[:4]  # a frame's encode: type, forced, size, first send


class MethodQueue(EventQueue):
    """An event queue that merges a tick grid with its heap."""

    def is_next(self, t: SimTime) -> bool:
        """Whether an event scheduled now at ``t`` would be the heap's next
        pop: every event on the heap is later (one at ``t`` goes first)."""
        heap = self._heap
        return not heap or t < heap[0][0]

    def run(
        self,
        handler: Callable[[SimTime, Any], None],
        ticks: Iterable[tuple[SimTime, Any]] = (),
        on_tick: Optional[Callable[[SimTime, Any], None]] = None,
    ) -> None:
        """Dispatch every heap event to ``handler`` and every (time, arg) of
        ``ticks`` to ``on_tick``, in order.

        ``ticks`` is a grid in time order that is merged lazily with the heap
        instead of being scheduled: a tick dispatches before every heap event
        at its time, as if it had been scheduled before all of them.
        """
        heap = self._heap
        for t, arg in ticks:
            while heap and heap[0][0] < t:
                handler(*self.pop())
            if t < self.now:
                raise SchedulingError(f"tick at t={t} before now={self.now}")
            self.now = t
            on_tick(t, arg)
        while heap:
            handler(*self.pop())


class MethodRun(Simulator):
    """The event loop with one method per step; it always takes the event loop."""

    def run(self):
        return self._run_events()

    @cached_property
    def queue(self) -> MethodQueue:
        return MethodQueue()

    # --- host side ---------------------------------------------------------

    def _encode_and_send(self, t: SimTime, k: int) -> None:
        """Encode frame ``k`` at its send tick ``t`` and put it on the air."""
        feedback = self._feedback
        self._next_tick = self._send_at[k + 1]
        ftype, forced = self.walker.plan(feedback and self.host_fb.pending_force)
        is_iframe = ftype is FrameType.I
        size, count, tail_wire = self._layouts[is_iframe][k]
        if is_iframe and feedback:
            encode_done = t + self.graph.encode_path_us  # the frame's ``encoded_us``
            cp_mod.host_on_iframe_emitted(self.host_fb, encode_done, self.cfg.suppression_window_us)
        frame_type, forced_col, size_col, sent_first = self._host_columns
        frame_type[k] = is_iframe  # made "I" or "P" at the end of the run
        forced_col[k] = forced
        size_col[k] = size

        wire_request = t + self._to_wire
        busy_before = self.link.busy_until
        sent_first[k] = wire_request if wire_request > busy_before else busy_before
        sent = self._transmit(k, count, tail_wire, wire_request)
        if sent is not None:
            first, last, delivered = sent
            burst = ("burst", k, first, last, delivered, count, is_iframe)
            if last < self._next_tick and self.queue.is_next(last):
                # the loop's next dispatch: no tick and no heap event comes
                # first. Its time becomes the queue's, as its pop would make it
                self.queue.now = last
                self._handle_burst(last, burst)
            else:
                self.queue.schedule(last, burst)

    # --- receiver side -----------------------------------------------------

    def _send_cp(self, msg: cp_mod.CpMessage, t: SimTime) -> None:
        sent = self._medium.frame(1, cp_mod.WIRE_BYTES, t)  # a one-packet frame
        if sent is None:
            return
        arrival = sent[0]
        if arrival < self._next_tick:
            # only an encode reads or writes the host's feedback state, and
            # none comes before the next tick that sends: decide it now
            cp_mod.host_on_request(self.host_fb, msg, arrival)
        else:
            self.queue.schedule(arrival, ("cp", msg))

    def _handle_burst(self, t: SimTime, event: tuple) -> None:
        """Present a whole frame or make a partial one pending, after the
        pending frames past their deadline at the burst's first arrival
        drop; the frames that the burst skips turn pending too."""
        _, k, first, last, delivered, count, is_iframe = event
        if self._pending:
            self._drop_expired(first, t)
        whole = delivered == count
        if whole:
            self._table["arrived_last_us"][k] = last
            self._done.append(k)  # the decode step admits it (``_decode``)
            if self._feedback:
                msg = cp_mod.mud_on_complete(self.mud_fb, k, is_iframe, t)
                if msg is not None:
                    self._send_cp(msg, t)
        newest, self._newest = self._newest, k
        skips = newest is not None and 1 < k - newest <= dpp.GAP_LIMIT
        if whole and not skips:
            return
        fresh = range(newest + 1 if skips else k, k if whole else k + 1)
        self._pending.extend((fid, first) for fid in fresh)
        # a deadline inside the frame's own burst drops it after the burst
        at = max(first + self.cfg.drop_deadline_us + 1, t)
        for fid in fresh:
            self.queue.schedule(at, ("deadline", fid))

    def _drop_expired(self, now: SimTime, t: SimTime) -> None:
        """Drop the pending frames whose deadline has passed at ``now``, a
        prefix of the queue, and send their feedback at ``t``."""
        pending, horizon = self._pending, now - self.cfg.drop_deadline_us
        while pending and pending[0][1] < horizon:
            k = pending.popleft()[0]
            self._table["dropped"][k] = True
            if self._feedback:
                self._send_cp(cp_mod.mud_on_drop(self.mud_fb, k, t), t)

    # --- run ---------------------------------------------------------------

    def _dispatch(self, t: SimTime, event: tuple) -> None:
        """A heap event: a burst, a deadline or an I-frame request."""
        kind = event[0]
        if kind == "burst":
            self._handle_burst(t, event)
        elif kind == "deadline":
            self._drop_expired(t, t)
        else:  # an I-frame request, which only a run with feedback sends
            cp_mod.host_on_request(self.host_fb, event[1], t)

    def _run_events(self):
        self.walker = GopWalker(self.codec_cfg)
        # the receiver: the pending frames' (id, deadline anchor), in id order,
        # and the newest frame id that delivered a fragment
        self._pending: deque[tuple[int, SimTime]] = deque()
        self._newest: Optional[int] = None
        self.mud_fb, self.host_fb = cp_mod.MudFeedbackState(), cp_mod.HostFeedbackState()
        self._done: list[int] = []  # the completed frames, in the order they completed
        grid = self._grid
        n = len(grid.tick)
        # the columns that the loop fills, one list each; frame_type and
        # forced have no default: each frame's encode sets them
        defaults = {f.name: f.default for f in fields(FrameRecord)}
        self._table = {name: [defaults[name]] * n for name in _LOOP_COLUMNS}
        # per frame type (P, then I), each frame's (size, fragment count, tail datagram bytes)
        nominal, complexity = nominal_sizes(self.codec_cfg), grid.complexity
        layouts = (_frame_layout(i, self.codec_cfg, complexity, nominal) for i in (False, True))
        self._layouts = [list(zip(*(column.tolist() for column in layout))) for layout in layouts]
        self._send_at = grid.tick.tolist() + [float("inf")]  # each frame's send tick
        self._next_tick = self._send_at[0]
        # what every frame reads, bound once
        self._feedback = self.cfg.toggles.feedback_control
        self._to_wire = self.graph.encode_path_us + self.graph.host_netstack_us
        self._host_columns = [self._table[name] for name in _HOST_COLUMNS]
        self.queue.run(self._dispatch, self._ticks(), self._encode_and_send)
        return self._loop_result()

    def _ticks(self) -> Iterable[tuple[SimTime, int]]:
        """The ticks that send a frame, in time order: (time, frame id). A
        tick that sends nothing does nothing, and a burst handled at the
        tick before it may arrive after it."""
        send_at = self._send_at
        return zip(send_at, range(len(send_at) - 1))  # the last is the end sentinel
