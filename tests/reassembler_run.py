"""The event loop whose receiver is a real ``Reassembler``.

``Simulator._run_events`` resolves frames in order: bursts reach its
receiver in frame-id order, so it keeps the pending frames' (id, deadline
anchor) in a deque and drops a prefix of it at each burst's first arrival
and at each deadline event. ``ReassemblerRun``, a ``MethodRun``
(``method_run.py``), is its reference. Each burst
goes to ``StepwiseOnFrame.on_frame``, each deadline event to
``Reassembler.expire``, and each frame that a call leaves newly pending gets
one ``("deadline", fid)`` event at ``max(deadline + 1, now)``, its deadline
as ``pending_deadlines`` gives it. A ``FrameComplete`` goes to
``cp.mud_on_complete``, a ``FrameDropped`` to ``cp.mud_on_drop``.
"""

from method_run import MethodRun

from uvrpipe import cp as cp_mod
from uvrpipe import dpp


class StepwiseOnFrame(dpp.Reassembler):
    """A simulated frame's burst as the reassembler takes it: the burst
    notes its frame at its first arrival (gaps, drop sweep), then completes
    it or leaves it pending, as its fragments fed to ``on_fragments`` at
    ``first`` would."""

    def __init__(self, drop_deadline_us):
        super().__init__(drop_deadline_us)
        self._reported = {}  # frame id -> the last deadline pending_deadlines gave

    def on_frame(self, first, last, delivered, frame_id, frag_count, is_iframe, forced, gen):
        events = list(self._note_frame(first, frame_id))
        if delivered < frag_count:
            self._ingest(first, frame_id, 0, frag_count, is_iframe, forced, gen, b"")
        elif frame_id not in self._resolved:
            self._resolve(frame_id)
            events.append(dpp.FrameComplete(frame_id, is_iframe, forced, gen, first, last, b""))
        return events

    def pending_deadlines(self):
        """(frame id, deadline) of each pending frame not returned by an
        earlier call. A frame's deadline moves once, when its first fragment
        arrives after it was discovered through a newer frame; the moved
        deadline is new."""
        fresh = []
        for fid, pend in self._pending.items():
            deadline = pend.deadline_anchor + self.drop_deadline_us
            if self._reported.get(fid) != deadline:
                self._reported[fid] = deadline
                fresh.append((fid, deadline))
        return fresh


class ReassemblerRun(MethodRun):
    """A run whose receiver is ``StepwiseOnFrame``; it always takes the event loop."""

    def run(self):
        self.reasm = StepwiseOnFrame(self.cfg.drop_deadline_us)
        return self._run_events()

    def _handle_burst(self, t, event):
        _, k, first, last, delivered, count, is_iframe = event
        forced, gen = self._table["forced"][k], int(self._grid.gen[k])
        for ev in self.reasm.on_frame(first, last, delivered, k, count, is_iframe, forced, gen):
            self._on_reassembly(ev, t)
        self._schedule_deadlines()

    def _dispatch(self, t, event):
        if event[0] != "deadline":
            return super()._dispatch(t, event)
        for ev in self.reasm.expire(t):
            self._on_reassembly(ev, t)
        self._schedule_deadlines()

    def _on_reassembly(self, ev, t):
        feedback, msg = self.cfg.toggles.feedback_control, None
        if isinstance(ev, dpp.FrameComplete):
            self._table["arrived_last_us"][ev.frame_id] = ev.last_arrival
            self._done.append(ev.frame_id)
            if feedback:
                msg = cp_mod.mud_on_complete(self.mud_fb, ev.frame_id, ev.is_iframe, t)
        else:
            self._table["dropped"][ev.frame_id] = True
            if feedback:
                msg = cp_mod.mud_on_drop(self.mud_fb, ev.frame_id, t)
        if msg is not None:
            self._send_cp(msg, t)

    def _schedule_deadlines(self):
        for fid, deadline in self.reasm.pending_deadlines():
            self.queue.schedule(max(deadline + 1, self.queue.now), ("deadline", fid))
