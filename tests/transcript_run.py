"""The event loop with every event on the heap, and its event transcript.

``Simulator._run_events`` leaves two kinds of event off its heap: a burst
that is the loop's next dispatch is handled by the tick that sent it, and an
I-frame request that reaches the host before the next tick that sends is
decided when it is sent. It merges only the ticks that send a frame.
``TranscriptRun``, a ``MethodRun`` (``method_run.py``), is its reference:
it heaps every burst and request, merges every clock tick (and every render
tick in ASYNC) as the eager scheduler did, as the (time, tick) pairs that
``MethodQueue.run`` hands to ``_encode_and_send``, and records each dispatch
as ``(time, kind, arg)``: the tick's clock index, the burst's frame id, the
deadline's frame id or the request.
"""

from operator import itemgetter

import numpy as np
from method_run import MethodQueue, MethodRun

from uvrpipe.cp import WIRE_BYTES
from uvrpipe.scenario import EncodeMode


class HeapQueue(MethodQueue):
    """An event queue that never reports an event as next, so that every
    burst goes on the heap."""

    def is_next(self, t):
        return False


class TranscriptRun(MethodRun):
    """A run that heaps every event and writes its transcript; it always
    takes the event loop."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.queue = HeapQueue()
        self.transcript = []

    def _ticks(self):
        """Every clock tick, with the frame that it sends or -1, and in ASYNC
        every render tick, which sends nothing; on a tie the render goes
        first."""
        grid = self._grid
        kind = "render" if self.cfg.encode_mode is EncodeMode.SYNC else "sample"
        frame = np.where(grid.sends, np.cumsum(grid.sends) - 1, -1).tolist()
        ticks = [(t, (kind, i, k)) for i, (t, k) in enumerate(zip(grid.clock.tolist(), frame))]
        if kind == "render":
            return ticks
        renders = [(t, ("render", i, -1)) for i, t in enumerate(grid.render.tolist())]
        return sorted(renders + ticks, key=itemgetter(0))  # stable: renders first on a tie

    def _send_cp(self, msg, t):
        sent = self._medium.frame(1, WIRE_BYTES, t)  # a one-packet frame
        if sent is not None:
            self.queue.schedule(sent[0], ("cp", msg))

    def _encode_and_send(self, t, tick):
        """Record a tick of ``_ticks``, ``(kind, clock index, frame id or
        -1)``, and send its frame."""
        kind, i, k = tick
        self.transcript.append((t, kind, i))
        if k >= 0:  # else a tick that sends nothing
            super()._encode_and_send(t, k)

    def _dispatch(self, t, event):
        self.transcript.append((t, event[0], event[1]))
        super()._dispatch(t, event)
