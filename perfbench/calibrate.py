"""Machine-speed reference for the host-time metrics.

The 2-CPU virtual machines this benchmark runs on change speed by up to 40%
within seconds, as neighbours load the host. A fixed pure-Python loop, timed
right before and right after each measured unit, samples the speed the unit
ran at. Host-time metrics are then scaled to a machine on which the loop
takes ``REFERENCE_LOOP_S``: a unit that ran while the loop took twice as long
is credited with twice its measured speed. The loop uses only the standard
library, so no change to the package can move it.
"""

from __future__ import annotations

import heapq
import time

# the loop's median time on the 2-vCPU Xeon VM the benchmark was defined on
REFERENCE_LOOP_S = 0.021


class _Event:
    __slots__ = ("t", "kind", "data")

    def __init__(self, t, kind, data):
        self.t, self.kind, self.data = t, kind, data


def _loop(n: int = 12_000) -> int:
    """A small discrete-event kernel: heap, tuples, slotted objects, dicts."""
    heap: list = []
    state: dict = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, (i * 7 % 1000 + i, i, _Event(i, i % 13, [i, i + 1])))
        if len(heap) > 64:
            t, _seq, ev = heapq.heappop(heap)
            state[ev.kind] = state.get(ev.kind, 0) + len(ev.data) + (t & 3)
            acc += int((t * 1.0001) // 3)
    return acc


def loop_seconds(repeats: int = 1) -> float:
    """Mean time of one reference loop over ``repeats`` back-to-back loops."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _loop()
    return (time.perf_counter() - t0) / repeats


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than the reference the machine ran around one unit."""
    return (before_s + after_s) / (2 * REFERENCE_LOOP_S)
