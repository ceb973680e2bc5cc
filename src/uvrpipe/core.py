"""Deterministic simulation core: clock, event queue, seeded RNG, workload.

All times are integer microseconds (``SimTime``) so that runs are bit-exact
across platforms. Latency constants elsewhere in the package are expressed in
the same unit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

SimTime = int  # microseconds since scenario start

US_PER_S = 1_000_000


class SchedulingError(Exception):
    """An event was scheduled before the current dispatch time (simulator bug)."""


def tick_time(index: int, fps: int) -> SimTime:
    """Time of tick ``index`` on a cumulative-rounding grid.

    tick_time(i) = 1e6 * i / fps rounded half up; consecutive deltas wobble by
    at most 1 us but accumulate no drift (e.g. 90 FPS averages 11111.1 us
    exactly over any 10 ticks).
    """
    return (2 * US_PER_S * index + fps) // (2 * fps)


def frame_ticks(fps: int, duration_us: SimTime) -> np.ndarray:
    """Times of every grid tick strictly before duration_us; tick i at index i.

    ``tick_time`` is integer-only, so it evaluates the whole grid as int64.
    Index ``duration_us * fps // US_PER_S + 1`` already lies at or past the
    end, so the range below covers every earlier tick.
    """
    ticks = tick_time(np.arange(duration_us * fps // US_PER_S + 2, dtype=np.int64), fps)
    return ticks[ticks < duration_us]


def running_max(values: np.ndarray) -> np.ndarray:
    """``np.maximum.accumulate(values)``, or ``values`` itself when it never
    decreases: a check that costs a quarter of the accumulate."""
    if (values[1:] >= values[:-1]).all():
        return values
    return np.maximum.accumulate(values)


class Rng:
    """Seeded random source with named, independently-derived substreams.

    Backed by numpy's PCG64 generator, whose output stream is stable across
    platforms and versions for a given seed. Substream ``i`` is the root
    seed's ``i``-th spawned child, ``SeedSequence(seed, spawn_key=(i,))``, so
    that adding draws in one subsystem never shifts the sequences seen by
    another. Each is built on first use: a run pays only for the streams
    that it draws from. A stream is a plain generator: whoever draws from
    it moves it, and nothing here draws ahead (``netsim.Medium`` draws
    ahead from the loss stream itself).
    """

    _STREAMS = {"workload": 0, "loss": 1, "jitter": 2, "fault": 3, "misc": 4}

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gens: dict[str, np.random.Generator] = {}
        self._states: dict[str, dict] = {}  # restored states of streams not built yet

    def stream(self, name: str) -> np.random.Generator:
        """The stream's generator, built on first use."""
        gen = self._gens.get(name)
        if gen is None:
            child = np.random.SeedSequence(self.seed, spawn_key=(self._STREAMS[name],))
            gen = self._gens[name] = np.random.Generator(np.random.PCG64(child))
            if name in self._states:
                gen.bit_generator.state = self._states.pop(name)
        return gen

    def restore(self, name: str, state: dict) -> None:
        """Put the stream at a saved ``bit_generator.state``. A stream not
        built yet keeps the state and takes it when it is first used."""
        if name not in self._STREAMS:
            raise KeyError(name)
        if name in self._gens:
            self._gens[name].bit_generator.state = state
        else:
            self._states[name] = state

    def lognormal_complexity(self, sigma: float, n: int) -> np.ndarray:
        """``n`` content complexities from one batched draw.

        The batch equals ``n`` scalar draws, ``exp(sigma * z)`` each, bit for
        bit and leaves the workload stream at the same place.
        """
        z = self.stream("workload").standard_normal(n)
        if sigma == 0.0:
            # degenerate distribution; the draw above keeps streams aligned
            return np.ones(n)
        return np.exp(sigma * z)


class EventQueue:
    """Discrete-event queue dispatching in (time, insertion-seq) order."""

    def __init__(self):
        self._heap: list[tuple[SimTime, int, Any]] = []
        self._seq = 0
        self.now: SimTime = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, t: SimTime, event: Any) -> None:
        if t < self.now:
            raise SchedulingError(f"event scheduled at t={t} before now={self.now}")
        heapq.heappush(self._heap, (int(t), self._seq, event))
        self._seq += 1

    def pop(self) -> tuple[SimTime, Any]:
        t, _seq, event = heapq.heappop(self._heap)
        self.now = t
        return t, event


class ColorSpace(Enum):
    RGB = "RGB"
    YUV420 = "YUV420"


def raw_frame_bytes(width: int, height: int, color_space: ColorSpace) -> int:
    if color_space is ColorSpace.RGB:
        return width * height * 3
    # 4:2:0 chroma subsampling halves the two chrominance planes
    return width * height * 3 // 2


@dataclass
class RawFrame:
    frame_id: int
    gen_time: SimTime
    complexity: float


@dataclass
class WorkloadConfig:
    width: int = 1920
    height: int = 1080
    complexity_sigma: float = 0.15


class FrameSource:
    """Synthetic content generator standing in for a scripted player loop.

    Content difficulty varies log-normally around 1.0; the distribution width
    is a model knob (sigma=0 gives constant unit complexity).
    """

    def __init__(self, cfg: WorkloadConfig, rng: Rng):
        self.cfg = cfg
        self.rng = rng
        self._next_id = 0

    def next_frame(self, now: SimTime) -> RawFrame:
        frame = RawFrame(
            frame_id=self._next_id,
            gen_time=now,
            complexity=float(self.rng.lognormal_complexity(self.cfg.complexity_sigma, 1)[0]),
        )
        self._next_id += 1
        return frame

