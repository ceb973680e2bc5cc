"""Parametric hardware-codec model: GOP policy, CBR frame sizing, decode rate.

No actual video is produced; frames carry byte sizes chosen so that the GOP
average meets the configured bitrate, with I-frames `1/p_to_i_ratio` times the
size of P-frames. The encode and decode stage costs live in ``stages``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import ColorSpace, SimTime, running_max


class FrameType(Enum):
    I = "I"
    P = "P"


@dataclass
class CodecConfig:
    bitrate_bps: int = 20_000_000
    fps: int = 60
    gop_size: int = 20
    p_to_i_ratio: Fraction = Fraction(1, 4)
    transcode_avoidance: bool = False
    rgb_inflation: float = 1.10
    decode_fps_cap: int = 60


def effective_color_space(cfg: CodecConfig) -> ColorSpace:
    """Encoding color space: native RGB when transcoding is avoided."""
    return ColorSpace.RGB if cfg.transcode_avoidance else ColorSpace.YUV420


def nominal_sizes(cfg: CodecConfig) -> tuple[int, int]:
    """(I-frame bytes, P-frame bytes) such that one GOP averages the budget.

    s_I = G*B / (1 + (G-1)*r), s_P = r*s_I, both rounded half-up. With
    B = bitrate / (8*fps) and r = p/q exactly, s_I = G*bitrate*q / den and
    s_P = G*bitrate*p / den for den = 8*fps*(q + (G-1)*p); num/den rounds
    half-up to (2*num + den) // (2*den), in exact integers.
    """
    g = cfg.gop_size
    p, q = cfg.p_to_i_ratio.as_integer_ratio()
    den = 8 * cfg.fps * (q + (g - 1) * p)
    scale = g * cfg.bitrate_bps
    return (2 * scale * q + den) // (2 * den), (2 * scale * p + den) // (2 * den)


class GopWalker:
    """GOP plan for a fixed configuration: which type the next frame gets.

    A forced I restarts the GOP phase rather than keeping it.
    """

    def __init__(self, cfg: CodecConfig):
        self.g = cfg.gop_size
        self._next_index = 0

    def plan(self, force_i: bool) -> tuple[FrameType, bool]:
        """Returns (type, forced) for the next frame."""
        idx = 0 if force_i else self._next_index
        self._next_index = (idx + 1) % self.g
        return (FrameType.I, force_i) if idx == 0 else (FrameType.P, False)


def encoded_size(
    frame_type: FrameType,
    cfg: CodecConfig,
    complexity: float,
    nominal: Optional[tuple[int, int]] = None,
) -> int:
    """Byte size of an encoded frame: round(nominal * complexity), half-up.

    Encoding in RGB inflates the output by the configured factor (direction
    reported for the reference system, the magnitude is a calibration knob).
    Per-frame callers pass ``nominal_sizes(cfg)``, resolved once, as ``nominal``.
    """
    if complexity <= 0:
        raise ValueError("complexity must be > 0")
    s_i, s_p = nominal if nominal is not None else nominal_sizes(cfg)
    size = int(_half_up_point(float(s_i if frame_type is FrameType.I else s_p), cfg, complexity))
    return size if size > 0 else 1


def encoded_sizes(
    is_iframe: np.ndarray, cfg: CodecConfig, complexity: np.ndarray, nominal: tuple[int, int]
) -> np.ndarray:
    """``encoded_size`` of many frames at once, as int64 (validation keeps each valid)."""
    s_i, s_p = nominal
    points = _half_up_point(np.where(is_iframe, float(s_i), float(s_p)), cfg, complexity)
    return np.maximum(points.astype(np.int64), 1)


def _half_up_point(nominal_bytes, cfg: CodecConfig, complexity):
    """``nominal * complexity`` (RGB-inflated) plus 0.5: truncated, it rounds half-up.

    Plain float arithmetic, so a float64 array of frames gets the same bits
    as one frame at a time.
    """
    scaled = nominal_bytes * complexity
    if effective_color_space(cfg) is ColorSpace.RGB:
        scaled = scaled * cfg.rgb_inflation
    return scaled + 0.5


class DecodeServer:
    """Rate-capped single decoder: when each frame starts decoding.

    Starts are limited to ``decode_fps_cap`` per second by an exact-integer
    token bucket (burst of 2 frames absorbs arrival jitter without letting the
    sustained rate exceed the cap); a frame's service time is the datapath's
    ``mud_service_us``. ``offer`` admits one frame, ``offer_run`` a run.
    """

    TOKEN = 1_000_000  # scaled units per token; refills at fps_cap units/us

    def __init__(self, fps_cap: int):
        self.fps_cap = fps_cap
        self._tokens = 2 * self.TOKEN
        self._last = 0
        self._prev_start = -1

    def offer(self, arrival: SimTime) -> tuple[SimTime, SimTime]:
        """Admit a frame; returns (decode_start_time, queue_wait_us)."""
        start = arrival if arrival > self._prev_start else self._prev_start
        self._tokens = min(2 * self.TOKEN, self._tokens + (start - self._last) * self.fps_cap)
        self._last = start
        if self._tokens < self.TOKEN:
            deficit = self.TOKEN - self._tokens
            wait = -(-deficit // self.fps_cap)  # ceil division
            start += wait
            self._tokens += wait * self.fps_cap
            self._last = start
        self._tokens -= self.TOKEN
        self._prev_start = start
        return start, start - arrival

    def offer_run(self, arrivals: np.ndarray) -> np.ndarray:
        """``offer`` of every arrival in order: the decode starts, as an
        array of the arrivals' dtype.

        Without a wait the starts are ``s = cummax(max(arrivals, prev_start))``.
        With ``c = fps_cap``, ``K = TOKEN`` and ``Z = start*c - tokens`` after
        each frame, ``offer`` is ``Z_i = max(s_i*c - K, Z_{i-1} + K)``: the
        refill to ``2K`` is the first term, one token taken the second. With
        ``W_i = Z_i - (i+1)*K`` that is ``W_i = max(s_i*c - (i+2)*K, W_{i-1})``,
        which unrolls to ``Z_i = (i+1)*K + max(Z_{-1}, cummax_{j<=i}(s_j*c -
        (j+2)*K))``, one running maximum, where ``Z_{-1} = last*c - tokens``.
        Frame i finds at least one token, so waits for none, exactly when
        ``s_i*c - Z_{i-1} >= K``. When some frame waits, or a scaled time
        could reach 2**62, where int64 could wrap, ``offer`` admits the run
        frame by frame instead.
        """
        n, c, k = len(arrivals), self.fps_cap, self.TOKEN
        if n and max(int(arrivals.max()), self._prev_start) * c + (n + 2) * k < 2**62:
            start = running_max(np.maximum(arrivals, self._prev_start))
            z_before = self._last * c - self._tokens
            scaled = start * c
            taken = np.arange(1, n + 1) * k  # (i+1)*K
            z = taken + np.maximum(running_max(scaled - (taken + k)), z_before)
            if scaled[0] - z_before >= k and (scaled[1:] - z[:-1] >= k).all():
                self._tokens = int(scaled[-1] - z[-1])
                self._last = self._prev_start = int(start[-1])
                return start
        return np.array([self.offer(t)[0] for t in arrivals.tolist()], dtype=arrivals.dtype)
