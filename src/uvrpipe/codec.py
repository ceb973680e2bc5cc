"""Parametric hardware-codec model: GOP policy, CBR frame sizing, latencies.

No actual video is produced; frames carry byte sizes chosen so that the GOP
average meets the configured bitrate, with I-frames `1/p_to_i_ratio` times the
size of P-frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import ColorSpace, SimTime, round_half_up


class FrameType(Enum):
    I = "I"
    P = "P"


# Host-side per-frame costs (us) for the encode path, measured on the
# reference host profile. The three components are removable independently:
# color-space conversion, GPU<->main-memory ping-pong, and the core encode.
TRANSCODE_US = 5_510
GPU_COPY_US = 4_710
CORE_ENCODE_US = 3_720

# Receiver-side costs (us): network-stack traversal (bypassed by direct
# network I/O) and the hardware decode itself.
MUD_NETSTACK_US = 700
MUD_DECODE_US = 2_940


class ConfigError(ValueError):
    """A configuration violates a model invariant."""


@dataclass
class CodecConfig:
    bitrate_bps: int = 20_000_000
    fps: int = 60
    gop_size: int = 20
    p_to_i_ratio: Fraction = Fraction(1, 4)
    color_space: ColorSpace = ColorSpace.YUV420
    transcode_avoidance: bool = False
    shared_gpu_buffer: bool = False
    rgb_inflation: float = 1.10
    decode_fps_cap: int = 60

    def validate(self) -> list[str]:
        errors = []
        if self.bitrate_bps <= 0:
            errors.append("codec.bitrate_bps must be > 0")
        if self.fps <= 0:
            errors.append("codec.fps must be > 0")
        if self.gop_size < 1:
            errors.append("codec.gop_size must be >= 1")
        if not (0 < self.p_to_i_ratio <= 1):
            errors.append("codec.p_to_i_ratio must be in (0, 1]")
        if self.rgb_inflation <= 0:
            errors.append("codec.rgb_inflation must be > 0")
        if self.decode_fps_cap <= 0:
            errors.append("codec.decode_fps_cap must be > 0")
        return errors

    def validated(self) -> "CodecConfig":
        errors = self.validate()
        if errors:
            raise ConfigError("; ".join(errors))
        return self


def effective_color_space(cfg: CodecConfig) -> ColorSpace:
    """Encoding color space: native RGB when transcoding is avoided."""
    return ColorSpace.RGB if cfg.transcode_avoidance else ColorSpace.YUV420


def frame_budget(cfg: CodecConfig) -> Fraction:
    """Average bytes per frame at the target bitrate."""
    return Fraction(cfg.bitrate_bps, 8 * cfg.fps)


def nominal_sizes(cfg: CodecConfig) -> tuple[int, int]:
    """(I-frame bytes, P-frame bytes) such that one GOP averages the budget.

    s_I = G*B / (1 + (G-1)*r), s_P = r*s_I, both rounded half-up.
    """
    budget = frame_budget(cfg)
    g = cfg.gop_size
    r = cfg.p_to_i_ratio
    s_i = Fraction(g) * budget / (1 + (g - 1) * r)
    s_p = r * s_i
    return round_half_up(s_i), round_half_up(s_p)


@dataclass
class GopState:
    next_gop_index: int = 0
    pending_force: bool = False


def plan_frame(gop: GopState, g: int, force_i: bool) -> tuple[FrameType, int, bool, GopState]:
    """Decide the next frame's type for a GOP of size ``g``.

    Returns (type, gop_index, forced, new_state). A forced I restarts the GOP
    phase rather than keeping it.
    """
    if force_i or gop.next_gop_index == 0:
        return FrameType.I, 0, force_i, GopState(next_gop_index=1 % g)
    idx = gop.next_gop_index
    return FrameType.P, idx, False, GopState(next_gop_index=(idx + 1) % g)


class GopWalker:
    """Stateful wrapper around the GOP plan for a fixed configuration."""

    def __init__(self, cfg: CodecConfig):
        self.g = cfg.gop_size
        self.state = GopState()

    def plan(self, force_i: bool) -> tuple[FrameType, int, bool]:
        ftype, idx, forced, self.state = plan_frame(self.state, self.g, force_i)
        return ftype, idx, forced


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
    scaled = float(s_i if frame_type is FrameType.I else s_p) * complexity
    if effective_color_space(cfg) is ColorSpace.RGB:
        scaled *= cfg.rgb_inflation
    size = int(scaled + 0.5)
    return size if size > 0 else 1


def encode_latency_us(cfg: CodecConfig) -> SimTime:
    """Host encode-path latency as a pure function of the two datapath toggles."""
    latency = TRANSCODE_US + GPU_COPY_US + CORE_ENCODE_US
    if cfg.transcode_avoidance:
        latency -= TRANSCODE_US
    if cfg.shared_gpu_buffer:
        latency -= GPU_COPY_US
    return latency


class DecodeServer:
    """Rate-capped single decoder.

    Starts are limited to ``decode_fps_cap`` per second by an exact-integer
    token bucket (burst of 2 frames absorbs arrival jitter without letting the
    sustained rate exceed the cap); each admitted frame completes
    ``service_us`` after it starts.
    """

    TOKEN = 1_000_000  # scaled units per token; refills at fps_cap units/us

    def __init__(self, fps_cap: int, service_us: SimTime):
        self.fps_cap = fps_cap
        self.service_us = service_us
        self._tokens = 2 * self.TOKEN
        self._last = 0
        self._prev_start = -1
        self.max_queue_wait_us = 0

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
        queue_wait = start - arrival
        if queue_wait > self.max_queue_wait_us:
            self.max_queue_wait_us = queue_wait
        return start, queue_wait


def decode_service_us(direct_net_io: bool) -> SimTime:
    """Total receiver-side latency per frame: netstack traversal + decode."""
    return MUD_DECODE_US + (0 if direct_net_io else MUD_NETSTACK_US)
