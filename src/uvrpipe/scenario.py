"""Scenario configuration: flat dotted-key grammar, presets, validation.

Files are plain text, one ``key = value`` per line, ``#`` comments. Unknown
keys are rejected; every error is collected (with its line number) rather than
failing on the first.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Union, get_type_hints

import numpy as np

from . import dpp
from .codec import CodecConfig, FrameType, encoded_size
from .core import US_PER_S, Rng, SimTime, WorkloadConfig, frame_ticks, tick_time
from .cp import DEFAULT_SUPPRESSION_WINDOW_US
from .netsim import ChannelModel, serialization_us
from .stages import MAX_STAGES_US, TOGGLE_NAMES, OptimizationToggles, codec_values

MAX_TICKS = 2**20  # of a run's clocks: one hour at 240 FPS is 864,000 (README: memory)


class EncodeMode(Enum):
    SYNC = "SYNC"
    ASYNC = "ASYNC"


class ScenarioError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class ScenarioConfig:
    seed: int = 1
    duration_s: float = 60.0
    render_fps: int = 60
    encode_mode: EncodeMode = EncodeMode.ASYNC
    render_work_us: int = 11_100
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    codec: CodecConfig = field(default_factory=CodecConfig)
    toggles: OptimizationToggles = field(default_factory=OptimizationToggles)
    channel: ChannelModel = field(default_factory=ChannelModel)
    drop_deadline_us: int = dpp.DROP_DEADLINE_US
    suppression_window_us: int = DEFAULT_SUPPRESSION_WINDOW_US
    trace_enabled: bool = False
    fault_drop_frame_id: int = -1  # inject loss of one fragment of this frame
    fault_drop_frag_index: int = -1  # -1 draws the fragment from the fault stream

    @property
    def duration_us(self) -> int:
        return round(self.duration_s * US_PER_S)

    def validate(self) -> list[str]:
        """Every type or range violation, key by key in ``KEYS`` order, then
        the checks that a key's own range cannot express, the seeded one last."""
        seed, *values = config_values(self)
        # only the seeded check reads the seed besides its range, so runs of
        # one config at many seeds share one cached validation of the rest
        error = key_error("seed", seed)
        try:
            errors, sized = _errors(*values)
        except TypeError:  # an unhashable value, which no key's type allows
            errors, sized = _errors.__wrapped__(*values)
        if error is None and sized is not None:
            errors += _fragment_errors(seed, *sized)
        return ([error] if error else []) + list(errors)


# Every scenario key, in file order: its attribute path in ScenarioConfig and
# the range its value must lie in (None: any value of the field's type). The
# field's declared type picks the key's parser and formatter, and a value must
# be of exactly that type, with one widening: an int passes for a float field
# (``duration_s=1``). A bool passes only for a bool field, and float values
# must also be finite.
KEYS: dict[str, tuple[str, Optional[str]]] = {
    "seed": ("seed", ">= 0"),
    "duration_s": ("duration_s", "> 0"),
    "render_fps": ("render_fps", "> 0"),
    "encode_mode": ("encode_mode", None),
    "render_work_us": ("render_work_us", ">= 0"),
    "workload.width": ("workload.width", "> 0"),
    "workload.height": ("workload.height", "> 0"),
    "workload.complexity_sigma": ("workload.complexity_sigma", ">= 0"),
    "codec.bitrate_bps": ("codec.bitrate_bps", "> 0"),
    "codec.fps": ("codec.fps", "> 0"),
    "codec.gop_size": ("codec.gop_size", ">= 1"),
    "codec.p_to_i_ratio": ("codec.p_to_i_ratio", "in (0, 1]"),
    "codec.rgb_inflation": ("codec.rgb_inflation", "> 0"),
    "codec.decode_fps_cap": ("codec.decode_fps_cap", "> 0"),
    "toggles.transcode_avoidance": ("toggles.transcode_avoidance", None),
    "toggles.shared_gpu_buffer": ("toggles.shared_gpu_buffer", None),
    "toggles.direct_net_io": ("toggles.direct_net_io", None),
    "toggles.p2p_topology": ("toggles.p2p_topology", None),
    "toggles.feedback_control": ("toggles.feedback_control", None),
    "channel.bandwidth_bps": ("channel.bandwidth_bps", "> 0"),
    "channel.prop_delay_us": ("channel.prop_delay_us", ">= 0"),
    "channel.jitter_sigma_us": ("channel.jitter_sigma_us", ">= 0"),
    "channel.loss_model": ("channel.loss_model", None),
    "channel.loss_p": ("channel.loss_p", "in [0, 1]"),
    "channel.ge_p_gb": ("channel.ge_p_gb", "in [0, 1]"),
    "channel.ge_p_bg": ("channel.ge_p_bg", "in [0, 1]"),
    "channel.ge_loss_good": ("channel.ge_loss_good", "in [0, 1]"),
    "channel.ge_loss_bad": ("channel.ge_loss_bad", "in [0, 1]"),
    "proto.drop_deadline_us": ("drop_deadline_us", "> 0"),
    "cp.suppression_window_us": ("suppression_window_us", ">= 0"),
    "trace.enabled": ("trace_enabled", None),
    "fault.drop_frame_id": ("fault_drop_frame_id", None),
    "fault.drop_frag_index": ("fault_drop_frag_index", None),
}

_IN_RANGE: dict[str, Callable[[Any], bool]] = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


_type_hints = cache(get_type_hints)  # resolving annotations costs ~0.1 ms per class


def _field_type(path: str) -> type:
    owner: type = ScenarioConfig
    for name in path.split("."):
        owner = _type_hints(owner)[name]
    return owner


_TYPES = {key: _field_type(path) for key, (path, _bound) in KEYS.items()}


# every key's value, in ``KEYS`` order: a snapshot that later changes to a config do not reach
config_values = attrgetter(*(path for path, _bound in KEYS.values()))
_UNSEEDED_KEYS = tuple(KEYS)[1:]  # the seed comes first
# per key, resolved once: the types its value may have, whether the value
# must be finite, and its range test
_CHECKS = {
    key: ((float, int) if t is float else (t,), t is float, bound and _IN_RANGE[bound])
    for key, t, (_path, bound) in zip(KEYS, _TYPES.values(), KEYS.values())
}


def key_error(key: str, value: Any) -> Optional[str]:
    """Why ``value`` is not of ``key``'s declared type or is out of its
    declared range, or None if neither."""
    types, finite, in_range = _CHECKS[key]
    if type(value) not in types:
        return f"{key} must be of type {_TYPES[key].__name__}, not {type(value).__name__}"
    if finite and not math.isfinite(value):
        return f"{key} must be finite"
    if in_range is None or in_range(value):
        return None
    return f"{key} must be {KEYS[key][1]}"


class SendGrid(NamedTuple):
    """The render ticks, the encoder's clock ticks, which clock ticks send a
    frame, and per frame the render tick that it encodes, that tick's
    complexity, the frame's id, its render time and its clock tick; in SYNC,
    also each frame's render period (its tick to the next render tick), in
    ascending order, which a SYNC report counts its overruns in (empty in
    ASYNC)."""

    render: np.ndarray
    clock: np.ndarray
    sends: np.ndarray
    source: np.ndarray
    complexity: np.ndarray
    frame_id: np.ndarray
    gen: np.ndarray
    tick: np.ndarray
    period: np.ndarray


@lru_cache(maxsize=1)
def send_grid(
    seed: int,
    complexity_sigma: float,
    render_fps: int,
    fps: int,
    duration_us: SimTime,
    encode_mode: EncodeMode,
) -> tuple[SendGrid, dict[str, Any]]:
    """The send grid: the render ticks, the encoder's clock ticks (the render
    grid in SYNC, the sample grid at the codec's ``fps`` in ASYNC), which
    clock ticks send a frame, and per frame the render tick that it encodes
    and that tick's complexity; in SYNC also the sent frames' render periods,
    sorted once for every run's report. Every render tick's complexity is one
    batched draw from the seed's workload stream, whose state after the draw
    comes with the grid; past the float range a complexity is inf.

    The arrays are read-only, since validation, the run that follows it and
    consecutive runs of one seed and clocks, such as an A/B suite's, share
    them from the cache.
    """
    rng = Rng(seed)
    render = frame_ticks(render_fps, duration_us)
    with np.errstate(over="ignore"):
        complexity = rng.lognormal_complexity(complexity_sigma, len(render))
    if encode_mode is EncodeMode.SYNC:
        # decimate to the codec rate when rendering faster than it; at or
        # below it, every tick's codec slot differs from the next
        clock, latest = render, np.arange(len(render))
        sends = latest * fps // render_fps != (latest + 1) * fps // render_fps
    else:
        # the latest render at or before each sample; on a tie the render
        # runs first. ``tick_time(i, r) <= t`` exactly when ``2*10**6*i <
        # r*(2t+1)``, and ``r*t`` stays below 2**41 (``MAX_TICKS``)
        clock = frame_ticks(fps, duration_us)
        latest = (render_fps * (2 * clock + 1) - 1) // (2 * US_PER_S)
        sends = np.diff(latest, prepend=-1) > 0
    source = latest[sends]
    frame_id = np.arange(len(source))
    gen = render[source]
    if encode_mode is EncodeMode.SYNC:
        period = np.sort(tick_time(source + 1, render_fps) - gen)
    else:
        period = source[:0]  # only a SYNC report reads them
    grid = SendGrid(
        render, clock, sends, source, complexity[source], frame_id, gen, clock[sends], period
    )
    for array in grid:
        array.flags.writeable = False
    return grid, rng.stream("workload").bit_generator.state


@lru_cache(maxsize=64, typed=True)  # typed: 1, 1.0 and True differ
def _errors(*values) -> tuple[tuple[str, ...], Optional[tuple]]:
    """From the values after the seed: ``validate``'s errors after the seed's,
    and the seeded check's arguments after the seed, or None if it cannot run."""
    value_of = dict(zip(_UNSEEDED_KEYS, values))
    failed = {key: error for key, value in value_of.items() if (error := key_error(key, value))}
    if "duration_s" not in failed and round(value_of["duration_s"] * US_PER_S) < 1:
        failed["duration_s"] = "duration_s must be at least 1 us, rounded to whole us"
    failed_clocks = failed.keys() & {"duration_s", "render_fps", "codec.fps"}
    if not failed_clocks and (ticks := clock_ticks(value_of)) > MAX_TICKS:  # before any draw
        failed["ticks"] = f"a run's clocks could tick {ticks} times, past the limit of {MAX_TICKS}"
    errors = list(failed.values())
    if not errors and (bound := time_bound(value_of)) >= 2**62:
        errors.append(f"a run's times could reach {bound} us, past the 2**62-us horizon of int64")
    # the seeded check needs every key that it reads, and the tick bound
    sized = ("codec.", "duration_s", "render_fps", "workload.complexity_sigma", "ticks")
    sized += ("encode_mode", "toggles.transcode_avoidance")  # checked for type alone
    if any(key.startswith(sized) for key in failed):
        return tuple(errors), None
    # the codec's values, in the color space that the toggles encode in
    codec = {k.removeprefix("codec."): v for k, v in value_of.items() if k.startswith("codec.")}
    codec = CodecConfig(transcode_avoidance=value_of["toggles.transcode_avoidance"], **codec)
    grid_keys = ("workload.complexity_sigma", "render_fps", "duration_s", "encode_mode")
    return tuple(errors), (*map(value_of.get, grid_keys), *codec_values(codec))


@lru_cache(maxsize=4, typed=True)  # typed: 1, 1.0 and True differ; an A/B suite takes two
def _fragment_errors(seed, sigma, render_fps, duration_s, mode, *codec_values):
    """The seeded check: every ``encoded_size`` and ``fragment_layout`` of a
    run passes, whatever frame the feedback forces to I, when its grid
    (``send_grid``; the run finds it in the cache) gives each sent frame a
    complexity above 0 and the largest, as an I-frame, fits in ``MAX_FRAGS``
    fragments: a size rises with complexity, and ``p_to_i_ratio <= 1``."""
    codec = CodecConfig(*codec_values)
    grid, _ = send_grid(seed, sigma, render_fps, codec.fps, round(duration_s * US_PER_S), mode)
    complexity = grid.complexity  # each >= 0; a run may send no frame
    smallest, largest = float(complexity.min(initial=math.inf)), float(complexity.max(initial=0))
    if largest > 0:
        try:
            count = dpp.unchecked_layout(encoded_size(FrameType.I, codec, largest))[0]
        except OverflowError:  # an infinite size
            count = math.inf
        if count > dpp.MAX_FRAGS:
            return (
                f"seed {seed} draws a frame of complexity {largest:g} whose I-frame needs"
                f" {count:.10g} fragments, past the {dpp.MAX_FRAGS}-fragment limit",
            )
    if smallest <= 0:
        return (f"seed {seed} draws a frame of complexity {smallest:g}, where it must be > 0",)
    return ()


def clock_ticks(value_of: dict[str, Any]) -> int:
    """The most ticks, ``D*f // 10**6 + 1`` at f FPS over D us, of a run's clocks."""
    duration_us = round(value_of["duration_s"] * US_PER_S)
    return duration_us * max(value_of["render_fps"], value_of["codec.fps"]) // US_PER_S + 1


def time_bound(value_of: dict[str, Any]) -> int:
    """A bound, in us, above every time in the frame table of a run of the
    config values ``value_of`` (by key), whatever its toggles, as an A/B
    suite flips them: ``D + S + n*(2*((MAX_FRAGS+1)*s + p + J) + q)``, with
    D the duration, n the frames, s one MTU packet's serialization, p the
    propagation delay, J the jitter's cap ``ceil(3.0*sigma)``, ``q =
    ceil(10**6/decode_fps_cap)`` and S (``stages.MAX_STAGES_US``) at least
    the datapath's constants. Proof, with h hops (2 under INFRA, else 1)
    and ``X = D + encode_path_us + host_netstack_us``:

      * A frame is sent at a tick of the encoder's clock, which has at
        most n ticks (``clock_ticks``).
      * A use of the medium, m packets requested at r, moves ``busy_until``
        from b to at most ``max(r, b) + h*m*s + (h-1)*(p+J)`` (hop 2 waits
        at most p + J for a packet), and delivers by that plus p + J or,
        FIFO-clamped, at an earlier arrival.
      * Up to frame k's burst, the medium takes at most k + 1 bursts of at
        most MAX_FRAGS packets and k one-packet requests (a frame resolves
        once, after its burst), each requested before X, as both shifts are
        >= 0 and the loop sends a request before frame k's tick or after its
        burst. As ``(2k+1)*(h-1) + 1 <= (k+1)*h``, frame k is sent and
        arrives before ``X + n*h*((MAX_FRAGS+1)*s + p + J)``.
      * A decode starts at the later of its arrival and the previous start,
        plus a token wait of at most q; presentation adds a constant.
      * Renders and encodes come before X; ``net_us`` and ``queue_wait_us``
        are differences of times >= 0.
    """
    duration_us = round(value_of["duration_s"] * US_PER_S)
    # a cap of 2**62 or more fails the bound as it is; 3.0 * sigma may be inf
    jitter = math.ceil(min(3.0 * value_of["channel.jitter_sigma_us"], 2**62))
    packets = (dpp.MAX_FRAGS + 1) * serialization_us(dpp.MTU, value_of["channel.bandwidth_bps"])
    link = 2 * (packets + value_of["channel.prop_delay_us"] + jitter)
    decode = -(-US_PER_S // value_of["codec.decode_fps_cap"])
    return duration_us + MAX_STAGES_US + clock_ticks(value_of) * (link + decode)


def validated(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg``, once it validates; else ``ScenarioError`` with its errors."""
    if errors := cfg.validate():
        raise ScenarioError(errors)
    return cfg


def bound_error(name: str, value: Any, bound: str) -> Optional[str]:
    """``"<name> must be <bound>"`` if ``value`` is outside ``bound``, else None."""
    return None if _IN_RANGE[bound](value) else f"{name} must be {bound}"


def _parse(field_type: type, raw: str) -> Any:
    text = raw.strip()
    if field_type is bool:
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if issubclass(field_type, Enum):
        for member in field_type:
            if member.value.lower() == text.lower():
                return member
        raise ValueError(f"{text!r} is not one of {', '.join(m.value for m in field_type)}")
    return field_type(text)  # int, float, Fraction


def _format(field_type: type, value: Any) -> str:
    if field_type is bool:
        return "true" if value else "false"
    if issubclass(field_type, Enum):
        return value.value
    if field_type is Fraction:
        return f"{value.numerator}/{value.denominator}"
    return repr(value)  # int, float


PRESETS: dict[str, dict[str, str]] = {
    # conventional layered stack through an access point, conservative GOP
    "baseline": {
        "codec.gop_size": "20",
        "duration_s": "60",
    },
    # every optimization enabled, feedback-backed large GOP, direct link
    "openuvr": {
        "codec.gop_size": "480",
        "duration_s": "60",
        "toggles.transcode_avoidance": "true",
        "toggles.shared_gpu_buffer": "true",
        "toggles.direct_net_io": "true",
        "toggles.p2p_topology": "true",
        "toggles.feedback_control": "true",
    },
}


def apply_kv(
    cfg: ScenarioConfig, key: str, raw: str, errors: list[str], where: str = ""
) -> None:
    prefix = f"{where}: " if where else ""
    if key not in KEYS:
        errors.append(f"{prefix}unknown key '{key}'")
        return
    owner_path, _, attr = KEYS[key][0].rpartition(".")
    owner = attrgetter(owner_path)(cfg) if owner_path else cfg
    try:
        setattr(owner, attr, _parse(_TYPES[key], raw))
    except (ValueError, ZeroDivisionError) as exc:
        errors.append(f"{prefix}invalid value for '{key}': {exc}")


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ScenarioError([f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})"])
    cfg = ScenarioConfig()
    errors: list[str] = []
    for key, raw in PRESETS[name].items():
        apply_kv(cfg, key, raw, errors)
    if errors:  # presets are static; this guards against schema drift
        raise ScenarioError(errors)
    return cfg


def parse_scenario_text(
    text: str, base: Optional[ScenarioConfig] = None, source: str = "<config>"
) -> ScenarioConfig:
    cfg = copy.deepcopy(base) if base is not None else ScenarioConfig()
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'key = value'")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        apply_kv(cfg, key, raw, errors, where=f"{source}:{lineno}")
    errors.extend(cfg.validate())
    if errors:
        raise ScenarioError(errors)
    return cfg


def parse_scenario(path: Union[str, Path], base: Optional[ScenarioConfig] = None) -> ScenarioConfig:
    p = Path(path)
    return parse_scenario_text(p.read_text(), base=base, source=str(p))


def to_flat_dict(cfg: Union[ScenarioConfig, tuple]) -> dict[str, str]:
    """Emit the full configuration, or its ``config_values``, in the file
    grammar (round-trips exactly)."""
    values = cfg if isinstance(cfg, tuple) else config_values(cfg)
    return dict(zip(KEYS, map(_format, _TYPES.values(), values)))


def emit_scenario(cfg: ScenarioConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in to_flat_dict(cfg).items())


def with_toggle(cfg: ScenarioConfig, toggle: str, value: bool) -> ScenarioConfig:
    if toggle not in TOGGLE_NAMES:
        raise ScenarioError([f"unknown toggle '{toggle}' (have: {', '.join(TOGGLE_NAMES)})"])
    toggles = replace(cfg.toggles, **{toggle: value})
    return replace(cfg, toggles=toggles)
