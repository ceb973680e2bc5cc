"""Seeded fault-injection experiments over the simulated pipeline."""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from .core import Rng
from .pipeline import run_scenario
from .scenario import EncodeMode, ScenarioConfig
from .stages import OptimizationToggles

WARMUP_TICKS = 30


def recovery_config(seed: int, feedback: bool, gop: int = 480) -> ScenarioConfig:
    """One single-drop run: lose one fragment of a seeded victim frame.

    The victim tick spans a whole GOP's worth of phases across seeds so drop
    position within the GOP is uniform; duration covers the recovery point
    (next forced or scheduled I-frame) plus margin.
    """
    victim = WARMUP_TICKS + int(Rng(seed).stream("misc").integers(0, gop))
    if feedback:
        end_tick = victim + 45
    else:
        end_tick = victim + (gop - victim % gop) + 15
    toggles = OptimizationToggles.all_on()
    toggles.feedback_control = feedback
    cfg = ScenarioConfig(
        seed=seed,
        duration_s=end_tick / 60.0,
        encode_mode=EncodeMode.ASYNC,
        toggles=toggles,
        fault_drop_frame_id=victim,
    )
    cfg.codec = replace(cfg.codec, gop_size=gop)
    return cfg


def recovery_trial(seed: int, feedback: bool, gop: int = 480) -> dict[str, Any]:
    cfg = recovery_config(seed, feedback, gop)
    result = run_scenario(cfg)
    victim = cfg.fault_drop_frame_id
    frames = result.frames
    shown_i = (frames["frame_type"] == "I") & (frames["presented_us"] >= 0)
    later_i = np.flatnonzero(shown_i & (frames["frame_id"] > victim))
    recovery_i = int(later_i[0]) if len(later_i) else None
    return {
        "seed": seed,
        "victim": victim,
        "victim_gop_index": victim % gop,
        "corrupted_interval": int(frames["corrupted"].sum()),
        "recovered": recovery_i is not None,
        "recovery_frame_id": recovery_i,
        "dropped": result.metrics.frames["dropped"],
        "forced_iframes": result.metrics.feedback["forced_iframes"],
        "requests": result.metrics.feedback["iframe_requests_sent"],
    }


def recovery_sweep(
    n_runs: int, feedback: bool, gop: int = 480, base_seed: int = 10_000
) -> list[dict[str, Any]]:
    return [recovery_trial(base_seed + i, feedback, gop) for i in range(n_runs)]
