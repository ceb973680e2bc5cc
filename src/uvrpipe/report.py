"""Run metrics, report files, and table rendering.

Reports are JSON with a fixed field order so identical runs diff cleanly;
wall-clock information is segregated under ``meta`` and is the only part that
may differ between two runs of the same seeded scenario.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple, Optional, Union

import numpy as np

from .scenario import to_flat_dict

SCHEMA_VERSION = 1

FRAME_PERIOD_60FPS_MS = 1000.0 / 60.0

TRACE_COLUMNS = (
    "frame_id",
    "type",
    "forced",
    "gen_us",
    "encoded_us",
    "sent_first_us",
    "arrived_last_us",
    "presented_us",
    "dropped",
    "corrupted",
)


@dataclass
class FrameRecord:
    """Per-frame timestamps along the datapath (trace export row)."""

    frame_id: int
    frame_type: str
    forced: bool
    gen_us: int
    encoded_us: int = -1
    sent_first_us: int = -1
    arrived_last_us: int = -1
    decode_start_us: int = -1
    presented_us: int = -1
    dropped: bool = False
    corrupted: bool = False
    size_bytes: int = 0
    queue_wait_us: int = 0
    net_us: int = 0

    def trace_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.frame_id,
                self.frame_type,
                int(self.forced),
                self.gen_us,
                self.encoded_us,
                self.sent_first_us,
                self.arrived_last_us,
                self.presented_us,
                int(self.dropped),
                int(self.corrupted),
            )
        )


def write_trace(records: list[FrameRecord], path: Union[str, Path]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.trace_row() + "\n")


def _dist_ms(values_us: np.ndarray, ordered=None, shift: int = 0) -> dict[str, Optional[float]]:
    """Mean, median and 99th percentile of ``values_us``, in ms; ``ordered +
    shift`` is the values in ascending order, sorted here if not given. An
    empty sample (a run that presents no frame) has none of them: each is None.

    Both percentiles come from one sort and equal ``np.percentile``'s default
    (linear) method bit for bit: the same index ``(n-1)*q``, the same weight
    and the same two-sided interpolation, in plain floats.
    """
    if len(values_us) == 0:
        return {"mean_ms": None, "p50_ms": None, "p99_ms": None}
    arr = values_us / 1000.0  # the ufunc makes int64 float64 itself, in the same pass
    ordered = np.sort(values_us) if ordered is None else ordered
    return {
        "mean_ms": round(float(arr.sum()) / len(arr), 4),  # ndarray.mean's steps
        "p50_ms": round(_percentile(ordered, 0.5, shift), 4),
        "p99_ms": round(_percentile(ordered, 0.99, shift), 4),
    }


def _percentile(ordered: np.ndarray, q: float, shift: int = 0) -> float:
    """Quantile ``q``, in ms, of the ascending us values ``ordered + shift`` by
    numpy's linear method; making a value a float in ms keeps the order."""
    n = len(ordered)
    v = (n - 1) * q
    lo = math.floor(v)
    a = float(int(ordered[lo]) + shift) / 1000.0
    b = float(int(ordered[min(lo + 1, n - 1)]) + shift) / 1000.0
    g = v - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


@dataclass
class MetricsReport:
    seed: int
    duration_s: float
    config_values: tuple  # the run's ``scenario.config_values``, formatted when first read
    frames: dict[str, int]
    end_to_end: dict[str, float]
    stages: dict[str, dict[str, float]]
    network: dict[str, float]
    copies: dict[str, Any]
    feedback: dict[str, int]
    sync: Optional[dict[str, float]] = None
    unresolved_frames: int = 0

    @cached_property
    def config(self) -> dict[str, str]:
        return to_flat_dict(self.config_values)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "config": self.config,
            "frames": self.frames,
            "end_to_end": self.end_to_end,
            "stages": self.stages,
            "network": self.network,
            "copies": self.copies,
            "feedback": self.feedback,
            "unresolved_frames": self.unresolved_frames,
        }
        if self.sync is not None:
            out["sync"] = self.sync
        return out


def _constant_dist_ms(value_us: int, n: int) -> dict[str, float]:
    """``_dist_ms`` of ``n`` copies of ``value_us``, without building them:
    both percentiles are the value. numpy's mean (a pairwise sum) may miss it
    by a few ulps, far under what rounding to 4 decimals absorbs below 2**40
    us; beyond that the sample is built."""
    if not n or abs(value_us) >= 2**40:
        return _dist_ms(np.full(n, value_us))
    ms = round(value_us / 1000.0, 4)
    return {"mean_ms": ms, "p50_ms": ms, "p99_ms": ms}


class KnownStage(NamedTuple):
    """A stage whose values are ``ordered + shift`` in ascending order and
    whose distribution is ``dist`` (``known_stage``): the runs that share its
    values pass it to ``build_distributions``, which sorts nothing for it."""

    ordered: np.ndarray
    shift: int
    dist: dict[str, float]


def _sort(values_us: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """An int array whose bounds are ``lo`` and ``hi``, in ascending order;
    in int32, where they fit, the same order sorts in half the time."""
    return np.sort(values_us.astype(np.int32) if -(2**31) <= lo and hi < 2**31 else values_us)


def known_stage(values_us: np.ndarray, shift: int) -> Optional[KnownStage]:
    """The stage ``values_us + shift`` of an int64 array, sorted once (the
    order read-only) with its distribution; None when it takes fewer than two
    values, or when a value or the shift reaches 2**62, so that the sum
    cannot wrap."""
    if not len(values_us):
        return None
    lo, hi = int(values_us.min()), int(values_us.max())
    if lo == hi or max(-lo, hi, abs(shift)) >= 2**62:
        return None
    ordered = _sort(values_us, lo, hi)
    ordered.flags.writeable = False
    return KnownStage(ordered, shift, _dist_ms(values_us + shift, ordered, shift))


def build_distributions(
    per_stage_us: dict[str, Union[int, np.ndarray, KnownStage]], e2e_us: np.ndarray
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Each stage's and the end-to-end distribution; a stage is an array with
    one value per frame of ``e2e_us``, one int that every frame takes, or a
    ``KnownStage``. Only an int array that varies is sorted. End-to-end reads
    its percentiles off the order of the one stage that varies:

      * a known stage's, when every other stage is an int: its caller vouches
        that end-to-end is the sum of the stages on every frame;
      * else an array's, when end-to-end differs from it by the same amount
        on every frame (every other stage is constant).
    """
    n = len(e2e_us)
    stages, varying, known, constants = {}, [], [], []
    for name, vals in per_stage_us.items():
        if isinstance(vals, int):
            stages[name] = _constant_dist_ms(vals, n)
            constants.append(vals)
        elif isinstance(vals, KnownStage):
            stages[name] = dict(vals.dist)
            known.append(vals)
        elif not n:
            stages[name] = _dist_ms(vals)
        elif (lo := int(vals.min())) == (hi := int(vals.max())):
            stages[name] = _constant_dist_ms(lo, n)
        else:
            ordered = _sort(vals, lo, hi)
            stages[name] = _dist_ms(vals, ordered)
            varying.append((vals, ordered, max(-lo, hi)))
    shift = None
    if len(known) == 1 and len(constants) == len(per_stage_us) - 1:
        ordered, shift = known[0].ordered, known[0].shift + sum(constants)
    elif len(varying) == 1:
        vals, ordered, top = varying[0]
        offset = e2e_us - vals
        # below 2**62 on both sides, the int64 difference cannot wrap
        if max(top, abs(int(offset[0]))) < 2**62 and offset.min() == offset.max():
            shift = int(offset[0])
    e2e = _dist_ms(e2e_us) if shift is None else _dist_ms(e2e_us, ordered, shift)
    mean = e2e["mean_ms"]
    e2e["mean_frames_60fps"] = None if mean is None else round(mean / FRAME_PERIOD_60FPS_MS, 4)
    return stages, e2e


def stage_breakdown(report: MetricsReport) -> list[tuple[str, Optional[float], Optional[float]]]:
    """(stage, mean ms, share %) rows; shares total 100 +/- rounding. A run
    that presents no frame has neither a mean nor a share."""
    if report.end_to_end["mean_ms"] is None:
        return [(name, None, None) for name in report.stages]
    rows = [(name, d["mean_ms"]) for name, d in report.stages.items()]
    total = sum(ms for _, ms in rows)
    if total <= 0:
        return [(name, ms, 0.0) for name, ms in rows]
    return [(name, ms, round(100.0 * ms / total, 3)) for name, ms in rows]


def report_file_dict(
    metrics: MetricsReport,
    ab: Optional[dict[str, Any]] = None,
    sweep: Optional[list[dict[str, Any]]] = None,
) -> dict[str, Any]:
    body: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"created_utc": datetime.now(timezone.utc).isoformat()},
        "report": metrics.to_dict(),
        "breakdown": [
            {"stage": name, "mean_ms": ms, "share_pct": pct}
            for name, ms, pct in stage_breakdown(metrics)
        ],
    }
    if ab is not None:
        body["ab_compare"] = ab
    if sweep is not None:
        body["sweep"] = sweep
    return body


def dump_report(data: dict[str, Any], path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def load_report(path: Union[str, Path]) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def strip_meta(data: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in data.items() if k != "meta"}


def render_table(rows: list[tuple], headers: tuple) -> str:
    cells = [tuple(str(c) for c in row) for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))

    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def format_cell(value: Optional[float], spec: str = ".3f", unit: str = "") -> str:
    """A table cell of ``value``; "n/a" when a sample had none (no frame presented)."""
    return "n/a" if value is None else format(value, spec) + unit


def render_report(data: dict[str, Any]) -> str:
    rep = data["report"]
    lines = []
    e2e = rep["end_to_end"]
    if e2e["mean_ms"] is None:
        lines.append("end-to-end latency: none, no frame was presented")
    else:
        lines.append(
            f"end-to-end latency: mean {e2e['mean_ms']} ms"
            f" (p50 {e2e['p50_ms']}, p99 {e2e['p99_ms']};"
            f" {e2e['mean_frames_60fps']} frames at 60 FPS)"
        )
    fr = rep["frames"]
    lines.append(
        f"frames: {fr['sent']} sent, {fr['presented']} presented,"
        f" {fr['dropped']} dropped, {fr['corrupted']} corrupted,"
        f" {fr['forced_i']} forced I"
    )
    lines.append(f"encoded throughput: {rep['network']['encoded_throughput_bps']} bps;"
                 f" link utilization {rep['network']['link_utilization']}")
    lines.append("")
    rows = [
        (r["stage"], format_cell(r["mean_ms"]), format_cell(r["share_pct"], ".1f", "%"))
        for r in data["breakdown"]
    ]
    lines.append(render_table(rows, ("stage", "mean ms", "share")))
    if "ab_compare" in data:
        lines.append("")
        ab = data["ab_compare"]
        saves = format_cell(ab["delta_ms"], "", " ms")
        lines.append(f"A/B toggle {ab['toggle']}: saves {saves} end-to-end")
        rows = [(k, format_cell(v, "+.3f")) for k, v in ab["stage_deltas_ms"].items()]
        lines.append(render_table(rows, ("stage", "delta ms")))
    return "\n".join(lines)
