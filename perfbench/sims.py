"""The two simulator workloads: ``sim_clean`` and ``sim_lossy``.

A unit is one call of a public entry point: ``pipeline.ab_suite`` for
``sim_clean`` (14 independent 60-s runs), ``pipeline.run_scenario`` for
``sim_lossy`` (one 60-s run). Units are repeated, each with its own seed,
until the run's time is up. Modelled metrics come from the first
``model_units`` units only, so they depend on the seed and never on how
fast the host is.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calibrate
from common import BENCH_DIR, DEFAULT_SEED, median, unit_seed

# acceptance-test tolerances on the paper's two headline means
BASELINE_MS, ALL_ON_MS, TOLERANCE_MS = 38.41, 14.32, 0.05
QUICK_DURATION_S = 4.0
SETUP_PROBES = 9


@dataclass
class Unit:
    seed: int
    wall_s: float
    cpu_s: float
    slowdown: float
    reports: list
    output: object
    errors: list[str] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return sum(r.frames["sent"] for r in self.reports)


def scenario_config(workload: str, seed: int, quick: bool):
    """The scenario a unit runs (``sim_clean`` passes it to ``ab_suite``)."""
    from uvrpipe.netsim import LossModel
    from uvrpipe.scenario import preset_config

    if workload == "sim_clean":
        cfg = preset_config("baseline")
    else:
        cfg = preset_config("openuvr")
        cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.seed = seed
    if quick:
        cfg.duration_s = QUICK_DURATION_S
    return cfg


class SimWorkload:
    def __init__(self, name: str, quick: bool):
        from uvrpipe import pipeline

        self.name = name
        self.quick = quick
        self.model_units = 1 if name == "sim_clean" or quick else 16
        self._pipeline = pipeline
        self._digests = json.loads((BENCH_DIR / "digests.json").read_text())
        self._reports: list = []

    def __enter__(self):
        # Time the reference loop before every 60-s run and collect every
        # run's report. Sampling the machine's speed between the 14 runs of
        # an ``ab_suite`` tracks its swings far better than sampling only
        # around the whole unit.
        original = self._pipeline.run_scenario
        self._original = original

        def run_scenario(cfg, *args, **kwargs):
            self._calibrate()
            result = original(cfg, *args, **kwargs)
            self._reports.append(result.metrics)
            return result

        self._pipeline.run_scenario = run_scenario
        return self

    def __exit__(self, *exc):
        self._pipeline.run_scenario = self._original

    def _calibrate(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self._loops.append(calibrate.loop_seconds())
        self._calibration_cpu_s += time.process_time() - c0
        self._calibration_wall_s += time.perf_counter() - t0

    def run_unit(self, base_seed: int, index: int) -> Unit:
        """Run one unit; its times exclude the reference loops inside it."""
        seed = unit_seed(base_seed, index)
        cfg = scenario_config(self.name, seed, self.quick)
        self._reports, self._loops = [], []
        self._calibration_cpu_s = self._calibration_wall_s = 0.0
        c0, t0 = time.process_time(), time.perf_counter()
        if self.name == "sim_clean":
            output = self._pipeline.ab_suite(cfg)
        else:
            output = self._pipeline.run_scenario(cfg)
        wall = time.perf_counter() - t0 - self._calibration_wall_s
        cpu = time.process_time() - c0 - self._calibration_cpu_s
        self._calibrate()
        slowdown = sum(self._loops) / len(self._loops) / calibrate.REFERENCE_LOOP_S
        unit = Unit(seed, wall, cpu, slowdown, self._reports, output)
        unit.errors = self.check(unit, base_seed == DEFAULT_SEED and index == 0)
        return unit

    # --- correctness ---------------------------------------------------------

    def digest_key(self) -> str:
        return f"{self.name}{'-quick' if self.quick else ''}"

    def digest(self, unit: Unit) -> str:
        from uvrpipe.report import report_file_dict, strip_meta

        runs = [strip_meta(report_file_dict(r)) for r in unit.reports]
        body = {"runs": runs}
        if self.name == "sim_clean":
            body["ab_suite"] = unit.output
        return hashlib.sha256(json.dumps(body).encode()).hexdigest()

    def check(self, unit: Unit, at_default_seed: bool) -> list[str]:
        errors = []
        expected_runs = 14 if self.name == "sim_clean" else 1
        if len(unit.reports) != expected_runs:
            errors.append(f"{len(unit.reports)} runs, expected {expected_runs}")
        for r in unit.reports:
            f = r.frames
            if f["presented"] + f["dropped"] + r.unresolved_frames != f["sent"]:
                errors.append(
                    f"seed {r.seed}: presented {f['presented']} + dropped {f['dropped']}"
                    f" + unresolved {r.unresolved_frames} != sent {f['sent']}"
                )
        if self.name == "sim_clean":
            for key, want in (("baseline_mean_ms", BASELINE_MS), ("all_on_mean_ms", ALL_ON_MS)):
                got = unit.output[key]
                if abs(got - want) > TOLERANCE_MS:
                    errors.append(f"seed {unit.seed}: {key} {got} outside {want} +/- 0.05")
        if at_default_seed:
            want = self._digests.get(self.digest_key())
            got = self.digest(unit)
            if got != want:
                errors.append(f"report digest {got} != stored {want}")
        return errors

    # --- metrics ---------------------------------------------------------------

    def model(self, units: list[Unit]) -> dict[str, float]:
        """Modelled (simulated-time) figures over the first ``model_units`` units."""
        pool = [r for u in units[: self.model_units] for r in u.reports]
        sent = sum(r.frames["sent"] for r in pool)
        presented = sum(r.frames["presented"] for r in pool)
        if self.name == "sim_clean":
            suite = units[0].output
            all_on = [r for r in units[0].reports if _all_on(r)][-1]
            mean_ms, p99_ms = suite["all_on_mean_ms"], all_on.end_to_end["p99_ms"]
            baseline = suite["baseline_mean_ms"]
        else:
            mean_ms = sum(r.end_to_end["mean_ms"] * r.frames["presented"] for r in pool) / presented
            p99_ms = median([r.end_to_end["p99_ms"] for r in pool])
            baseline = 0.0
        return {
            "model.baseline_ms": baseline,
            "model.e2e_mean_ms": mean_ms,
            "model.e2e_p99_ms": p99_ms,
            "model.frame_loss": sum(r.frames["dropped"] for r in pool) / sent,
            "model.corrupted_rate": sum(r.frames["corrupted"] for r in pool) / presented,
            "delivered_ratio": presented / sent,
        }


def _all_on(report) -> bool:
    return all(v == "true" for k, v in report.config.items() if k.startswith("toggles."))


def frames_per_s(units: list[Unit]) -> float:
    """Median simulated frames per host second, at reference speed."""
    return median([u.frames / u.wall_s * u.slowdown for u in units])


def cpu_us_per_frame(units: list[Unit]) -> float:
    """Median host CPU time per simulated frame, at reference speed."""
    return median([1e6 * u.cpu_s / u.slowdown / u.frames for u in units])


def setup_probes(workload: str, quick: bool) -> list[float]:
    """Set-up time of fresh processes: import, config, first ``Simulator``."""
    times = []
    for _ in range(1 if quick else SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times
