"""Fresh-process set-up probe for the simulator workloads.

Usage: python3 perfbench/setup_probe.py <sim_clean|sim_lossy>

Times importing the package, resolving the workload's scenario and building
the first ``Simulator``, then prints one JSON line. ``setup_s`` is scaled to
the reference machine speed by the reference loop run before and after.
"""

import json
import sys
import time

import calibrate

before = calibrate.loop_seconds(2)
t0 = time.perf_counter()
from common import DEFAULT_SEED, import_package  # noqa: E402

import_package()
from uvrpipe import pipeline  # noqa: E402
from sims import scenario_config  # noqa: E402

t1 = time.perf_counter()
cfg = scenario_config(sys.argv[1], DEFAULT_SEED, quick=False)
t2 = time.perf_counter()
pipeline.Simulator(cfg)
t3 = time.perf_counter()
slowdown = calibrate.slowdown(before, calibrate.loop_seconds(2))
print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "config_s": t2 - t1,
            "simulator_s": t3 - t2,
            "slowdown": slowdown,
            "setup_s": (t3 - t0) / slowdown,
        }
    )
)
