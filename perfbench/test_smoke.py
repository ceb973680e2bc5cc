"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with ``--quick --seconds 1`` in both modes. The test
checks the result line's shape, that every metric is printed with its unit,
that no operation failed (an error rate of 0), and that the benchmark refuses
to run in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "42", "--seconds", "1",
               "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("machine ")
    facts = json.loads(lines[-2][len("machine "):])
    assert {"nproc", "python", "numpy", "rmem_default", "rmem_max", "udp_so_rcvbuf"} <= set(facts)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(expected)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, out.stderr
    assert result["correct"] is True
    if trace == 0:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "sim_clean", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
