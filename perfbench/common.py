"""Shared helpers: locating the package under test, seeds, machine facts, stats."""

from __future__ import annotations

import os
import platform
import socket
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 42


class PackageMissing(RuntimeError):
    """The checkout holds no ``src/uvrpipe`` to benchmark."""


def import_package():
    """Import ``uvrpipe`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "uvrpipe" / "__init__.py").is_file():
        raise PackageMissing(f"no uvrpipe package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uvrpipe

    if Path(uvrpipe.__file__).resolve().parent != SRC / "uvrpipe":
        raise PackageMissing(f"uvrpipe was imported from {uvrpipe.__file__}, not {SRC}")
    return uvrpipe


def unit_seed(seed: int, index: int) -> int:
    """Scenario seed of unit ``index`` of a run started with ``--seed seed``.

    Unit 0 uses the seed itself, so ``--seed 42`` reproduces the acceptance
    tests' configuration; later units get well-mixed, non-overlapping seeds.
    """
    if index == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def median(values):
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _read_proc(path: str):
    try:
        return int(Path(path).read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_facts() -> dict:
    """Facts that make the numbers readable. Read only; nothing is set."""
    import numpy as np

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        rcvbuf = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rmem_default": _read_proc("/proc/sys/net/core/rmem_default"),
        "rmem_max": _read_proc("/proc/sys/net/core/rmem_max"),
        "udp_so_rcvbuf": rcvbuf,
    }
