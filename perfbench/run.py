"""uvrpipe benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_clean --seed 42 --seconds 30 --trace 0

Workloads: sim_clean, sim_lossy, net_loopback (see perfbench/README.md).
With ``--trace 0`` the result line holds the end-to-end metrics, measured
with nothing wrapped; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
record, with the machine facts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from common import OUT_DIR, PackageMissing, import_package, machine_facts, median

WORKLOADS = ("sim_clean", "sim_lossy", "net_loopback")

# (name, unit); the same names on every workload, defined per workload in README.md
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("cpu_us_per_frame", "us/frame"),
    ("latency_ms", "ms"),
    ("delivered_ratio", "ratio"),
    ("success_rate", "ratio"),
)


class RunFailed(RuntimeError):
    """No unit of the workload completed, so there is nothing to report."""


def _unit_error(errors: list, index: int, exc: BaseException) -> None:
    errors.append({"unit": index, "error": repr(exc), "traceback": traceback.format_exc()})


# --- simulator workloads -------------------------------------------------------


def run_sim(args) -> tuple[dict, dict]:
    from sims import SimWorkload, cpu_us_per_frame, frames_per_s, setup_probes

    details: dict = {"units": [], "errors": []}
    with SimWorkload(args.workload, args.quick) as work:
        if args.trace:
            return _trace_sim(args, work, details)
        setup = setup_probes(args.workload, args.quick)
        units = []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < work.model_units or time.perf_counter() < deadline:
            try:
                unit = work.run_unit(args.seed, index)
            except Exception as exc:  # a failed unit is counted, the run goes on
                _unit_error(details["errors"], index, exc)
            else:
                units.append(unit)
                details["units"].append(_unit_record(unit))
            index += 1
    if not units:
        raise RunFailed(f"every {args.workload} unit failed")
    model = work.model(units)
    failed = index - len(units) + sum(1 for u in units if u.errors)
    metrics = {
        "setup_s": median(setup),
        "frames_per_s": frames_per_s(units),
        "cpu_us_per_frame": cpu_us_per_frame(units),
        "latency_ms": model["model.e2e_mean_ms"],
        "delivered_ratio": model["delivered_ratio"],
        "success_rate": 1.0 - failed / index,
    }
    details.update(setup_probes_s=setup, model=model)
    return _result(index, failed, metrics, END_TO_END), details


def _trace_sim(args, work, details) -> tuple[dict, dict]:
    from layers import PER_LAYER, install_simulator, simulator_metrics
    from sims import frames_per_s
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, attempted = [], [], 0
    # pairs of (untraced, traced) units on the same seed; the traced units
    # are the model units, so the counts repeat exactly for a given seed
    for index in range(work.model_units):
        for is_traced, bucket in ((False, plain), (True, traced)):
            attempted += 1
            if is_traced:
                install_simulator(tracer)
            try:
                unit = work.run_unit(args.seed, index)
            except Exception as exc:
                _unit_error(details["errors"], index, exc)
                continue
            finally:
                tracer.uninstall()
            bucket.append(unit)
            details["units"].append(dict(_unit_record(unit), traced=is_traced))
    if not plain or not traced:
        raise RunFailed(f"no complete pair of {args.workload} units")
    table = tracer.analyse()
    frames = sum(u.frames for u in traced)
    metrics = simulator_metrics(table, [r for u in traced for r in u.reports], frames)
    model = work.model(traced)
    metrics.update({k: v for k, v in model.items() if k in metrics})
    metrics["trace.frames_per_s_untraced"] = frames_per_s(plain)
    metrics["trace.frames_per_s_traced"] = frames_per_s(traced)
    tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
    failed = attempted - len(plain) - len(traced) + sum(1 for u in plain + traced if u.errors)
    return _result(attempted, failed, metrics, PER_LAYER), details


def _unit_record(unit) -> dict:
    return {
        "seed": unit.seed,
        "frames": unit.frames,
        "wall_s": unit.wall_s,
        "cpu_s": unit.cpu_s,
        "slowdown": unit.slowdown,
        "errors": unit.errors,
    }


# --- real runner on loopback -----------------------------------------------------


def run_net(args) -> tuple[dict, dict]:
    import net
    from common import unit_seed

    length, plan = net.sessions_for(args.seconds, args.quick, bool(args.trace))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    sessions, details = [], {"sessions": [], "errors": []}
    failed = 0
    for index, is_traced in enumerate(plan):
        try:
            session = net.run_session(
                unit_seed(args.seed, index),
                length,
                tracer if is_traced else None,
                OUT_DIR / f"spans-net_loopback-host-{args.seed}-{index}.npz",
            )
        except Exception as exc:
            _unit_error(details["errors"], index, exc)
            failed += 1
            continue
        session["traced"] = is_traced
        session["errors"] = net.check(session)
        failed += bool(session["errors"])
        sessions.append(session)
        details["sessions"].append({k: v for k, v in session.items() if k != "layers"})
    plain = [s for s in sessions if not s["traced"]]
    if not plain or (args.trace and len(plain) == len(sessions)):
        raise RunFailed("no complete loopback session")
    if args.trace:
        return _trace_net(args, tracer, sessions, len(plan), failed), details
    sent = sum(s["sent"] for s in sessions)
    metrics = {
        "setup_s": median([s["setup_s"] for s in sessions]),
        "frames_per_s": _sent_per_s(sessions),
        "cpu_us_per_frame": median([_rx_cpu_us(s) + _tx_cpu_us(s) for s in sessions]),
        "latency_ms": median([s["latency_p50_ms"] for s in sessions]),
        "delivered_ratio": sum(s["completed"] for s in sessions) / sent,
        "success_rate": 1.0 - failed / len(plan),
    }
    return _result(len(plan), failed, metrics, END_TO_END), details


def _sent_per_s(sessions: list[dict]) -> float:
    return median([s["sent"] / s["stream_s"] for s in sessions])


def _rx_cpu_us(session: dict) -> float:
    """Receiver CPU per frame sent."""
    return 1e6 * session["rx_cpu_s"] / session["sent"]


def _tx_cpu_us(session: dict) -> float:
    """Host-process CPU per frame sent."""
    return 1e6 * session["tx_cpu_s"] / session["sent"]


def _trace_net(args, tracer, sessions, attempted, failed) -> dict:
    from layers import PER_LAYER, net_metrics, session_metrics

    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    metrics = net_metrics(tracer.analyse(), traced)
    session_metrics(metrics, sessions)
    metrics["runner.rx_cpu_us_per_frame"] = median([_rx_cpu_us(s) for s in plain])
    metrics["runner.tx_cpu_us_per_frame"] = median([_tx_cpu_us(s) for s in plain])
    metrics["trace.rx_cpu_us_per_frame_traced"] = median([_rx_cpu_us(s) for s in traced])
    metrics["trace.frames_per_s_untraced"] = _sent_per_s(plain)
    metrics["trace.frames_per_s_traced"] = _sent_per_s(traced)
    tracer.save(OUT_DIR / f"spans-net_loopback-mud-{args.seed}.npz")
    return _result(attempted, failed, metrics, PER_LAYER)


# --- output -------------------------------------------------------------------------


def _result(attempted: int, failed: int, values: dict, names) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in names},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes for the smoke test: short scenarios, 1-s sessions, one probe",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    try:
        result, details = (run_net if args.workload == "net_loopback" else run_sim)(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for err in details["errors"]:
        print(err["traceback"], file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "machine": facts,
        "result": result,
        "details": details,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-quick" if args.quick else ""
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
