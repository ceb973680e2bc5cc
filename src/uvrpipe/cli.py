"""Command-line interface: scenario runs, A/B comparisons, sweeps, runners.

Seed precedence: --seed flag > UVRPIPE_SEED environment variable > scenario
file / preset value. Exit codes: 0 success, 1 configuration/validation error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

from . import report as report_mod
from . import runner as runner_mod
from .pipeline import ab_row, ab_runs, ab_suite, run_scenario
from .report import dump_report, load_report, render_report, render_table, report_file_dict
from .scenario import (
    MAX_TICKS,
    PRESETS,
    ScenarioConfig,
    ScenarioError,
    apply_kv,
    bound_error,
    clock_ticks,
    key_error,
    parse_scenario,
    preset_config,
    validated,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    p.add_argument("--scenario", metavar="FILE", help="scenario file (flat dotted keys)")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one scenario key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")


def _resolve_config(args) -> ScenarioConfig:
    cfg = preset_config(args.preset) if args.preset else ScenarioConfig()
    if args.scenario:
        cfg = parse_scenario(args.scenario, base=cfg)
    errors: list[str] = []
    for pair in args.overrides:
        if "=" not in pair:
            errors.append(f"--set expects KEY=VALUE, got '{pair}'")
            continue
        key, raw = (part.strip() for part in pair.split("=", 1))
        apply_kv(cfg, key, raw, errors, where="--set")
    if errors:
        raise ScenarioError(errors)
    env_seed = os.environ.get("UVRPIPE_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ScenarioError([f"UVRPIPE_SEED is not an integer: {env_seed!r}"])
    if args.seed is not None:
        cfg.seed = args.seed
    return validated(cfg)


def _emit(data: dict, out: Optional[str]) -> None:
    if out:
        dump_report(data, out)
        print(f"report written to {out}")
    print(render_report(data) if "report" in data else json.dumps(data, indent=2))


def cmd_sim_run(args) -> int:
    cfg = _resolve_config(args)
    result = run_scenario(cfg)
    data = report_file_dict(result.metrics)
    trace_path = args.trace
    if trace_path is None and cfg.trace_enabled and args.out:
        trace_path = args.out + ".trace.csv"
    if trace_path:
        report_mod.write_trace(result.records, trace_path)
        print(f"trace written to {trace_path}")
    _emit(data, args.out)
    return EXIT_OK


def cmd_sim_ab(args) -> int:
    cfg = _resolve_config(args)
    if args.toggle == "all":
        suite = ab_suite(cfg)
        rows = [
            (name, report_mod.format_cell(suite["deltas"][name]["delta_ms"]))
            for name in suite["deltas"]
        ]
        rgb_delta = suite["p2p_topology_rgb"]["delta_ms"]
        rows.append(("p2p_topology (RGB)", report_mod.format_cell(rgb_delta)))
        print(render_table(rows, ("toggle", "saved ms")))
        print(
            f"baseline {suite['baseline_mean_ms']} ms, all-on {suite['all_on_mean_ms']} ms,"
            f" interaction residual {suite['interaction_residual_ms']} ms"
        )
        if args.out:
            dump_report(
                {"schema_version": report_mod.SCHEMA_VERSION, "ab_suite": suite}, args.out
            )
        return EXIT_OK
    off, on = ab_runs(cfg, args.toggle)
    result = on if getattr(cfg.toggles, args.toggle) else off  # the run of ``cfg`` itself
    data = report_file_dict(result.metrics, ab=ab_row(args.toggle, off.metrics, on.metrics))
    _emit(data, args.out)
    return EXIT_OK


def cmd_sim_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ScenarioError(["--values must list at least one value"])
    rows = []
    summaries = []
    for value in values:
        sweep_args = argparse.Namespace(**vars(args))
        sweep_args.overrides = list(args.overrides) + [f"{args.key}={value}"]
        cfg = _resolve_config(sweep_args)
        metrics = run_scenario(cfg).metrics
        summaries.append({"value": value, "report": metrics.to_dict()})
        rows.append(
            (
                value,
                report_mod.format_cell(metrics.end_to_end["mean_ms"]),
                report_mod.format_cell(metrics.end_to_end["p99_ms"]),
                metrics.frames["dropped"],
                f"{metrics.network['link_utilization']:.4f}",
            )
        )
    print(render_table(rows, (args.key, "mean ms", "p99 ms", "dropped", "util")))
    if args.out:
        dump_report(
            {
                "schema_version": report_mod.SCHEMA_VERSION,
                "sweep_key": args.key,
                "results": summaries,
            },
            args.out,
        )
    return EXIT_OK


def _parse_addr(raw: str, default_port: int) -> Optional[tuple[str, int]]:
    """(host, port) of ``IPV4HOST[:PORT]``, or None unless PORT is an integer
    in [0, 65535] and the host is no IPv6 address: the runner's sockets are
    ``AF_INET``."""
    host, colon, port = raw.rpartition(":")
    if not colon:
        return raw, default_port
    if any(c in host for c in ":[]"):
        return None
    try:
        number = int(port)
    except ValueError:
        return None
    return (host, number) if 0 <= number <= 0xFFFF else None


def _runner_config(args) -> runner_mod.RunnerConfig:
    cfg = runner_mod.RunnerConfig()
    checks = (("duration_s", args.duration), ("codec.gop_size", args.gop), ("seed", args.seed))
    errors = [e for key, v in checks if v is not None and (e := key_error(key, v))]
    # the host builds its send grid up front, at the codec's rate, which no flag sets
    fps = cfg.codec.fps
    clocks = {"duration_s": args.duration, "render_fps": fps, "codec.fps": fps}
    if not key_error("duration_s", args.duration) and (ticks := clock_ticks(clocks)) > MAX_TICKS:
        errors.append(f"duration_s must be at most {MAX_TICKS} ticks at {fps} FPS, not {ticks}")
    # a mud-only flag that no scenario key owns; nan fails the range too
    induced_loss = getattr(args, "induced_loss", 0.0)
    if error := bound_error("--induced-loss", induced_loss, "in [0, 1]"):
        errors.append(error)
    bind, peer = (_parse_addr(raw, runner_mod.DEFAULT_PORT) for raw in (args.bind, args.peer))
    for flag, addr in (("--bind", bind), ("--peer", peer)):
        if addr is None:
            errors.append(f"{flag} must be IPV4HOST:PORT with PORT in [0, 65535]")
    if errors:  # before any socket opens
        raise ScenarioError(errors)
    cfg.bind, cfg.peer = bind, peer
    cfg.duration_s = args.duration
    cfg.seed = args.seed if args.seed is not None else cfg.seed
    cfg.feedback_control = not args.no_feedback
    if args.gop is not None:
        cfg.codec = replace(cfg.codec, gop_size=args.gop)
    cfg.induced_loss = induced_loss
    return cfg


def _run_role(args, fn) -> int:
    cfg = _runner_config(args)
    stats = fn(cfg)
    data = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "runner_stats": stats.to_dict(),
    }
    if args.out:
        dump_report(data, args.out)
    print(json.dumps(data["runner_stats"], indent=2))
    return EXIT_OK


def cmd_report_show(args) -> int:
    data = load_report(args.file)
    if "report" in data:
        print(render_report(data))
    else:
        print(json.dumps(report_mod.strip_meta(data), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uvrpipe")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="discrete-event simulation")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)

    run_p = sim_sub.add_parser("run", help="run one scenario")
    _add_scenario_args(run_p)
    run_p.add_argument("--trace", metavar="FILE", help="write the per-frame trace here")
    run_p.set_defaults(func=cmd_sim_run)

    ab_p = sim_sub.add_parser("ab", help="compare one toggle off/on (same seed)")
    _add_scenario_args(ab_p)
    ab_p.add_argument("--toggle", required=True, help="toggle name, or 'all'")
    ab_p.set_defaults(func=cmd_sim_ab)

    sweep_p = sim_sub.add_parser("sweep", help="run a scenario across config values")
    _add_scenario_args(sweep_p)
    sweep_p.add_argument("--key", required=True, help="scenario key to vary")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(func=cmd_sim_sweep)

    net = sub.add_parser("net", help="real UDP datagram runners")
    net_sub = net.add_subparsers(dest="net_command", required=True)
    for role, fn in (("host", runner_mod.host_run), ("mud", runner_mod.mud_run)):
        p = net_sub.add_parser(role, help=f"run the {role} role")
        p.add_argument(
            "--bind",
            default=f"127.0.0.1:{runner_mod.DEFAULT_PORT + (0 if role == 'host' else 1)}",
            help="local IPv4 address, IPV4HOST[:PORT]",
        )
        p.add_argument(
            "--peer",
            default=f"127.0.0.1:{runner_mod.DEFAULT_PORT + (1 if role == 'host' else 0)}",
            help="the other role's IPv4 address, IPV4HOST[:PORT]",
        )
        p.add_argument("--duration", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--gop", type=int, default=None)
        p.add_argument("--no-feedback", action="store_true")
        p.add_argument("--out", metavar="FILE")
        if role == "mud":
            p.add_argument("--induced-loss", type=float, default=0.0, dest="induced_loss")
        p.set_defaults(func=lambda a, fn=fn: _run_role(a, fn))

    rep = sub.add_parser("report", help="report utilities")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)
    show_p = rep_sub.add_parser("show", help="render a saved report")
    show_p.add_argument("file")
    show_p.set_defaults(func=cmd_report_show)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except runner_mod.RunnerError as exc:
        print(f"runner error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
