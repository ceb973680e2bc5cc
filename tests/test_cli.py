import json
import warnings

import pytest

from uvrpipe.cli import main
from uvrpipe.pipeline import Simulator
from uvrpipe.report import load_report, strip_meta


def _run_args(tmp_path, name, extra=()):
    out = tmp_path / f"{name}.json"
    argv = [
        "sim", "run", "--preset", "openuvr", "--seed", "42",
        "--set", "duration_s=1",
        "--out", str(out),
        *extra,
    ]
    assert main(argv) == 0
    return out


def test_sim_run_writes_report(tmp_path, capsys):
    out = _run_args(tmp_path, "r")
    data = load_report(out)
    assert data["schema_version"] == 1
    assert data["report"]["seed"] == 42
    assert data["report"]["end_to_end"]["mean_ms"] == pytest.approx(14.32, abs=0.08)
    shares = sum(row["share_pct"] for row in data["breakdown"])
    assert shares == pytest.approx(100.0, abs=0.1)
    shown = capsys.readouterr().out
    assert "end-to-end latency" in shown


# every fragment but one in 10,000 is lost: none of the run's 300 frames is presented
NOTHING_PRESENTED = ["--preset", "openuvr", "--seed", "42", "--set", "channel.loss_p=0.9999",
                     "--set", "duration_s=5"]


def test_a_run_that_presents_no_frame_reports_no_latency(tmp_path, capsys):
    out = tmp_path / "none.json"
    assert main(["sim", "run", *NOTHING_PRESENTED, "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    report = load_report(out)["report"]
    assert report["frames"]["sent"] == 300 and report["frames"]["presented"] == 0
    none = dict(mean_ms=None, p50_ms=None, p99_ms=None)
    assert report["end_to_end"] == dict(none, mean_frames_60fps=None)
    assert report["stages"] and all(dist == none for dist in report["stages"].values())
    breakdown = load_report(out)["breakdown"]
    assert all(row["mean_ms"] is None and row["share_pct"] is None for row in breakdown)
    assert "end-to-end latency: none, no frame was presented" in shown
    assert "0.0 ms" not in shown and "0.000" not in shown
    capsys.readouterr()
    assert main(["report", "show", str(out)]) == 0
    assert "no frame was presented" in capsys.readouterr().out


def test_a_saving_against_a_run_that_presents_no_frame_is_absent(capsys):
    from uvrpipe.pipeline import ab_row, ab_suite, run_scenario
    from uvrpipe.scenario import apply_kv, preset_config

    assert main(["sim", "ab", "--toggle", "feedback_control", *NOTHING_PRESENTED]) == 0
    assert "saves n/a end-to-end" in capsys.readouterr().out
    cfg = preset_config("openuvr")
    cfg.seed = 42
    presenting = run_scenario(cfg).metrics
    errors = []
    for setting in NOTHING_PRESENTED[5::2]:
        apply_kv(cfg, *setting.split("=", 1), errors)
    assert not errors
    nothing = run_scenario(cfg).metrics
    for off, on in ((nothing, presenting), (presenting, nothing)):
        row = ab_row("feedback_control", off, on)
        assert row["delta_ms"] is None
        assert set(row["stage_deltas_ms"].values()) == {None}
    assert ab_row("feedback_control", presenting, presenting)["delta_ms"] == 0.0
    suite = ab_suite(cfg)
    assert suite["baseline_mean_ms"] is None and suite["interaction_residual_ms"] is None
    assert all(row["delta_ms"] is None for row in suite["deltas"].values())


def test_report_show(tmp_path, capsys):
    out = _run_args(tmp_path, "r2")
    capsys.readouterr()
    assert main(["report", "show", str(out)]) == 0
    text = capsys.readouterr().out
    assert "stage" in text and "share" in text


def test_trace_export(tmp_path):
    trace = tmp_path / "t.csv"
    argv = [
        "sim", "run", "--preset", "baseline", "--seed", "1",
        "--set", "duration_s=0.5", "--trace", str(trace),
    ]
    assert main(argv) == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("frame_id,type,forced,gen_us,encoded_us")
    assert len(lines) == 1 + 30  # header + 0.5 s at 60 FPS


def test_trace_enabled_key_writes_beside_report(tmp_path):
    out = tmp_path / "r3.json"
    argv = [
        "sim", "run", "--preset", "baseline", "--seed", "1",
        "--set", "duration_s=0.5", "--set", "trace.enabled=true",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert (tmp_path / "r3.json.trace.csv").exists()


def test_validation_error_exit_code(tmp_path, capsys):
    assert main(["sim", "run", "--set", "codec.gop_size=0", "--set", "duration_s=1"]) == 1
    err = capsys.readouterr().err
    assert "codec.gop_size" in err
    assert main(["sim", "run", "--set", "no.such.key=1"]) == 1


@pytest.mark.parametrize(
    "override",
    [
        "codec.rgb_inflation=inf",
        "channel.jitter_sigma_us=nan",
        "duration_s=1e-7",
        "workload.complexity_sigma=nan",
    ],
)
def test_out_of_range_value_is_a_validation_error(override, capsys):
    argv = ["sim", "run", "--preset", "openuvr", "--set", "duration_s=1", "--set", override]
    assert main(argv) == 1
    key = override.split("=")[0]
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--gop", "0"], "codec.gop_size"),
        (["--duration", "nan"], "duration_s"),
        (["--seed", "-1"], "seed"),
        (["--bind", "127.0.0.1:abc"], "--bind"),
        (["--bind", "127.0.0.1:70000"], "--bind"),
        (["--peer", "127.0.0.1:-5"], "--peer"),
        # the runner's sockets are IPv4 only
        (["--bind", "::1"], "--bind"),
        (["--bind", "[::1]:5000"], "--bind"),
        (["--peer", "::1"], "--peer"),
        (["--peer", "[::1]:5000"], "--peer"),
        # the host's 60-FPS send grid would hold 6,000,001 ticks, past MAX_TICKS
        (["--duration", "1e5"], "duration_s"),
    ],
)
@pytest.mark.parametrize("role", ["host", "mud"])
def test_runner_flags_validated_before_any_socket(role, flags, key, capsys, monkeypatch):
    _assert_rejected_before_any_socket(["net", role, *flags], key, capsys, monkeypatch)


@pytest.mark.parametrize("value", ["nan", "-3", "1.5"])
def test_induced_loss_validated_before_any_socket(value, capsys, monkeypatch):
    # a mud-only flag: nan used to pass and silently measure a loss-free link
    argv = ["net", "mud", "--induced-loss", value]
    _assert_rejected_before_any_socket(argv, "--induced-loss", capsys, monkeypatch)


def _assert_rejected_before_any_socket(argv, key, capsys, monkeypatch):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    def no_grid(*args, **kwargs):
        raise AssertionError("a send grid was built")

    monkeypatch.setattr("uvrpipe.runner._open_socket", no_socket)
    monkeypatch.setattr("uvrpipe.runner.send_grid", no_grid)
    assert main(argv) == 1
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_unfragmentable_config_is_a_validation_error(capsys):
    argv = ["sim", "run", "--preset", "baseline", "--set", "codec.bitrate_bps=1000000000000"]
    assert main(argv) == 1
    assert "fragment" in capsys.readouterr().err


def test_times_past_the_int64_horizon_are_a_validation_error(capsys, monkeypatch):
    # at 1 bps a 60-s baseline run's times could reach 2**62 us; a 1-s one's cannot
    argv = ["sim", "run", "--preset", "baseline", "--set", "channel.bandwidth_bps=1"]
    with monkeypatch.context() as patch:
        patch.setattr("uvrpipe.cli.run_scenario", lambda cfg: pytest.fail("the run started"))
        assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "horizon" in err[0]
    assert main([*argv, "--set", "duration_s=1"]) == 0


@pytest.mark.parametrize("sigma", ["3", "1000"])
def test_a_frame_over_the_fragment_limit_is_a_validation_error(sigma, capsys, monkeypatch):
    # seed 1's 5-s grid draws a frame whose I-frame needs 3,566,298 fragments;
    # at sigma 1000 a complexity overflows to inf, with no numpy warning
    argv = ["sim", "run", "--preset", "openuvr", "--set", f"workload.complexity_sigma={sigma}"]
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr("uvrpipe.cli.run_scenario", lambda cfg: pytest.fail("the run started"))
        assert main([*argv, "--set", "duration_s=5"]) == 1
    err = capsys.readouterr().err.splitlines()
    complexity, fragments = ("44648.7", "3566298") if sigma == "3" else ("inf", "inf")
    assert err == [
        f"config error: seed 1 draws a frame of complexity {complexity} whose I-frame needs"
        f" {fragments} fragments, past the 65535-fragment limit"
    ]


def test_an_ab_suite_validates_every_variant_before_its_first_run(capsys, monkeypatch):
    # the base config encodes in YUV and validates; the suite's RGB variants
    # inflate their frames a millionfold
    runs = []
    real_run = Simulator.run
    monkeypatch.setattr(Simulator, "run", lambda sim: runs.append(sim) or real_run(sim))
    argv = [
        "sim", "ab", "--toggle", "all", "--preset", "baseline",
        "--set", "codec.rgb_inflation=1e6", "--set", "duration_s=0.1",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: seed 1 draws a frame")
    assert runs == []
    # one toggle's comparison too
    assert main([*argv[:3], "transcode_avoidance", *argv[4:]]) == 1
    assert runs == []


def test_seed_precedence(tmp_path, monkeypatch):
    out = tmp_path / "env.json"
    monkeypatch.setenv("UVRPIPE_SEED", "7")
    assert main(["sim", "run", "--set", "duration_s=0.5", "--out", str(out)]) == 0
    assert load_report(out)["report"]["seed"] == 7
    out2 = tmp_path / "flag.json"
    assert main(
        ["sim", "run", "--set", "duration_s=0.5", "--seed", "9", "--out", str(out2)]
    ) == 0
    assert load_report(out2)["report"]["seed"] == 9


def test_ab_single_toggle(tmp_path, capsys, monkeypatch):
    # two runs, the toggle off and then on; the file reports the one whose
    # config is the one given (off on baseline, on on openuvr)
    runs = []
    real_run = Simulator.run
    monkeypatch.setattr(Simulator, "run", lambda sim: runs.append(sim.cfg) or real_run(sim))
    for preset in ("baseline", "openuvr"):
        runs.clear()
        given = ["--preset", preset, "--seed", "42", "--set", "duration_s=2"]
        ab, run = tmp_path / f"{preset}-ab.json", tmp_path / f"{preset}.json"
        argv = ["sim", "ab", "--toggle", "transcode_avoidance", *given, "--out", str(ab)]
        assert main(argv) == 0
        assert [cfg.toggles.transcode_avoidance for cfg in runs] == [False, True]
        assert main(["sim", "run", *given, "--out", str(run)]) == 0
        data = strip_meta(load_report(ab))
        row = data.pop("ab_compare")
        assert data == strip_meta(load_report(run))
        assert row["toggle"] == "transcode_avoidance"
        if preset == "baseline":
            assert row["delta_ms"] == pytest.approx(5.51, abs=0.1)


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = [
        "sim", "sweep", "--key", "codec.gop_size", "--values", "20,480",
        "--preset", "baseline", "--seed", "42", "--set", "duration_s=1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    data = load_report(out)
    assert [r["value"] for r in data["results"]] == ["20", "480"]
    table = capsys.readouterr().out
    assert "codec.gop_size" in table


def test_scenario_file_round_trip(tmp_path):
    from uvrpipe.scenario import emit_scenario, preset_config

    scenario = tmp_path / "openuvr.cfg"
    scenario.write_text(emit_scenario(preset_config("openuvr")))
    out = tmp_path / "file.json"
    argv = [
        "sim", "run", "--scenario", str(scenario),
        "--set", "duration_s=0.5", "--out", str(out),
    ]
    assert main(argv) == 0
    cfg_echo = load_report(out)["report"]["config"]
    assert cfg_echo["codec.gop_size"] == "480"
    assert cfg_echo["toggles.p2p_topology"] == "true"


def test_identical_runs_identical_reports(tmp_path):
    a = _run_args(tmp_path, "a")
    b = _run_args(tmp_path, "b")
    assert strip_meta(load_report(a)) == strip_meta(load_report(b))
