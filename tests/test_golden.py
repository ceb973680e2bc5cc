"""Golden reports: simulator output pinned byte-for-byte.

Each run's report (``meta`` stripped) must equal the stored JSON exactly, and
the fault-drop run's event transcript (``transcript_run.py``), with its
report, must equal the stored ones. The resolved datapath of every toggle
combination and an A/B suite are pinned the same way. Regenerate the files
only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import itertools
import json
from pathlib import Path

import pytest

from transcript_run import TranscriptRun

from uvrpipe.codec import CodecConfig, effective_color_space
from uvrpipe.core import ColorSpace, raw_frame_bytes
from uvrpipe.experiments import recovery_config
from uvrpipe.netsim import ChannelModel, LossModel
from uvrpipe.pipeline import Simulator, ab_suite, run_scenario
from uvrpipe.report import report_file_dict, strip_meta
from uvrpipe.scenario import EncodeMode, preset_config
from uvrpipe.stages import TOGGLE_NAMES, OptimizationToggles, build_datapath, ledger_frame_copies

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT_RUN = "fault_drop"


def _preset(name, seed, duration_s):
    cfg = preset_config(name)
    cfg.seed = seed
    cfg.duration_s = duration_s
    return cfg


def _ge_lossy():
    cfg = _preset("openuvr", 7, 20.0)
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    return cfg


def _infra_lossy():
    # INFRA: hop-2 loss draws and the jitter stream in a whole run
    cfg = _preset("baseline", 11, 20.0)
    cfg.channel.loss_p = 0.02
    cfg.channel.jitter_sigma_us = 40.0
    return cfg


def _ge_fault():
    # a fault frame on a lossy channel: the fault burst draws from the loss
    # stream at the position the other frames' hops left it
    cfg = preset_config("openuvr")
    cfg.duration_s = 10.0
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.fault_drop_frame_id = 300
    return cfg


def _ge_infra():
    # INFRA: both hops of a burst and every control message step one chain
    cfg = _preset("baseline", 11, 20.0)
    cfg.channel.loss_model = LossModel.GILBERT_ELLIOTT
    cfg.channel.jitter_sigma_us = 40.0
    return cfg


def _ge_decode_capped():
    # a decoder below the codec rate on a lossy channel: most frames wait
    # for a token, so the decode tail admits them frame by frame
    cfg = _ge_lossy()
    cfg.codec.decode_fps_cap = 45
    return cfg


def _sync():
    cfg = _preset("baseline", 5, 20.0)
    cfg.encode_mode = EncodeMode.SYNC
    return cfg


RUNS = {
    "baseline": lambda: _preset("baseline", 42, 60.0),
    "openuvr": lambda: _preset("openuvr", 42, 60.0),
    "ge_lossy": _ge_lossy,
    "ge_decode_capped": _ge_decode_capped,
    "infra_lossy": _infra_lossy,
    "ge_fault": _ge_fault,
    "ge_infra": _ge_infra,
    "sync": _sync,
    # one fragment of one frame lost in flight; every other frame is clean
    TRANSCRIPT_RUN: lambda: recovery_config(10_003, feedback=True),
}


def _report_text(result) -> str:
    return json.dumps(strip_meta(report_file_dict(result.metrics)), indent=2) + "\n"


def _transcript_text(transcript) -> str:
    rows = [
        json.dumps([t, kind, arg if isinstance(arg, int) else repr(arg)])
        for t, kind, arg in transcript
    ]
    return "\n".join(rows) + "\n"


def _run(name):
    return run_scenario(RUNS[name]())


def _transcribed():
    """The fault-drop run that heaps every event, with its transcript."""
    sim = TranscriptRun(RUNS[TRANSCRIPT_RUN]())
    return sim.run(), sim.transcript


def _datapaths_text() -> str:
    """Every toggle combination's datapath, default codec and channel.

    The copy ledger is taken for a 1920x1080 frame that encodes to 41,408 bytes.
    """
    raw_rgb = raw_frame_bytes(1920, 1080, ColorSpace.RGB)
    raw_yuv = raw_frame_bytes(1920, 1080, ColorSpace.YUV420)
    rows = []
    for values in itertools.product((False, True), repeat=len(TOGGLE_NAMES)):
        toggles = OptimizationToggles(**dict(zip(TOGGLE_NAMES, values)))
        g = build_datapath(toggles, CodecConfig(), ChannelModel())
        ledger = ledger_frame_copies(g, raw_rgb, raw_yuv, 41_408)
        rows.append(
            {
                "toggles": [name for name, on in zip(TOGGLE_NAMES, values) if on],
                "host_stages": g.host_stages,
                "encode_path_us": g.encode_path_us,
                "host_netstack_us": g.host_netstack_us,
                "link_fixed_us": g.link_fixed_us,
                "mud_service_us": g.mud_service_us,
                "residual_us": g.residual_us,
                "color_space": effective_color_space(g.codec).value,
                "topology": g.channel.topology.value,
                "host_netstack_copies": g.host_netstack_copies,
                "copies": [[stage, nbytes] for stage, nbytes, _ in ledger.entries],
            }
        )
    return json.dumps(rows, indent=2) + "\n"


def _ab_suite_text() -> str:
    return json.dumps(ab_suite(_preset("baseline", 1, 10.0)), indent=2) + "\n"


PINNED = {"datapaths": _datapaths_text, "ab_suite": _ab_suite_text}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    assert _report_text(_run(name)) == (GOLDEN / f"{name}.json").read_text()


def test_transcript_matches_golden():
    result, transcript = _transcribed()
    assert _report_text(result) == (GOLDEN / f"{TRANSCRIPT_RUN}.json").read_text()
    stored = (GOLDEN / f"{TRANSCRIPT_RUN}.transcript.jsonl").read_text()
    assert _transcript_text(transcript) == stored


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output_matches_golden(name):
    assert PINNED[name]() == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_takes_the_expected_path(name):
    # the draw-free runs (and the A/B suite, on baseline) pin the array run;
    # the lossy, jittered and fault runs pin the event loop
    sim = Simulator(RUNS[name]())
    assert sim._draw_free() == (name in {"baseline", "openuvr", "sync"})


def test_decode_capped_run_makes_frames_wait():
    report = json.loads((GOLDEN / "ge_decode_capped.json").read_text())["report"]
    assert report["stages"]["decode-wait"]["mean_ms"] > 0


def test_fault_drop_run_mixes_lost_and_whole_frames():
    report = json.loads((GOLDEN / f"{TRANSCRIPT_RUN}.json").read_text())["report"]
    assert report["frames"]["dropped"] == 1
    assert report["frames"]["presented"] > 1


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        (GOLDEN / f"{name}.json").write_text(_report_text(_run(name)))
        print(f"wrote {name}")
    _, transcript = _transcribed()
    (GOLDEN / f"{TRANSCRIPT_RUN}.transcript.jsonl").write_text(_transcript_text(transcript))
    print(f"wrote {TRANSCRIPT_RUN}.transcript")
    for name, text in PINNED.items():
        (GOLDEN / f"{name}.json").write_text(text())
        print(f"wrote {name}")
