"""A config that validates, runs: a fuzz over the values validation passes.

Validation's seeded check sizes the largest frame of a run's send grid as an
I-frame, so no frame of a validated run exceeds the fragment limit, whatever
the feedback forces to I; its tick bound keeps every grid small enough to
draw. The fuzz crosses complexity sigmas up to 20 with bitrates up to the
fragment limit on both presets, 1-FPS clocks in SYNC and ASYNC, lossy
channels and fault frames. Every config that validates runs to completion
and accounts for each frame it sends; one that does not never starts.
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from uvrpipe.dpp import MAX_FRAGS
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import EncodeMode, ScenarioError, preset_config


def _repro(bitrate_bps):
    # seed 1 at sigma 3: the 5-s grid's largest complexity is 44648.7
    return dict(
        preset="openuvr",
        seed=1,
        duration_s=5.0,
        sigma=3.0,
        bitrate_bps=bitrate_bps,
        clocks=(60, 60),
        mode=EncodeMode.ASYNC,
        gop_size=480,
        loss=(LossModel.GILBERT_ELLIOTT, 0.01),
        fault=-1,
    )


def _config(p):
    cfg = preset_config(p["preset"])
    cfg.seed = p["seed"]
    cfg.duration_s = p["duration_s"]
    cfg.workload.complexity_sigma = p["sigma"]
    cfg.codec.bitrate_bps = p["bitrate_bps"]
    cfg.render_fps, cfg.codec.fps = p["clocks"]
    cfg.encode_mode = p["mode"]
    cfg.codec.gop_size = p["gop_size"]
    cfg.channel.loss_model, cfg.channel.loss_p = p["loss"]
    cfg.fault_drop_frame_id = p["fault"]
    return cfg


def _repro_edge():
    """The highest bitrate at which the repro's largest frame fits."""
    lo, hi = 1, 10**9  # validation passes at lo and fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _config(_repro(mid)).validate() == [] else (lo, mid)
    return lo


EDGE = _repro_edge()

SPACE = st.fixed_dictionaries(
    dict(
        preset=st.sampled_from(["baseline", "openuvr"]),
        seed=st.integers(0, 2**32 - 1),
        duration_s=st.floats(1e-6, 2.0),
        sigma=st.floats(0.0, 20.0),
        # a nominal I-frame of 65,535 fragments takes 0.3 to 72 Gbps at these clocks and GOPs
        bitrate_bps=st.one_of(st.integers(1, 100_000_000), st.integers(1, 80_000_000_000)),
        # (render_fps, codec.fps)
        clocks=st.tuples(st.sampled_from([1, 30, 60, 90]), st.sampled_from([1, 30, 60])),
        mode=st.sampled_from(EncodeMode),
        gop_size=st.sampled_from([1, 20, 480]),
        # (loss model, Bernoulli loss_p), Gilbert-Elliott at its defaults
        loss=st.sampled_from(
            [
                (LossModel.BERNOULLI, 0.0),
                (LossModel.BERNOULLI, 0.05),
                (LossModel.GILBERT_ELLIOTT, 0.01),
            ]
        ),
        fault=st.sampled_from([-1, 0, 2]),
    )
)


def test_the_repro_examples_sit_on_both_sides_of_the_limit():
    assert _config(_repro(EDGE)).validate() == []
    (error,) = _config(_repro(EDGE + 1)).validate()
    prefix = "seed 1 draws a frame of complexity 44648.7 whose I-frame needs "
    assert error.startswith(prefix)
    assert MAX_FRAGS < int(error.removeprefix(prefix).split()[0]) < MAX_FRAGS + 100


@settings(max_examples=1_000, deadline=None)
@given(params=SPACE)
@example(params=_repro(EDGE))
@example(params=_repro(EDGE + 1))
def test_every_validated_config_runs_and_accounts_for_each_frame(params):
    cfg = _config(params)
    errors = cfg.validate()
    event("fails validation" if errors else "validates")
    if errors:
        with pytest.raises(ScenarioError):
            Simulator(cfg)
        return
    metrics = Simulator(cfg).run().metrics
    frames = metrics.frames
    event(f"drops frames: {frames['dropped'] > 0}")
    assert frames["sent"] == frames["presented"] + frames["dropped"] + metrics.unresolved_frames
