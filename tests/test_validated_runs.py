"""A config that validates, runs: a fuzz over the values validation passes.

Validation's seeded check sizes the largest frame of a run's send grid as an
I-frame, so no frame of a validated run exceeds the fragment limit, whatever
the feedback forces to I; its tick bound keeps every grid small enough to
draw. The fuzz crosses complexity sigmas up to 20 with bitrates up to the
fragment limit on both presets, 1-FPS clocks in SYNC and ASYNC, lossy
channels and fault frames. Every config that validates runs to completion
and accounts for each frame it sends; one that does not never starts.

Validation also checks each value's type: the fuzz gives one key a value of
another type. Such a config fails validation, unless it is an int for a
float field; then it runs as the config of the same values with the right
types does.
"""

from enum import Enum
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from uvrpipe.dpp import MAX_FRAGS
from uvrpipe.netsim import LossModel
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import _TYPES, KEYS, EncodeMode, ScenarioError, preset_config


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
        retype=None,
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


def _set(cfg, key, value):
    owner_path, _, attr = KEYS[key][0].rpartition(".")
    setattr(attrgetter(owner_path)(cfg) if owner_path else cfg, attr, value)


def _other_types(value):
    """Values of types other than ``value``'s: numbers as near to it as each
    type holds, numpy scalars among them, then its str, None and an
    unhashable list."""
    if isinstance(value, Enum):
        return [value.value, None, [value]]
    near = [round(value), float(value), bool(value), np.int64(round(value)), np.float64(value)]
    return [v for v in near if type(v) is not type(value)] + [str(value), None, [value]]


def _outcome(cfg):
    """A run's report outside its config echo, which formats each value as
    it is given, and its frame table with each column's dtype."""
    result = Simulator(cfg).run()
    report = result.metrics.to_dict()
    del report["config"]
    return report, {k: (col.dtype.str, col.tolist()) for k, col in result.frames.items()}


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
        # one key's value swapped for one of ``_other_types``, by index
        retype=st.one_of(st.none(), st.tuples(st.sampled_from(list(KEYS)), st.integers(0, 7))),
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
    if params["retype"] is not None:
        key, index = params["retype"]
        right = attrgetter(KEYS[key][0])(cfg)
        others = _other_types(right)
        wrong = others[index % len(others)]
        _set(cfg, key, wrong)
        event(f"retyped: {type(wrong).__name__} for {_TYPES[key].__name__}")
        if not cfg.validate():
            assert type(wrong) is int and _TYPES[key] is float
            right_cfg = _config(params)
            _set(right_cfg, key, float(wrong))
            assert _outcome(cfg) == _outcome(right_cfg)
            event("an int for a float runs as the float does")
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


def _openuvr_2s():
    cfg = preset_config("openuvr")
    cfg.duration_s = 2.0
    return cfg


# each validated before validation checked types, then ran as ASYNC, raised
# ``TypeError`` in ``pipeline._timing`` or ``ValueError`` in ``netsim._loss_table``
REPROS = {
    "encode_mode": ("sync", "encode_mode must be of type EncodeMode, not str"),
    "codec.gop_size": (20.0, "codec.gop_size must be of type int, not float"),
    "channel.loss_model": ("bernoulli", "channel.loss_model must be of type LossModel, not str"),
}


@pytest.mark.parametrize("key", sorted(REPROS))
def test_a_wrong_typed_value_fails_validation(key):
    cfg = _openuvr_2s()
    cfg.channel.loss_p = 0.02
    value, error = REPROS[key]
    _set(cfg, key, value)
    with pytest.raises(ScenarioError) as raised:
        Simulator(cfg)
    assert raised.value.errors == [error]


@pytest.mark.parametrize("key", list(KEYS))
def test_a_wrong_type_is_one_error_per_key(key):
    cfg = _openuvr_2s()
    _set(cfg, key, None)
    assert cfg.validate() == [f"{key} must be of type {_TYPES[key].__name__}, not NoneType"]


def test_an_int_passes_for_a_float_field_and_a_bool_for_no_int_field():
    cfg = _openuvr_2s()
    cfg.duration_s = 2
    assert cfg.validate() == []
    assert _outcome(cfg) == _outcome(_openuvr_2s())  # 2 == 2.0
    cfg.render_fps = True
    assert cfg.validate() == ["render_fps must be of type int, not bool"]
