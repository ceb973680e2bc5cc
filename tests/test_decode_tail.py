"""The event loop's decode step against the decoder inside the loop.

The MUD decodes a frame as soon as it is whole, so nothing in the event loop
reads the decoder: ``Simulator._decode`` admits the completed frames after
the loop, in the order they completed, with one ``DecodeServer.offer_run``.
The reference is the loop that offered each frame to its decoder as the
frame completed; the report and every frame-table column, with its dtype,
must come out the same.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from method_run import MethodRun
from test_inline_events import REPRO, SPACE, _space_config

from uvrpipe.codec import DecodeServer
from uvrpipe.pipeline import Simulator
from uvrpipe.scenario import preset_config


DECODE_COLUMNS = ("net_us", "queue_wait_us", "decode_start_us", "presented_us")


class PerFrameDecode(MethodRun):
    """The structured event loop (``method_run.py``) with a decoder of its
    own, offered each frame as the frame completes; the decode step after
    the loop only writes down what the loop's decoder gave each frame."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.decoder = DecodeServer(self.codec_cfg.decode_fps_cap)
        self.decoded = {}  # frame id -> its DECODE_COLUMNS values

    def _handle_burst(self, t, event):
        super()._handle_burst(t, event)
        _, k, _, last, delivered, count, _ = event
        if delivered == count:  # the frame completed
            g = self.graph
            net_done = last + g.link_fixed_us
            encoded = self._grid.tick[k] + g.encode_path_us
            start, wait = self.decoder.offer(net_done)
            presented = start + g.mud_service_us + g.residual_us
            self.decoded[k] = (net_done - (encoded + g.host_netstack_us), wait, start, presented)

    def _decode(self, frames):
        for k, values in self.decoded.items():
            for name, value in zip(DECODE_COLUMNS, values):
                frames[name][k] = value


def _outcome(sim):
    result = sim._run_events()
    return (
        json.dumps(result.metrics.to_dict()),
        {name: (column.dtype.str, column.tolist()) for name, column in result.frames.items()},
    )


def _assert_same(cfg):
    assert _outcome(Simulator(cfg)) == _outcome(PerFrameDecode(cfg))


def _tied():
    """Huge I-frames and one-packet P-frames on the openuvr link: a P-frame
    queues behind an I-frame, and its last fragment's jitter can bring it in
    before the I-frame's, where the receiver's FIFO raises it to the same
    time. Two frames then complete, and reach the decoder, at one time."""
    cfg = preset_config("openuvr")
    cfg.seed = 3
    cfg.duration_s = 2.0
    cfg.codec.p_to_i_ratio = Fraction(1, 1000)
    cfg.codec.bitrate_bps = 100_000_000
    cfg.channel.jitter_sigma_us = 400.0
    return cfg


def _capped():
    # a 30-FPS decoder behind a 60-FPS codec, under Gilbert-Elliott loss
    return _space_config(dict(REPRO, drop_deadline_us=100_000, decode_fps_cap=30))


@settings(max_examples=200, deadline=None)
@given(cfg=SPACE.map(_space_config))
@example(cfg=_tied())
@example(cfg=_capped())
def test_decode_step_equals_the_decoder_in_the_loop(cfg):
    _assert_same(cfg)


def test_the_examples_reach_their_edges():
    sim = Simulator(_tied())
    sim._run_events()
    arrivals = [sim._table["arrived_last_us"][k] for k in sim._done]
    assert len(set(arrivals)) < len(arrivals)

    cfg = _capped()
    assert cfg.codec.decode_fps_cap < cfg.codec.fps
    assert Simulator(cfg)._run_events().frames["queue_wait_us"].max() > 0
