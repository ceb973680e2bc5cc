"""uvrpipe: untethered-VR streaming protocol stack and latency simulator."""

from .codec import CodecConfig, DecodeServer, FrameType, GopWalker
from .core import ColorSpace, EventQueue, RawFrame, Rng, SimTime
from .netsim import ChannelModel, LinkState, Topology
from .pipeline import SimResult, ab_suite, run_scenario
from .scenario import ScenarioConfig, parse_scenario, preset_config
from .stages import OptimizationToggles, build_datapath

__version__ = "0.1.0"

__all__ = [
    "CodecConfig",
    "ChannelModel",
    "ColorSpace",
    "DecodeServer",
    "EventQueue",
    "FrameType",
    "GopWalker",
    "LinkState",
    "OptimizationToggles",
    "RawFrame",
    "Rng",
    "ScenarioConfig",
    "SimResult",
    "SimTime",
    "Topology",
    "ab_suite",
    "build_datapath",
    "parse_scenario",
    "preset_config",
    "run_scenario",
    "__version__",
]
