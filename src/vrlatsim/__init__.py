"""Deterministic latency measurement simulator for distributed VR rigs.

Simulates the full measurement chain: a rotating platform read by a
potentiometer, a render pipeline that encodes the tracked angle as four
octal brightness digits on a strobed display, photosensors sampled at
1 kHz, GPS-style clock synchronization between stations, a lossy-timing
network path, and cross-correlation latency estimation on the captured
traces.
"""
from . import audio, cli, clock, codec, estimator, netsim, rig, scenario, tracefile
from .audio import AudioPathConfig, measure_mouth_to_ear
from .clock import SimClock, local_now
from .errors import (
    AlignmentError,
    CorrelationUndefinedError,
    DecodeError,
    DetectionTimeoutError,
    EstimationError,
    ScenarioValidationError,
    SimulationError,
    TraceFormatError,
    VrLatSimError,
)
from .estimator import (
    CorrelationResult,
    DecodedTrace,
    LatencyReport,
    build_report,
    cross_correlate,
    decode_display_trace,
    decode_pot_trace,
    estimate_remote,
)
from .netsim import NetworkConfig, remote_capture
from .rig import (
    MotionProfile,
    PipelineConfig,
    RawCapture,
    SensorConfig,
    platform_angle,
    run_capture,
)
from .scenario import Scenario, get_preset, preset_names, validate

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AudioPathConfig",
    "CorrelationResult",
    "CorrelationUndefinedError",
    "DecodeError",
    "DecodedTrace",
    "DetectionTimeoutError",
    "EstimationError",
    "LatencyReport",
    "MotionProfile",
    "NetworkConfig",
    "PipelineConfig",
    "RawCapture",
    "Scenario",
    "ScenarioValidationError",
    "SensorConfig",
    "SimClock",
    "SimulationError",
    "TraceFormatError",
    "VrLatSimError",
    "audio",
    "build_report",
    "cli",
    "clock",
    "codec",
    "cross_correlate",
    "decode_display_trace",
    "decode_pot_trace",
    "estimate_remote",
    "estimator",
    "get_preset",
    "local_now",
    "measure_mouth_to_ear",
    "netsim",
    "platform_angle",
    "preset_names",
    "remote_capture",
    "rig",
    "run_capture",
    "scenario",
    "tracefile",
    "validate",
    "__version__",
]
