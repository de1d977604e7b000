"""Scenario configuration, validation, flat-key serialization and presets.

A scenario is serialized as a flat, human-editable key-value text file
(one `section.field = value` per line, `#` comments).  Flat dotted keys
keep config diffs trivial to read.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import typing
from dataclasses import dataclass, replace
from types import MappingProxyType

from .audio import DEFAULT_HORIZON_MS, AudioPathConfig
from .clock import SimClock
from .errors import ScenarioValidationError
from .netsim import SEND_WARMUP_MS, NetworkConfig
from .rig import MotionProfile, PipelineConfig, SensorConfig, sample_count

# time for the sensor to move within half a level of its target,
# expressed as a multiple of the 10-90 rise time
_SETTLE_PER_RISE = math.log(14.0) / math.log(9.0)
# longest capture a scenario may ask for: one hour.  A run's memory grows
# with its duration (a remote simulate peaks near 15 MB of arrays per
# minute), so the cap keeps one run near 1 GB
MAX_DURATION_MS = 3_600_000.0
# longest array a run may ask for, in elements: four times the ADC
# samples of the longest capture.  The duration cap bounds the samples,
# but frames, network updates and audio polls grow with rates that it
# does not bound; at 8 bytes an element, one array stays near 115 MB
MAX_ARRAY_LENGTH = 4 * sample_count(MAX_DURATION_MS)
# latest start second and longest sync lead: a remote run counts true time
# in float us, exact while |sync second| and start + one hour stay < 2**53 us
_MAX_SECONDS = 9_000_000_000


def sampling_margin_ms(sensors: SensorConfig) -> float:
    """Strobe timing slack the 1 kHz capture needs on both sides.

    Each strobe burst must contain one sample taken after the sensor has
    settled to within half a level, and each dark gap must contain one
    sample taken after the decay has fallen below half a level.  That is
    one full sampling interval (plus boundary slack) plus the settle
    tail in either direction.
    """
    return 1.05 + sensors.rise_time_us * _SETTLE_PER_RISE / 1000.0


@dataclass(frozen=True)
class Scenario:
    motion: MotionProfile = MotionProfile()
    pipeline: PipelineConfig = PipelineConfig()
    # receiver-side pipeline for networked runs; None means same as pipeline
    pipeline_b: PipelineConfig | None = None
    sensors: SensorConfig = SensorConfig()
    clock_a: SimClock = SimClock()
    clock_b: SimClock = SimClock()
    net: NetworkConfig | None = None
    audio: AudioPathConfig | None = None
    duration_ms: float = 5000.0
    seed: int = 0
    angle_range_deg: float = 360.0
    start_utc_second: int = 100_000
    sync_lead_s: int = 2


def receiver_pipeline(scenario: Scenario) -> PipelineConfig:
    return scenario.pipeline_b if scenario.pipeline_b is not None else scenario.pipeline


def _check_pipeline(label: str, p: PipelineConfig, sensors: SensorConfig,
                    violations: list):
    if p.refresh_hz <= 0:  # reported with the other rates
        return
    frame_ms = 1000.0 / p.refresh_hz
    margin_ms = sampling_margin_ms(sensors)
    if p.display_persistence_ms <= 0:
        violations.append(f"{label}.display_persistence_ms must be positive")
    elif p.display_persistence_ms < margin_ms:
        violations.append(
            f"{label}.display_persistence_ms={p.display_persistence_ms} is too "
            f"short for the capture to see a settled sample per strobe "
            f"(needs {margin_ms:.2f} ms at this sensor rise time)"
        )
    elif p.display_persistence_ms > frame_ms - margin_ms:
        violations.append(
            f"{label}.display_persistence_ms={p.display_persistence_ms} leaves "
            f"less than {margin_ms:.2f} ms dark per {frame_ms:.2f} ms frame; "
            "the decoder needs a settled dark sample between strobes"
        )
    if not _is_count(p.frame_delay_queue_len):
        violations.append(f"{label}.frame_delay_queue_len must be a non-negative integer")
    elif p.frame_delay_queue_len > MAX_ARRAY_LENGTH:
        # the frame schedule reaches back one frame per queued frame
        violations.append(
            f"{label}.frame_delay_queue_len={p.frame_delay_queue_len} "
            f"exceeds the maximum of {MAX_ARRAY_LENGTH} queued frames"
        )
    for name in ("tracking_delay_ms", "render_compute_ms", "extrapolation_ms"):
        if getattr(p, name) < 0:
            violations.append(f"{label}.{name} must be >= 0")


def _is_count(value) -> bool:
    # never float(value): an int past 1e308 overflows; nan and inf fail
    return value >= 0 and (not isinstance(value, float) or value.is_integer())


def _array_lengths(scenario: Scenario):
    """(key, its value, length, what) of every array length a run of the
    scenario implies, up to a few elements of warm-up."""
    seconds = scenario.duration_ms / 1000.0
    lengths = [("duration_ms", scenario.duration_ms,
                sample_count(scenario.duration_ms), "ADC samples")]
    for label in ("pipeline", "pipeline_b"):
        p = getattr(scenario, label)
        if p is not None:
            lengths.append((f"{label}.refresh_hz", p.refresh_hz,
                            seconds * p.refresh_hz, "frames"))
    if scenario.net is not None:
        rate = scenario.net.send_rate_hz
        window_ms = scenario.duration_ms + SEND_WARMUP_MS
        key, value = "net.send_rate_hz", rate
        a, b = (c.drift_ppm * 1e-6 for c in (scenario.clock_a, scenario.clock_b))
        # the sender transmits from the earlier station start to the later
        # end, and the starts lie sync_lead_s seconds of drift apart
        if max(abs(a), abs(b)) <= 1e-3 and 1 <= scenario.sync_lead_s <= _MAX_SECONDS:
            if window_ms / 1000.0 * rate <= MAX_ARRAY_LENGTH:
                key, value = "sync_lead_s", scenario.sync_lead_s
            window_ms += scenario.sync_lead_s * 1e3 * abs(1 / (1 + a) - 1 / (1 + b))
        lengths.append((key, value, window_ms / 1000.0 * rate, "network updates"))
    if scenario.audio is not None:
        rate = scenario.audio.sample_hz
        lengths.append(("audio.sample_hz", rate,
                        DEFAULT_HORIZON_MS / 1000.0 * rate, "audio polls"))
    return lengths


def validate(scenario: Scenario) -> list:
    """Collect every configuration violation; empty list means valid."""
    return _violations(scenario, scenario_to_flat(scenario))


def _violations(scenario: Scenario, flat: dict) -> list:
    """`validate` on the scenario and its flat view."""
    # nan passes every range check below and inf several of them
    v: list = [f"{key} must be finite, got {value}" for key, value in flat.items()
               if isinstance(value, float) and not math.isfinite(value)]
    m = scenario.motion
    if m.amplitude_deg <= 0:
        v.append("motion.amplitude_deg must be positive")
    if m.period_ms <= 0:
        v.append("motion.period_ms must be positive")
    if scenario.angle_range_deg <= 0:
        v.append("angle_range_deg must be positive")
    elif m.amplitude_deg > 0:
        lo = m.center_deg - m.amplitude_deg
        hi = m.center_deg + m.amplitude_deg
        if lo < 0 or hi >= scenario.angle_range_deg:
            v.append(
                f"motion.amplitude_deg={m.amplitude_deg} around motion.center_deg="
                f"{m.center_deg} sweeps [{lo}, {hi}] degrees, outside [0, "
                f"angle_range_deg={scenario.angle_range_deg})"
            )

    _check_pipeline("pipeline", scenario.pipeline, scenario.sensors, v)
    if scenario.pipeline_b is not None:
        _check_pipeline("pipeline_b", scenario.pipeline_b, scenario.sensors, v)

    s = scenario.sensors
    if s.rise_time_us < 0:
        v.append("sensors.rise_time_us must be >= 0")
    for name in ("pot_noise_sigma", "photo_noise_sigma"):
        if getattr(s, name) < 0:
            v.append(f"sensors.{name} must be >= 0")

    for label, c in (("clock_a", scenario.clock_a), ("clock_b", scenario.clock_b)):
        if math.isfinite(c.drift_ppm) and abs(c.drift_ppm) > 1000:
            v.append(f"{label}.drift_ppm beyond +-1000 is outside the oscillator model")

    if scenario.net is not None:
        n = scenario.net
        if n.one_way_delay_ms < 0:
            v.append("net.one_way_delay_ms must be >= 0")
        if n.jitter_ms < 0:
            v.append("net.jitter_ms must be >= 0")
        # an offset into the send grid, as drawn when it is None
        if n.phase_ms is not None and (n.phase_ms < 0 or (
                math.isfinite(n.phase_ms) and n.phase_ms * n.send_rate_hz >= 1000.0)):
            v.append(f"net.phase_ms={n.phase_ms} must lie in [0, 1000 / net.send_rate_hz)")

    if scenario.audio is not None:
        a = scenario.audio
        if a.tone_hz <= 0:
            v.append("audio.tone_hz must be positive")
        if a.path_delay_ms < 0:
            v.append("audio.path_delay_ms must be >= 0")
        if not (0.0 < a.threshold < 1.0):
            v.append("audio.threshold must lie strictly between 0 and 1")
        if not (0.0 < a.attenuation <= 1.0):
            v.append("audio.attenuation must lie in (0, 1]")
        if a.noise_sigma < 0:
            v.append("audio.noise_sigma must be >= 0")
        # a tone the detector can never hear: one that arrives after the
        # last poll `measure_mouth_to_ear` takes, by its own expressions (a
        # rate outside this range is reported below), or one too quiet
        # with no noise to lift it
        if 1000.0 / MAX_DURATION_MS <= a.sample_hz <= MAX_ARRAY_LENGTH:
            step_us = 1e6 / a.sample_hz
            last_poll_us = math.floor(DEFAULT_HORIZON_MS * 1000.0 / step_us) * step_us
            if a.path_delay_ms * 1000.0 > last_poll_us:
                v.append(f"audio.path_delay_ms={a.path_delay_ms} falls after the "
                         f"detector's last poll at {last_poll_us / 1000.0} ms, so "
                         "the tone is never detected")
        if a.noise_sigma == 0 and a.attenuation < a.threshold:
            v.append(f"audio.attenuation={a.attenuation} is below audio.threshold="
                     f"{a.threshold} with audio.noise_sigma = 0, so the tone is "
                     "never detected")

    # the schedules count periods in float microseconds, which overflow
    # long before a period as long as an hour does
    for key in ("pipeline.refresh_hz", "pipeline_b.refresh_hz",
                "net.send_rate_hz", "audio.sample_hz"):
        if flat.get(key, 1.0) < 1000.0 / MAX_DURATION_MS:
            v.append(f"{key}={flat[key]} must be at least one per hour")

    duration = scenario.duration_ms
    if math.isfinite(duration):  # a non-finite one is reported above
        if sample_count(duration) < 1:
            v.append(f"duration_ms={duration} gives no ADC sample; "
                     "it must round to at least 1 ms")
        elif duration > MAX_DURATION_MS:
            v.append(f"duration_ms={duration} exceeds the maximum of "
                     f"{MAX_DURATION_MS:.0f} ms (one hour)")
        else:
            # a non-finite value is reported above; a finite one can
            # still overflow its length to inf, which is reported here
            for key, value, length, what in _array_lengths(scenario):
                if math.isfinite(value) and length > MAX_ARRAY_LENGTH:
                    v.append(f"{key}={value} implies {length:.4g} {what}, "
                             f"above the maximum of {MAX_ARRAY_LENGTH} "
                             "array elements")
    if not _is_count(flat["seed"]):
        v.append("seed must be a non-negative integer")
    for key in ("start_utc_second", "sync_lead_s"):
        if not 1 <= flat[key] <= _MAX_SECONDS:
            v.append(f"{key}={flat[key]} must lie in [1, {_MAX_SECONDS}] seconds")
    return v


def raise_if_invalid(scenario: Scenario) -> dict:
    """Raise ScenarioValidationError listing every violation; return the
    flat view of a valid scenario (`scenario_to_flat`)."""
    flat = scenario_to_flat(scenario)
    violations = _violations(scenario, flat)
    if violations:
        raise ScenarioValidationError(violations)
    return flat


# ---------------------------------------------------------------------------
# flat key-value serialization

# each section is the Scenario attribute of the same name; pipeline_b, net
# and audio default to None, so their classes are named here
_SECTIONS = {
    "motion": MotionProfile,
    "pipeline": PipelineConfig,
    "pipeline_b": PipelineConfig,
    "sensors": SensorConfig,
    "clock_a": SimClock,
    "clock_b": SimClock,
    "net": NetworkConfig,
    "audio": AudioPathConfig,
}


def _key_table():
    """Read-only map of every config key to (section, field, type hint) in
    file order: the sections, then the top-level fields (section None)."""
    table = {}
    for section, cls in (*_SECTIONS.items(), (None, Scenario)):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name not in _SECTIONS:
                key = f.name if section is None else f"{section}.{f.name}"
                table[key] = (section, f.name, hints[f.name])
    return MappingProxyType(table)


_KEYS = _key_table()


def _coerce(value, hint):
    # int() and float() strip the whitespace around a string themselves;
    # operator.index refuses a number that is not integral instead of
    # truncating it; None is kept only where the hint allows it
    if isinstance(value, str):
        return int(value) if hint is int else float(value)
    if hint is int:
        return operator.index(value)
    return value if value is None and hint is not float else float(value)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a flat dict of raw string values.

    A key given twice is an error, not a silent override.
    """
    flat = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioValidationError(
                [f"line {lineno}: expected 'key = value', got {raw!r}"]
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ScenarioValidationError(
                [f"line {lineno}: duplicate key {key!r}, "
                 f"first set on line {first_line[key]}"]
            )
        first_line[key] = lineno
        flat[key] = value
    return flat


def scenario_from_flat(flat: dict) -> Scenario:
    """Build a scenario from flat dotted keys applied over the defaults."""
    sc = Scenario()
    grouped: dict = {}  # section (None for the top level) -> field -> value
    problems = []
    for key, value in flat.items():
        if key not in _KEYS:
            section, dot, _ = key.partition(".")
            what = "section in key" if dot and section not in _SECTIONS else "key"
            problems.append(f"unknown config {what} {key!r}")
            continue
        section, field, hint = _KEYS[key]
        try:
            grouped.setdefault(section, {})[field] = _coerce(value, hint)
        except (TypeError, ValueError):
            problems.append(f"cannot parse value for {key!r}: {value!r}")
    if problems:
        raise ScenarioValidationError(problems)

    updates: dict = grouped.pop(None, {})
    for section, values in grouped.items():
        current = getattr(sc, section) or _SECTIONS[section]()
        updates[section] = replace(current, **values)
    return replace(sc, **updates)


def scenario_to_flat(scenario: Scenario) -> dict:
    """Flat dotted-key view of a scenario (optional sections only if set)."""
    flat: dict = {}
    for key, (section, field, _) in _KEYS.items():
        obj = scenario if section is None else getattr(scenario, section)
        value = None if obj is None else getattr(obj, field)
        if value is not None:
            flat[key] = value
    return flat


def format_config(scenario: Scenario) -> str:
    lines = [f"{key} = {value}" for key, value in scenario_to_flat(scenario).items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets

_VIVE_PIPELINE = {
    "pipeline.tracking_delay_ms": 2.0,
    "pipeline.render_compute_ms": 3.0,
    "pipeline.extrapolation_ms": 5.0,
    "pipeline.refresh_hz": 90.0,
    "pipeline.display_persistence_ms": 1.5,
    "pipeline.frame_delay_queue_len": 0,
}
_DEFAULT_NOISE = {
    "sensors.pot_noise_sigma": 0.001,
    "sensors.photo_noise_sigma": 0.01,
}

# sender forwards its raw platform angle; the receiver renders it
# through a headset-style pipeline without prediction
_REMOTE = {
    "pipeline.render_compute_ms": 1.0,
    "pipeline_b.tracking_delay_ms": 2.0,
    "pipeline_b.render_compute_ms": 3.0,
    "net.send_rate_hz": 29.0,
    "net.one_way_delay_ms": 0.5,
    "clock_a.drift_ppm": 25.0,
    "clock_b.drift_ppm": -25.0,
    **_DEFAULT_NOISE,
}
_AUDIO = {**_DEFAULT_NOISE, "audio.tone_hz": 4000.0, "audio.threshold": 0.5}

PRESETS: dict = {
    # 90 Hz headset-style pipeline with light pose prediction; the
    # measured motion-to-photon latency lands in the 3..10 ms band
    "vive-baseline": {**_VIVE_PIPELINE, **_DEFAULT_NOISE},
    "frame-delay-1": {**_VIVE_PIPELINE, **_DEFAULT_NOISE,
                      "pipeline.frame_delay_queue_len": 1},
    "frame-delay-5": {**_VIVE_PIPELINE, **_DEFAULT_NOISE,
                      "pipeline.frame_delay_queue_len": 5},
    "frame-delay-10": {**_VIVE_PIPELINE, **_DEFAULT_NOISE,
                       "pipeline.frame_delay_queue_len": 10},
    # no configured latency sources and a fast display, for pipeline
    # sanity checks: the estimate collapses to strobe/sampling alignment
    "zero-delay": {"pipeline.refresh_hz": 360.0, "pipeline.display_persistence_ms": 1.4},
    "remote-default": _REMOTE,
    # exploratory: one-sided receiver extrapolation shortens one
    # direction of the remote path, which makes the two directions of a
    # bidirectional setup disagree
    "remote-asymmetric": {**_REMOTE, "pipeline_b.extrapolation_ms": 15.0},
    "audio-local": {**_AUDIO, "audio.path_delay_ms": 100.0},
    "audio-remote": {**_AUDIO, "audio.path_delay_ms": 144.1},
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ScenarioValidationError(
            [f"unknown preset {name!r}; available: {', '.join(preset_names())}"]
        )
    scenario = scenario_from_flat(PRESETS[name])
    raise_if_invalid(scenario)
    return scenario
