"""Scenario configuration, validation, flat-key serialization and presets.

A scenario is serialized as a flat, human-editable key-value text file
(one `section.field = value` per line, `#` comments).  Flat dotted keys
keep config diffs trivial to read.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import sys
import typing
from dataclasses import dataclass, replace
from types import MappingProxyType

from .audio import LAST_POLL_US, AudioPathConfig
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
# but frames and network updates grow with rates that it does not bound;
# at 8 bytes an element, one array stays near 115 MB
MAX_ARRAY_LENGTH = 4 * sample_count(MAX_DURATION_MS)
# latest start second and longest sync lead: a remote run counts true time
# in float us, exact while |sync second| and start + one hour stay < 2**53 us
_MAX_SECONDS = 9_000_000_000
# slowest rate: the schedules count periods in float microseconds, which
# overflow long before a period as long as an hour does
_MIN_RATE_HZ = 1000.0 / MAX_DURATION_MS
_FLOAT_MAX = sys.float_info.max


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


# the single-key rules: a test that the key's value breaks and the message
# naming it (format fields key and value).  nan breaks only the tests that
# need a comparison to hold, and it is reported as not finite besides
_POSITIVE = (lambda value: value <= 0, "{key} must be positive")
_NON_NEGATIVE = (lambda value: value < 0, "{key} must be >= 0")
# never float(value): an int past 1e308 overflows; nan and inf fail
_COUNT = (lambda value: not value >= 0 or isinstance(value, float) and not value.is_integer(),
          "{key} must be a non-negative integer")
_RATE = (lambda value: value < _MIN_RATE_HZ,
         "{key}={value} must be at least one per hour")
_SECONDS = (lambda value: not 1 <= value <= _MAX_SECONDS,
            f"{{key}}={{value}} must lie in [1, {_MAX_SECONDS}] seconds")
_RANGES = {
    "motion.amplitude_deg": _POSITIVE, "motion.period_ms": _POSITIVE,
    **{f"{label}.{field}": rule for label in ("pipeline", "pipeline_b") for field, rule in (
        ("tracking_delay_ms", _NON_NEGATIVE), ("render_compute_ms", _NON_NEGATIVE),
        ("extrapolation_ms", _NON_NEGATIVE), ("refresh_hz", _RATE),
        ("display_persistence_ms", _POSITIVE), ("frame_delay_queue_len", _COUNT))},
    "sensors.rise_time_us": _NON_NEGATIVE, "sensors.pot_noise_sigma": _NON_NEGATIVE,
    "sensors.photo_noise_sigma": _NON_NEGATIVE,
    # an infinite drift is reported as not finite only; no abs(), which
    # overflows on the most negative numpy integer
    **dict.fromkeys(("clock_a.drift_ppm", "clock_b.drift_ppm"), (
        lambda value: -math.inf < value < -1000 or 1000 < value < math.inf,
        "{key} beyond +-1000 is outside the oscillator model")),
    "net.send_rate_hz": _RATE, "net.one_way_delay_ms": _NON_NEGATIVE,
    "net.jitter_ms": _NON_NEGATIVE,
    "audio.path_delay_ms": _NON_NEGATIVE,
    "seed": _COUNT, "angle_range_deg": _POSITIVE,
    "start_utc_second": _SECONDS, "sync_lead_s": _SECONDS,
}


def _is_integer(value) -> bool:
    # what an int key takes, as a float key does besides a float: a number
    # whose type has the __index__ that operator.index asks for, but no bool
    return hasattr(type(value), "__index__") and not isinstance(value, bool)


def _digits(n) -> int:
    """Decimal digits of the integer n, counted without str()."""
    n = abs(operator.index(n))
    d = int(math.log10(n)) + 1  # log10 takes an int past the float range
    return d + (n >= 10 ** d) - (n < 10 ** (d - 1))


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
    return lengths


def validate(scenario: Scenario) -> list:
    """Collect every configuration violation; empty list means valid."""
    return _violations(scenario, scenario_to_flat(scenario))


def _violations(scenario: Scenario, flat: dict) -> list:
    """`validate` on the scenario and its flat view."""
    v: list = []
    numbers = True  # until a value the rules below cannot compare is reported
    for key, value in flat.items():
        kind, breaks, message = _RULES[key]
        is_float = isinstance(value, float)
        integer = not is_float and _is_integer(value)
        # nan passes most range tests and inf several of them
        if is_float and not math.isfinite(value):
            v.append(f"{key} must be finite, got {value}")
        elif integer and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            # a float key's arithmetic would overflow; past str()'s digit
            # limit, no message and no config line can spell the value
            digits = _digits(value)
            if digits > (sys.get_int_max_str_digits() or digits):
                v.append(f"{key} is an integer of {digits} digits, too long to write")
                numbers = False
                continue
            if kind is float:
                v.append(f"{key} is an integer beyond the float range")
                numbers = False
        if (is_float or integer) and breaks is not None and breaks(value):
            v.append(message.format(key=key, value=value))
        elif not (integer or kind is float and is_float):
            v.append(f"{key}={value!r} is a {type(value).__name__}, not "
                     f"{'an integer' if kind is int else 'a float or an integer'}")
            numbers &= is_float  # a float at an int key still compares
    if not numbers:
        return v

    # the rules below read two or more keys, or bound an array length
    m = scenario.motion
    # in Python numbers: numpy integers would wrap or overflow
    center, amplitude = (x if isinstance(x, float) else operator.index(x)
                         for x in (m.center_deg, m.amplitude_deg))
    lo, hi = center - amplitude, center + amplitude
    if scenario.angle_range_deg > 0 and amplitude > 0 and (
            lo < 0 or hi >= scenario.angle_range_deg):
        v.append(f"motion.amplitude_deg={amplitude} around motion.center_deg="
                 f"{center} sweeps [{lo}, {hi}] degrees, outside [0, "
                 f"angle_range_deg={scenario.angle_range_deg})")

    margin_ms = sampling_margin_ms(scenario.sensors)
    for label in ("pipeline", "pipeline_b"):
        p = getattr(scenario, label)
        if p is None:
            continue
        persistence = p.display_persistence_ms
        # a rate or persistence that is not positive is reported above
        if not (p.refresh_hz <= 0 or persistence <= 0):
            frame_ms = 1000.0 / p.refresh_hz
            if persistence < margin_ms:
                v.append(f"{label}.display_persistence_ms={persistence} is too "
                         f"short for the capture to see a settled sample per strobe "
                         f"(needs {margin_ms:.2f} ms at this sensor rise time)")
            elif persistence > frame_ms - margin_ms:
                v.append(f"{label}.display_persistence_ms={persistence} leaves less "
                         f"than {margin_ms:.2f} ms dark per {frame_ms:.2f} ms frame; "
                         "the decoder needs a settled dark sample between strobes")
        # the frame schedule reaches back one frame per queued frame
        queue = p.frame_delay_queue_len
        if queue > MAX_ARRAY_LENGTH and not _COUNT[0](queue):
            v.append(f"{label}.frame_delay_queue_len={queue} "
                     f"exceeds the maximum of {MAX_ARRAY_LENGTH} queued frames")

    # a tone that arrives after the detector's last poll is never heard
    a = scenario.audio
    if a is not None and a.path_delay_ms * 1000.0 > LAST_POLL_US:
        v.append(f"audio.path_delay_ms={a.path_delay_ms} falls after the "
                 f"detector's last poll at {LAST_POLL_US / 1000.0} ms, so "
                 "the tone is never detected")

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
# key -> (int or float, the test its range breaks or None, the message)
_RULES = MappingProxyType({
    key: (int if hint is int else float, *_RANGES.get(key, (None, None)))
    for key, (_, _, hint) in _KEYS.items()})


def _coerce(value, hint):
    # int() and float() strip a string's whitespace themselves;
    # operator.index refuses a number that is not integral, not truncating it
    if isinstance(value, str):
        return int(value) if hint is int else float(value)
    return operator.index(value) if hint is int else float(value)


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
        if obj is not None:
            flat[key] = getattr(obj, field)
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
    # exploratory: receiver extrapolation shortens the one simulated
    # direction, A to B, of the remote path, to about 14 ms
    "remote-asymmetric": {**_REMOTE, "pipeline_b.extrapolation_ms": 15.0},
    "audio-local": {**_DEFAULT_NOISE, "audio.path_delay_ms": 100.0},
    "audio-remote": {**_DEFAULT_NOISE, "audio.path_delay_ms": 144.1},
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
