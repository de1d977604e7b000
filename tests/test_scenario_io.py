"""Scenario validation, flat config parsing and file format tests."""
import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrlatsim import audio as audio_mod
from vrlatsim import cli, netsim, rig
from vrlatsim import scenario as scenario_mod
from vrlatsim import tracebody, tracefile
from vrlatsim.audio import AudioPathConfig
from vrlatsim.clock import SimClock
from vrlatsim.errors import (DetectionTimeoutError, ScenarioValidationError,
                             TraceFormatError)
from vrlatsim.estimator import LatencyReport
from vrlatsim.netsim import NetworkConfig
from vrlatsim.rig import MotionProfile, PipelineConfig, RawCapture, SensorConfig
from vrlatsim.scenario import Scenario
from test_golden import DURATION_MS, SEEDS


def test_default_scenario_is_valid():
    assert scenario_mod.validate(Scenario()) == []


def test_validation_collects_every_violation_at_once():
    bad = Scenario(
        motion=MotionProfile(amplitude_deg=-1.0, period_ms=0.0),
        pipeline=PipelineConfig(refresh_hz=90.0, display_persistence_ms=11.0,
                                frame_delay_queue_len=-2),
        sensors=SensorConfig(pot_noise_sigma=-0.1),
        clock_a=SimClock(drift_ppm=5000.0),
        net=NetworkConfig(send_rate_hz=0.0),
        audio=AudioPathConfig(threshold=1.5),
        duration_ms=-1.0,
        sync_lead_s=0,
    )
    violations = scenario_mod.validate(bad)
    assert len(violations) >= 8
    text = "\n".join(violations)
    for needle in ("amplitude", "period", "persistence", "queue",
                   "send_rate_hz", "pot_noise_sigma", "drift", "threshold",
                   "duration", "sync_lead"):
        assert needle in text


# between them these break every rule of validate; some rules exclude
# others (a zero refresh rate skips the persistence checks, an invalid
# duration skips the array lengths), so one scenario cannot break them all
_RULE_BREAKERS = [
    Scenario(
        motion=MotionProfile(amplitude_deg=-1.0, period_ms=0.0, center_deg=float("nan")),
        pipeline=PipelineConfig(refresh_hz=0.0),
        pipeline_b=PipelineConfig(display_persistence_ms=0.0, frame_delay_queue_len=-1,
                                  tracking_delay_ms=-1.0, render_compute_ms=-1.0,
                                  extrapolation_ms=-1.0),
        sensors=SensorConfig(rise_time_us=-1.0, pot_noise_sigma=-1.0,
                             photo_noise_sigma=-1.0),
        clock_a=SimClock(drift_ppm=5000.0),
        clock_b=SimClock(drift_ppm=-5000.0),
        net=NetworkConfig(send_rate_hz=0.0, one_way_delay_ms=-1.0, jitter_ms=-1.0,
                          phase_ms=-1.0),
        audio=AudioPathConfig(tone_hz=0.0, path_delay_ms=-1.0, threshold=2.0,
                              sample_hz=0.0, attenuation=0.0, noise_sigma=-1.0),
        duration_ms=0.0, seed=-1, angle_range_deg=-1.0, start_utc_second=0,
        sync_lead_s=0,
    ),
    Scenario(
        motion=MotionProfile(amplitude_deg=200.0),
        pipeline=PipelineConfig(display_persistence_ms=0.4),
        pipeline_b=PipelineConfig(display_persistence_ms=10.5, frame_delay_queue_len=10**8),
        duration_ms=1e9, start_utc_second=10**10, sync_lead_s=10**10,
    ),
    Scenario(
        pipeline=PipelineConfig(refresh_hz=1e9),
        net=NetworkConfig(send_rate_hz=1e9),
        audio=AudioPathConfig(sample_hz=1e12),
        duration_ms=2000.0,
    ),
    Scenario(net=NetworkConfig(send_rate_hz=1000.0), clock_a=SimClock(drift_ppm=1000.0),
             sync_lead_s=10**9, duration_ms=2000.0),
]


def test_every_violation_starts_with_its_key():
    violations = [v for sc in _RULE_BREAKERS for v in scenario_mod.validate(sc)]
    for v in violations:
        assert re.match(r"[\w.]+", v).group() in scenario_mod._KEYS, v
    leads = {re.match(r"[\w.]+", v).group() for v in violations}
    assert {"sensors.pot_noise_sigma", "sensors.photo_noise_sigma",
            "motion.amplitude_deg", "clock_b.drift_ppm", "sync_lead_s"} <= leads


def test_motion_must_stay_inside_the_encoder_range():
    wide = Scenario(motion=MotionProfile(amplitude_deg=200.0))
    assert any("sweeps" in v for v in scenario_mod.validate(wide))


def test_persistence_must_leave_a_dark_settled_sample():
    # 90 Hz frame is 11.11 ms; persistence of 10.5 ms leaves too little
    # darkness for the capture to observe a settled black interval
    tight = Scenario(pipeline=PipelineConfig(display_persistence_ms=10.5))
    assert any("dark" in v for v in scenario_mod.validate(tight))
    short = Scenario(pipeline=PipelineConfig(display_persistence_ms=0.4))
    assert any("settled sample" in v for v in scenario_mod.validate(short))


@pytest.mark.parametrize("duration_ms", [0.0, 0.4, 0.5, -3.0])
def test_duration_must_give_one_sample(duration_ms):
    # the capture takes round(duration_ms) samples at 1 kHz; 0.5 rounds to 0
    violations = scenario_mod.validate(Scenario(duration_ms=duration_ms))
    assert [v for v in violations if v.startswith("duration_ms=")]


@pytest.mark.parametrize("duration_ms", [0.51, 1.0, scenario_mod.MAX_DURATION_MS])
def test_duration_inside_the_bounds_is_valid(duration_ms):
    assert scenario_mod.validate(Scenario(duration_ms=duration_ms)) == []


def test_duration_beyond_the_cap_is_named():
    beyond = float(np.nextafter(scenario_mod.MAX_DURATION_MS, np.inf))
    violations = scenario_mod.validate(Scenario(duration_ms=beyond))
    assert len(violations) == 1
    assert violations[0].startswith("duration_ms=")
    assert "exceeds the maximum" in violations[0]


def test_a_network_rate_beyond_the_array_cap_is_named(tmp_path):
    # would ask numpy for 2.3e9 send times (17.9 GiB) in sample_and_send
    config = tmp_path / "fast-link.cfg"
    config.write_text("net.send_rate_hz = 1e9\n")
    with pytest.raises(ScenarioValidationError) as err:
        cli.load_scenario(str(config), duration_ms=2000.0)
    assert [v for v in err.value.violations
            if v.startswith("net.send_rate_hz=") and "network updates" in v]


def test_an_audio_poll_rate_beyond_the_array_cap_is_named():
    # would ask numpy for 1e13 poll instants in measure_mouth_to_ear
    flat = {**scenario_mod.PRESETS["audio-local"], "audio.sample_hz": 1e12}
    violations = scenario_mod.validate(scenario_mod.scenario_from_flat(flat))
    assert len(violations) == 1
    assert violations[0].startswith("audio.sample_hz=")
    assert "audio polls" in violations[0]


def _audio_scenario(**audio):
    flat = {**scenario_mod.PRESETS["audio-local"],
            **{f"audio.{key}": value for key, value in audio.items()}}
    return scenario_mod.scenario_from_flat(flat)


@pytest.mark.parametrize("sample_hz,last_ms", [(1000.0, 10000.0),
                                               (0.45, 8888.888888888889)])
def test_an_audio_delay_after_the_last_poll_is_named(sample_hz, last_ms):
    # the detector polls every 1e6 / sample_hz us within the 10 s horizon;
    # at 0.45 Hz its last poll comes at 8888.9 ms.  A tone there is heard,
    # one after it never is, and validate says so before any capture
    for delay_ms, heard in ((last_ms, True),
                            (float(np.nextafter(last_ms, np.inf)), False),
                            (9000.0, sample_hz == 1000.0), (20000.0, False)):
        sc = _audio_scenario(sample_hz=sample_hz, path_delay_ms=delay_ms)
        violations = scenario_mod.validate(sc)
        if heard:
            assert violations == []
            assert audio_mod.measure_mouth_to_ear(sc.audio) == math.ceil(delay_ms)
        else:
            assert len(violations) == 1, violations
            assert violations[0].startswith(f"audio.path_delay_ms={delay_ms} ")
            with pytest.raises(DetectionTimeoutError):
                audio_mod.measure_mouth_to_ear(sc.audio)


@pytest.mark.parametrize("attenuation,noise_sigma,valid", [
    (0.4, 0.0, False), (0.5, 0.0, True), (0.4, 0.05, True)])
def test_a_noiseless_tone_below_the_threshold_is_named(attenuation, noise_sigma,
                                                       valid):
    # threshold 0.5: a noiseless tone at 0.4 never reaches it, one at 0.5
    # does, and noise makes a crossing possible
    sc = _audio_scenario(attenuation=attenuation, noise_sigma=noise_sigma)
    violations = scenario_mod.validate(sc)
    assert violations == ([] if valid else [
        "audio.attenuation=0.4 is below audio.threshold=0.5 with "
        "audio.noise_sigma = 0, so the tone is never detected"])


@pytest.mark.parametrize("key,value", [
    ("pipeline.refresh_hz", 1e9),
    ("pipeline_b.refresh_hz", 1e9),
    ("pipeline.frame_delay_queue_len", 10**8),
    ("pipeline_b.frame_delay_queue_len", 10**400),
], ids=["refresh", "refresh-b", "queue", "queue-b-401-digits"])
def test_a_frame_count_beyond_the_array_cap_is_named(key, value):
    flat = {**scenario_mod.PRESETS["remote-default"], key: value}
    violations = scenario_mod.validate(scenario_mod.scenario_from_flat(flat))
    assert [v for v in violations if v.startswith(f"{key}=")]


@pytest.mark.parametrize("factor,valid", [(0.999, True), (1.001, False)])
def test_the_array_cap_sits_where_it_is_stated(factor, valid):
    # 2000 ms plus the 300 ms send warm-up
    rate = scenario_mod.MAX_ARRAY_LENGTH / 2.3 * factor
    sc = Scenario(duration_ms=2000.0, net=NetworkConfig(send_rate_hz=rate))
    assert (scenario_mod.validate(sc) == []) == valid


def test_an_overflowing_length_is_named_not_skipped():
    sc = Scenario(duration_ms=scenario_mod.MAX_DURATION_MS,
                  net=NetworkConfig(send_rate_hz=1e308))
    violations = scenario_mod.validate(sc)
    assert len(violations) == 1
    assert violations[0].startswith("net.send_rate_hz=1e+308 implies inf")


def _remote_violations(**keys):
    flat = {**scenario_mod.PRESETS["remote-default"], **keys}
    return scenario_mod.validate(scenario_mod.scenario_from_flat(flat))


def test_a_start_spread_beyond_the_array_cap_names_the_sync_lead():
    # remote-default's +-25 ppm clocks start 50 s apart after a 1e9 s lead,
    # and the sender transmits at 1 kHz from the one start to the other
    violations = _remote_violations(**{"net.send_rate_hz": 1000.0, "sync_lead_s": 10**9})
    assert len(violations) == 1
    assert violations[0].startswith("sync_lead_s=1000000000 implies 5.001e+07 network updates")


@pytest.mark.parametrize("lead", [2, 1000, 10**6, 9 * 10**9])
def test_the_start_spread_is_the_gap_between_the_synced_starts(lead):
    # at 1 kHz the network-update count reads the send window in ms
    sc = scenario_mod.scenario_from_flat({**scenario_mod.PRESETS["remote-default"],
                                          "net.send_rate_hz": 1000.0, "sync_lead_s": lead})
    [(_, _, updates, _)] = [length for length in scenario_mod._array_lengths(sc)
                            if length[3] == "network updates"]
    gap_ms = abs(netsim._synced_start_us(sc.clock_a, 1, sc)
                 - netsim._synced_start_us(sc.clock_b, 2, sc)) / 1000.0
    assert updates - sc.duration_ms - netsim.SEND_WARMUP_MS == pytest.approx(gap_ms, abs=0.2)


@pytest.mark.parametrize("key,value,valid", [
    ("start_utc_second", 9_000_000_000, True),
    ("start_utc_second", 9_000_000_001, False),
    ("start_utc_second", 10**30, False),
    ("sync_lead_s", 9_000_000_000, True),
    ("sync_lead_s", 9_000_000_001, False),
    ("sync_lead_s", 10**400, False),
], ids=["start-max", "start-beyond", "start-1e30", "lead-max", "lead-beyond",
        "lead-401-digits"])
def test_the_time_base_bounds_start_and_sync_lead(key, value, valid):
    # beyond 2**53 us a remote run's time base loses its 1 us resolution,
    # and a lead of 10**400 s overflowed the float conversion
    assert _remote_violations(**{key: value}) == ([] if valid else
                          [f"{key}={value} must lie in [1, 9000000000] seconds"])


@pytest.mark.parametrize("key,value", [
    ("pipeline.refresh_hz", 1e-302), ("pipeline_b.refresh_hz", 1e-4),
    ("net.send_rate_hz", 2.2250738585e-313), ("audio.sample_hz", 1e-4),
])
def test_a_rate_below_one_per_hour_is_named(key, value):
    # 1000 / 1e-302 ms frames overflowed the frame schedule to inf, and
    # 1e6 / 2.2e-313 us send intervals numpy's uniform phase draw
    flat = {**scenario_mod.PRESETS["remote-default"], **scenario_mod.PRESETS["audio-local"],
            key: value}
    violations = scenario_mod.validate(scenario_mod.scenario_from_flat(flat))
    assert violations == [f"{key}={value} must be at least one per hour"]


@pytest.mark.parametrize("phase_ms,valid", [(0.0, True), (34.48, True), (34.49, False),
                                            (1.7976931348623157e305, False)])
def test_the_send_phase_lies_inside_one_send_interval(phase_ms, valid):
    # 29 Hz sends every 34.483 ms; 1.8e305 ms overflowed to inf in microseconds
    violations = _remote_violations(**{"net.phase_ms": phase_ms})
    assert violations == ([] if valid else [
        f"net.phase_ms={phase_ms} must lie in [0, 1000 / net.send_rate_hz)"])


def test_raise_if_invalid_raises_with_the_violation_list():
    bad = Scenario(duration_ms=0.0)
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.raise_if_invalid(bad)
    assert err.value.violations


def test_receiver_pipeline_falls_back_to_the_sender_pipeline():
    sc = Scenario()
    assert scenario_mod.receiver_pipeline(sc) is sc.pipeline
    other = PipelineConfig(tracking_delay_ms=9.0)
    sc2 = replace(sc, pipeline_b=other)
    assert scenario_mod.receiver_pipeline(sc2) is other


def test_every_preset_loads_and_validates():
    for name in scenario_mod.preset_names():
        sc = scenario_mod.get_preset(name)
        assert scenario_mod.validate(sc) == [], name


def test_unknown_preset_is_a_validation_error():
    with pytest.raises(ScenarioValidationError):
        scenario_mod.get_preset("warp-drive")


def _load_config_text(tmp_path, text):
    """Load config text the way `--config file.cfg` does."""
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return cli.load_scenario(str(path))


def test_config_text_round_trip(tmp_path):
    sc = scenario_mod.get_preset("remote-default")
    text = scenario_mod.format_config(sc)
    back = _load_config_text(tmp_path, text)
    assert back == sc


def test_config_round_trip_for_every_preset(tmp_path):
    for name in scenario_mod.preset_names():
        sc = scenario_mod.get_preset(name)
        assert _load_config_text(tmp_path, scenario_mod.format_config(sc)) == sc


def test_config_parsing_handles_comments_and_blanks(tmp_path):
    text = """
# a comment line
pipeline.tracking_delay_ms = 2.5   # trailing comment

duration_ms = 2500
seed = 9
"""
    sc = _load_config_text(tmp_path, text)
    assert sc.pipeline.tracking_delay_ms == 2.5
    assert sc.duration_ms == 2500.0
    assert sc.seed == 9


def test_config_enables_optional_sections_on_first_key(tmp_path):
    sc = _load_config_text(tmp_path, "net.one_way_delay_ms = 1.25\n")
    assert sc.net == NetworkConfig(one_way_delay_ms=1.25)
    assert sc.audio is None
    assert sc.pipeline_b is None


def test_unknown_config_keys_are_all_reported():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.scenario_from_flat({
            "pipeline.warp_factor": "9",
            "engine.thrust": "1",
            "speed": "3",
        })
    joined = "\n".join(err.value.violations)
    assert "pipeline.warp_factor" in joined
    assert "engine.thrust" in joined
    assert "speed" in joined


def test_unparseable_values_are_reported_with_their_key():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.scenario_from_flat({"pipeline.refresh_hz": "banana"})
    assert "pipeline.refresh_hz" in "\n".join(err.value.violations)


@pytest.mark.parametrize("key", ["sensors.adc_sample_hz", "sensors.adc_conversion_us",
                                 "motion.kind", "clock_a.epoch_offset_us",
                                 "clock_b.epoch_offset_us", "clock_a.seed",
                                 "clock_b.seed"])
def test_fixed_rig_settings_are_not_config_keys(key):
    # the ADC rate (1 kHz) and the motion (sinusoidal) are fixed, a clock's
    # epoch offset cancels in the GPS sync, and each station's timepulse
    # jitter is seeded by its fixed tag
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.scenario_from_flat({key: "1000"})
    assert err.value.violations == [f"unknown config key {key!r}"]


# every section set, so that every float key of a scenario is checked
_FULL_SCENARIO = scenario_mod.scenario_from_flat({
    **scenario_mod.PRESETS["remote-default"], **scenario_mod.PRESETS["audio-local"],
    "net.phase_ms": 3.0,
})
_FLOAT_KEYS = [key for key, value in scenario_mod.scenario_to_flat(_FULL_SCENARIO).items()
               if isinstance(value, float)]


def test_the_full_scenario_is_valid_and_has_every_section():
    assert scenario_mod.validate(_FULL_SCENARIO) == []
    assert None not in (_FULL_SCENARIO.pipeline_b, _FULL_SCENARIO.net,
                        _FULL_SCENARIO.audio, _FULL_SCENARIO.net.phase_ms)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_values_are_rejected_with_their_key(key, value):
    flat = {**scenario_mod.scenario_to_flat(_FULL_SCENARIO), key: value}
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.raise_if_invalid(scenario_mod.scenario_from_flat(flat))
    assert f"{key} must be finite" in "\n".join(err.value.violations)


@pytest.mark.parametrize("key", ["pipeline.refresh_hz", "pipeline_b.refresh_hz",
                                 "net.send_rate_hz", "audio.sample_hz"])
def test_an_infinite_rate_is_reported_once_not_as_a_length(key):
    flat = {**scenario_mod.scenario_to_flat(_FULL_SCENARIO), key: "inf"}
    violations = scenario_mod.validate(scenario_mod.scenario_from_flat(flat))
    assert [v for v in violations if v.startswith(key)] == \
        [f"{key} must be finite, got inf"]


def test_an_infinite_drift_is_reported_once():
    flat = {**scenario_mod.scenario_to_flat(_FULL_SCENARIO), "clock_a.drift_ppm": "inf"}
    violations = scenario_mod.validate(scenario_mod.scenario_from_flat(flat))
    assert [v for v in violations if v.startswith("clock_a.")] == \
        ["clock_a.drift_ppm must be finite, got inf"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", [key for key, (_, _, hint) in scenario_mod._KEYS.items()
                                 if hint is int])
def test_a_non_finite_integer_is_reported_not_raised(key, value):
    # a config file cannot put a float under an int key, but a Scenario
    # built in Python can, and validate must report it with its key
    section, name, _ = scenario_mod._KEYS[key]
    if section is None:
        sc = replace(_FULL_SCENARIO, **{name: value})
    else:
        part = replace(getattr(_FULL_SCENARIO, section), **{name: value})
        sc = replace(_FULL_SCENARIO, **{section: part})
    violations = scenario_mod.validate(sc)
    # once as not finite, once by the key's own range or integer check
    named = [v for v in violations if v.startswith(key)]
    assert len(named) == 2 and named[0] == f"{key} must be finite, got {value}"


def test_section_fields_are_resolved_once_and_read_only():
    keys = scenario_mod._KEYS
    assert keys["pipeline.refresh_hz"] == ("pipeline", "refresh_hz", float)
    with pytest.raises(TypeError):
        keys["pipeline.refresh_hz"] = ("pipeline", "refresh_hz", int)
    assert [key for key in keys if key.startswith("clock_a.")] == \
        ["clock_a.drift_ppm"]
    assert keys["seed"] == (None, "seed", int)


# SHA-256 of format_config of every preset; the presets are built from
# shared fragments, and each must still spell the same scenario
_PRESET_CONFIG_SHA256 = {
    "audio-local": "a105b79dafea3e3aa46a558c91f54fce4ee7db3fcbd92ddb0a14a5a05b411d2a",
    "audio-remote": "25d35be76c9ea518c8175249a88a53fb7a82592c8e30747841a784b7d021f7a6",
    "frame-delay-1": "e2631012a3d3a47388f4c7b44264c2cc15906e8a329deb57efd010b8497621e5",
    "frame-delay-10": "0da80207898b017a37b2535f5bb103d1486dd9340fa8c0b2b9862fefda7f9a60",
    "frame-delay-5": "4a374bdb91fa2206bc3f902fe34010e2061a3d6fc6dcefad889b32b98599e039",
    "remote-asymmetric": "4e68466e140d66a646857876305acfc4dee38a92b99fdd219d12bb4af6708f83",
    "remote-default": "ecd47e368f2bdc6b4e7b30c3fe6fc6c411959ae2b86e5e8c16ae33881b27dff8",
    "vive-baseline": "d36b79fdbad149cac6b929bdc6632a87a183c04135b1a045620580362105f100",
    "zero-delay": "4c00d4b80e1a3164ca5c98f5088fd206d76b8f2194b60edc8a23f94c4a1bd129",
}


def test_every_preset_spells_its_pinned_config():
    assert scenario_mod.preset_names() == sorted(_PRESET_CONFIG_SHA256)
    for name, digest in _PRESET_CONFIG_SHA256.items():
        text = scenario_mod.format_config(scenario_mod.get_preset(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("key,value", [("pipeline.frame_delay_queue_len", 2.7),
                                       ("seed", 1.5), ("seed", 2.0), ("seed", None)])
def test_an_int_key_refuses_a_number_that_is_not_an_integer(key, value):
    # the config text 2.7 is refused, so the number 2.7 is too, not truncated
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.scenario_from_flat({key: value})
    assert err.value.violations == [f"cannot parse value for {key!r}: {value!r}"]


def test_only_a_key_whose_default_is_none_takes_none():
    sc = scenario_mod.scenario_from_flat({"net.phase_ms": None, "seed": np.int64(3)})
    assert sc.net == NetworkConfig(phase_ms=None)
    assert sc.seed == 3
    with pytest.raises(ScenarioValidationError):
        scenario_mod.scenario_from_flat({"net.send_rate_hz": None})


def test_lines_without_equals_are_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.parse_config_text("pipeline.refresh_hz 90\n")
    assert "line 1" in "\n".join(err.value.violations)


def test_duplicate_keys_are_rejected_with_both_lines():
    text = ("seed = 1\n"
            "# a comment line\n"
            "pipeline.refresh_hz = 90\n"
            "  seed=2  # the same key, spaced differently\n")
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.parse_config_text(text)
    assert err.value.violations == [
        "line 4: duplicate key 'seed', first set on line 1"
    ]
    # keys of different sections are different keys
    flat = scenario_mod.parse_config_text("pipeline.refresh_hz = 90\n"
                                          "pipeline_b.refresh_hz = 60\n")
    assert flat == {"pipeline.refresh_hz": "90", "pipeline_b.refresh_hz": "60"}


def _sample_capture(n=50):
    rng = np.random.default_rng(0)
    return RawCapture(
        station_id="A",
        start_utc_us=100_000 * 1_000_000,
        pot=rng.uniform(0.0, 1.0, size=n),
        photo=rng.uniform(0.0, 1.0, size=(n, 4)),
    )


def test_trace_round_trip_preserves_the_rounded_capture(tmp_path):
    capture = tracefile.quantize_capture(_sample_capture())
    path = str(tmp_path / "trace_A.csv")
    tracefile.write_trace(path, capture)
    back = tracefile.read_trace(path)
    assert back.station_id == capture.station_id
    assert back.start_utc_us == capture.start_utc_us
    with open(path) as handle:
        assert "# interval_ms = 1.0\n" in handle.read()
    assert np.array_equal(back.pot, capture.pot)
    assert np.array_equal(back.photo, capture.photo)


def test_trace_rewrite_is_byte_identical(tmp_path):
    capture = tracefile.quantize_capture(_sample_capture())
    first = str(tmp_path / "one.csv")
    second = str(tmp_path / "two.csv")
    tracefile.write_trace(first, capture)
    tracefile.write_trace(second, tracefile.read_trace(first))
    with open(first, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()


def test_quantize_capture_rounds_to_file_precision():
    capture = _sample_capture()
    pot, photo = np.round(capture.pot, 6), np.round(capture.photo, 6)
    rounded = tracefile.quantize_capture(capture)
    assert np.array_equal(rounded.pot, pot)
    assert np.array_equal(rounded.photo, photo)


def test_golden_values_sit_far_from_a_rounding_tie():
    # quantize_capture rounds to 1e-6, so a sensor value a few ulps from
    # a tie (k + 0.5) * 1e-6 could round the other way, and change the
    # trace bytes, where np.exp differs by its 1-4 ulps between SIMD
    # kernels.  The closest pre-rounding value of the golden runs sits
    # 12 405 ulps from its tie (the seed 2 station A pot of both remote
    # presets, 1.38e-12 below 0.5659895).
    scale = 10.0 ** tracefile.VALUE_DECIMALS
    closest = np.inf
    for preset in scenario_mod.preset_names():
        for seed in SEEDS:
            sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
            captures = (netsim.remote_capture(sc) if sc.net is not None
                        else [rig.run_capture(sc)])
            for capture in captures:
                for values in (capture.pot, capture.photo):
                    tie = (np.floor(values * scale) + 0.5) / scale
                    ulps = np.abs(values - tie) / np.spacing(np.abs(tie))
                    closest = min(closest, ulps.min())
    assert closest >= 1000, f"a golden value sits {closest:.0f} ulps from a tie"


_ROW = "0.100000,0.200000,0.300000,0.400000,0.500000"
_HEADER = ",".join(tracefile._HEADER_COLUMNS)
_META = "# station_id = A\n# start_utc_us = 0\n# interval_ms = 1.0\n"


def test_trace_parser_reports_the_offending_row():
    text = _META + _HEADER + "\n" + f"0,{_ROW}\n" + "1,0.100000,0.200000\n"
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text.encode(), source="broken.csv")
    assert str(err.value).startswith("broken.csv:6: ")


def test_trace_parser_rejects_out_of_order_rows():
    text = _META + _HEADER + "\n" + f"0,{_ROW}\n" + f"2,{_ROW}\n"
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text.encode(), source="src.csv")
    assert str(err.value).startswith(
        "src.csv:6: expected row '1,d.dddddd,d.dddddd,d.dddddd,d.dddddd,d.dddddd'"
        " with every value in [0, 1], got '2,")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("column", [1, 3])
def test_trace_parser_rejects_non_finite_samples(bad, column):
    row = ["1"] + _ROW.split(",")
    row[column] = bad
    text = _META + _HEADER + "\n" + f"0,{_ROW}\n" + ",".join(row) + "\n"
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text.encode(), source="bad.csv")
    assert str(err.value).startswith("bad.csv:6: expected row '1,")


def test_trace_parser_requires_metadata_and_samples():
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(f"{_HEADER}\n0,{_ROW}\n".encode(), source="src.csv")
    assert str(err.value).startswith("src.csv:1: expected '# station_id = ...'")
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace((_META + _HEADER + "\n").encode(), source="src.csv")
    assert str(err.value) == (
        "src.csv:5: expected row '0,d.dddddd,d.dddddd,d.dddddd,d.dddddd,d.dddddd'"
        " with every value in [0, 1], got the end of the file")
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(b"", source="src.csv")
    assert str(err.value).startswith("src.csv:1: ")


# ---------------------------------------------------------------------------
# the per-row trace writer and reader the array versions replaced, kept as
# the reference they must agree with

def _per_row_format_trace(capture):
    lines = [
        f"# station_id = {capture.station_id}",
        f"# start_utc_us = {capture.start_utc_us!r}",
        "# interval_ms = 1.0",
        ",".join(tracefile._HEADER_COLUMNS),
    ]
    fmt = f"%.{tracefile.VALUE_DECIMALS}f"
    for i in range(len(capture)):
        row = [str(i), fmt % capture.pot[i]]
        row.extend(fmt % v for v in capture.photo[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _per_row_parse_trace(text):
    lines = text.split("\n")
    meta = dict(line[2:].split(" = ", 1) for line in lines[:3])
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines[4:-1]]
    return RawCapture(
        station_id=meta["station_id"],
        start_utc_us=int(meta["start_utc_us"]),
        pot=np.array([row[0] for row in rows]),
        photo=np.array([row[1:] for row in rows]).reshape(-1, 4),
    )


# samples in [0, 1] whose %.6f text is easy to get wrong: decimal
# near-ties, exact binary ties (2**-7 = 0.0078125 rounds half to even),
# subnormals and the ends of the range
_AWKWARD_VALUES = [
    0.0, 0.0000005, 0.0000015, 0.0000025, 0.1234565, 2.0 ** -7, 3 * 2.0 ** -7,
    2.0 ** -21, 1.0, 0.5, 0.9999995, 5e-324, 1e-300,
]


def _unit_capture(n, seed):
    # unquantized sensor values, the ends of the range and awkward values
    # spliced in
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=(n, 5))
    values[rng.random((n, 5)) < 0.1] = 0.0
    values[rng.random((n, 5)) < 0.1] = 1.0
    awkward = rng.random((n, 5)) < 0.2
    values[awkward] = rng.choice(_AWKWARD_VALUES, size=int(awkward.sum()))
    return RawCapture(
        station_id="A",
        start_utc_us=int(rng.integers(-2**53 + 1, 2**53)),
        pot=values[:, 0].copy(),
        photo=values[:, 1:].copy(),
    )


def _canonical_capture(n, seed):
    return tracefile.quantize_capture(_unit_capture(n, seed))


# lengths that cross the decades of the index width, the 1000-row period
# of the index text and the block edges
_CANONICAL_LENGTHS = [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1999, 2000,
                      2001, tracebody.BLOCK_ROWS - 1, tracebody.BLOCK_ROWS,
                      tracebody.BLOCK_ROWS + 1, 9999, 10000, 10001, 10999,
                      11000, 11001]


@pytest.mark.parametrize("n", [0] + _CANONICAL_LENGTHS)
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_writer_matches_the_per_row_oracle(n, seed):
    # the writer rounds as it spells: an unquantized capture is written as
    # its quantize_capture is
    capture = _unit_capture(n, seed)
    assert tracefile.format_trace(capture) == _per_row_format_trace(
        tracefile.quantize_capture(capture)).encode()


@pytest.mark.parametrize("n", [0, 1, 10001])
def test_write_trace_writes_the_formatted_bytes(n, tmp_path):
    capture = _unit_capture(n, seed=n)
    tracefile.write_trace(str(tmp_path / "t.csv"), capture)
    want = _per_row_format_trace(tracefile.quantize_capture(capture))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   -0.0, -4e-7, -1e-6, 1.000001])
@pytest.mark.parametrize("row,column", [(0, 0), (2 * tracebody.BLOCK_ROWS + 5, 4)])
def test_writer_refuses_samples_that_do_not_round_into_the_unit_range(
        value, row, column, tmp_path):
    # -4e-7 rounds to -0.0, which %.6f spells "-0.000000"
    capture = _canonical_capture(3 * tracebody.BLOCK_ROWS, seed=row)
    if column == 0:
        capture.pot[row] = value
    else:
        capture.photo[row, column - 1] = value
    message = f"row {row}, column {tracefile._HEADER_COLUMNS[column + 1]}: {value!r} "
    with pytest.raises(ValueError) as err:
        tracefile.format_trace(capture)
    assert str(err.value).startswith(message)
    with pytest.raises(ValueError) as err:
        tracefile.write_trace(str(tmp_path / "t.csv"), capture)
    assert str(err.value).startswith(message)
    assert os.listdir(tmp_path) == []


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
def test_trace_reader_matches_the_per_row_oracle(seed, n):
    text = _per_row_format_trace(_canonical_capture(n, seed))
    want = _per_row_parse_trace(text)
    got = tracefile.parse_trace(text.encode())
    assert (got.station_id, got.start_utc_us) == (want.station_id, want.start_utc_us)
    for channel in ("pot", "photo"):
        g, w = getattr(got, channel), getattr(want, channel)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# one dialect: every one-byte edit of a canonical trace either reads back to
# a capture that rewrites to the edited bytes, or is refused at its line

def _lines_touched(data, lo, hi, moves_a_line_end):
    """The file lines of data[lo:hi], and the line after them when the edit
    adds or removes an LF: that moves where the next line starts."""
    lines = {data.count(b"\n", 0, at) + 1
             for at in range(max(lo, 0), min(hi, len(data)))}
    if moves_a_line_end:
        lines.add(max(lines) + 1)
    return lines


def _last_row_separators():
    """Offsets in the 11-row canonical trace at seed 0 of each kind of
    separator in its last row: the comma after the index, a point, a comma
    between values and the closing LF."""
    data = tracefile.format_trace(_canonical_capture(11, 0))
    row = data.rindex(b"\n", 0, len(data) - 1) + 1
    return row + 2, row + 4, row + 11, len(data) - 1


_INDEX_COMMA, _POINT, _COMMA, _LF = _last_row_separators()


@settings(max_examples=400, deadline=None)
@given(n=st.sampled_from([1, 2, 10, 11, 101, tracebody.BLOCK_ROWS + 1]),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["substitute", "insert", "delete"]),
       where=st.integers(0, 2**20),
       byte=st.one_of(st.sampled_from(b"\n\r\t #=,.-_0123456789"),
                      st.integers(0, 255)))
# a separator turned into a digit or another separator; those up to 9
# above their separator show only in the reader's separator sum
@example(n=11, seed=0, kind="substitute", where=_INDEX_COMMA, byte=ord("5"))
@example(n=11, seed=0, kind="substitute", where=_INDEX_COMMA, byte=ord("."))
@example(n=11, seed=0, kind="substitute", where=_POINT, byte=ord("0"))
@example(n=11, seed=0, kind="substitute", where=_POINT, byte=ord("7"))
@example(n=11, seed=0, kind="substitute", where=_POINT, byte=ord(","))
@example(n=11, seed=0, kind="substitute", where=_COMMA, byte=ord("3"))
@example(n=11, seed=0, kind="substitute", where=_COMMA, byte=ord("."))
@example(n=11, seed=0, kind="substitute", where=_LF, byte=ord("\r"))
@example(n=11, seed=0, kind="substitute", where=_LF, byte=ord("0"))
@example(n=11, seed=0, kind="substitute", where=_LF, byte=ord(","))
def test_every_one_byte_edit_reads_back_or_names_its_line(n, seed, kind, where,
                                                          byte):
    canonical = bytes(tracefile.format_trace(_canonical_capture(n, seed)))
    at = where % (len(canonical) + (kind == "insert"))
    lf = ord("\n")
    if kind == "delete":
        edited = canonical[:at] + canonical[at + 1:]
        lines = _lines_touched(edited, at - 1, at + 1, canonical[at] == lf)
    elif kind == "substitute":
        edited = canonical[:at] + bytes([byte]) + canonical[at + 1:]
        lines = _lines_touched(edited, at, at + 1, lf in (canonical[at], byte))
    else:
        edited = canonical[:at] + bytes([byte]) + canonical[at:]
        lines = _lines_touched(edited, at, at + 1, byte == lf)
    try:
        capture = tracefile.parse_trace(edited, source="src.csv")
    except TraceFormatError as err:
        source, line, _ = str(err).split(":", 2)
        assert source == "src.csv" and int(line) in lines, (str(err), lines)
    else:
        assert tracefile.format_trace(capture) == edited


# ---------------------------------------------------------------------------
# the float32 digit product of the fixed-width reader is exact: every cell
# the template accepts reads back as float() of its text, bit for bit

def _free_rows(rng, first, count, top):
    """Rows in the canonical layout whose value cells are drawn freely up to
    `top` times 1e-6, 0 and `top` included, and their cells' text."""
    cells = rng.integers(0, top + 1, size=(count, tracebody.COLUMNS))
    cells[rng.random(cells.shape) < 0.05] = 0
    cells[rng.random(cells.shape) < 0.05] = top
    text = [[f"{c // 10 ** 6}.{c % 10 ** 6:06d}" for c in row] for row in cells]
    rows = "".join(f"{first + i},{','.join(t)}\n" for i, t in enumerate(text))
    return rows.encode(), text


def _float_of_text(text):
    return np.array([[float(c) for c in row] for row in text]).reshape(
        -1, tracebody.COLUMNS)


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,
                               tracebody.BLOCK_ROWS - 1, tracebody.BLOCK_ROWS,
                               tracebody.BLOCK_ROWS + 1, 2 * tracebody.BLOCK_ROWS,
                               9999, 10000, 10001])
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_parse_rows_equals_float_of_every_accepted_cell(n, seed):
    rng = np.random.default_rng(seed)
    body, text = _free_rows(rng, 0, n, top=10 ** 6)
    prefix = b"# any header\n"
    pot, photo = tracebody.parse_rows(prefix + body, len(prefix))
    want = _float_of_text(text)
    assert pot.tobytes() == want[:, 0].tobytes()
    assert photo.tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()


def _block_product(body, digits):
    """Rows with `digits`-digit indices less their template, and the product
    of that with the template's place values, as `parse_rows` makes them."""
    width = digits + 1 + tracebody.COLUMNS * (tracebody.DECIMALS + 3)
    offset, places = tracebody._row_template(digits)
    found = np.frombuffer(body, np.uint8).reshape(-1, width) - offset
    return found, found.astype(places.dtype) @ places


@settings(max_examples=60)
@given(digits=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, tracebody.BLOCK_ROWS), top=st.booleans())
def test_block_digit_product_is_exact_for_every_index_width_up_to_7(digits, seed,
                                                                    count, top):
    # indices of up to 7 digits go through float32; the top of each decade
    # (9 999 999 at 7 digits) is the largest sum the product makes.  Cells
    # above 1 are spelled too: the product must tell 1.000001 from 1
    rng = np.random.default_rng(seed)
    lo, hi = (0 if digits == 1 else 10 ** (digits - 1)), 10 ** digits
    count = min(count, hi - lo)
    first = hi - count if top else int(rng.integers(lo, hi - count + 1))
    body, text = _free_rows(rng, first, count, top=10 ** 7 - 1)
    found, numbers = _block_product(body, digits)
    assert found.max() <= 9 and not numbers[:, -1].any()
    assert np.array_equal(numbers[:, 0], np.arange(first, first + count))
    want = np.rint(_float_of_text(text) * tracebody._SCALE)
    assert np.array_equal(numbers[:, 1:-1], want)
    above = (want > tracebody._SCALE).any(axis=1)
    if above.any():
        assert tracebody._first_bad_row(found, numbers, first) == np.argmax(above)


def test_eight_digit_indices_are_checked_exactly_around_2_to_the_24():
    # float32 holds 16 777 216 and 16 777 218 but not 16 777 217, so a
    # float32 product would reject the exact rows and accept a wrong index
    first = 2 ** 24 - 1
    rng = np.random.default_rng(0)
    body, text = _free_rows(rng, first, 4, top=10 ** 6)
    found, numbers = _block_product(body, 8)
    assert found.max() <= 9 and not numbers[:, -1].any()
    assert np.array_equal(numbers[:, 0], np.arange(first, first + 4))
    for row, wrong in ((1, 2 ** 24 + 1), (1, 2 ** 24 - 1), (2, 2 ** 24)):
        lines = body.decode().splitlines(keepends=True)
        lines[row] = f"{wrong}" + lines[row][8:]
        found, numbers = _block_product("".join(lines).encode(), 8)
        assert not np.array_equal(numbers[:, 0], np.arange(first, first + 4)), \
            (row, wrong)
        assert tracebody._first_bad_row(found, numbers, first) == row


def test_row_templates_are_cached_and_read_only():
    assert tracebody._row_template(5) is tracebody._row_template(5)
    for array in tracebody._row_template(5):
        with pytest.raises(ValueError):
            array[0] = 0
    # the last column of places sums the 11 separator bytes
    assert tracebody._row_template(5)[1][:, -1].sum() == 11
    assert tracebody._row_template(7)[1].dtype == np.float32
    assert tracebody._row_template(8)[1].dtype == np.float64


def test_row_periods_are_cached_once_per_index_width_and_read_only():
    tracebody._row_period.cache_clear()
    for _ in range(2):
        tracefile.format_trace(_canonical_capture(10001, seed=0))
    # widths 1 ... 5, each built on its first use
    info = tracebody._row_period.cache_info()
    assert (info.misses, info.currsize) == (5, 5)
    for digits in range(1, 8):
        period = tracebody._row_period(digits)
        assert tracebody._row_period(digits) is period
        with pytest.raises(ValueError):
            period[0, 0] = 0
        # row j: the template with the last three digits of j in its index
        template = tracebody._row_template(digits)[0]
        assert (period[:, digits:] == template[digits:]).all()
        index = "".join(f"{j % 10 ** min(digits, 3):0{digits}d}" for j in range(1000))
        assert period[:, :digits].tobytes() == index.encode()


def test_row_periods_stay_small_for_every_index_width_a_capture_can_have():
    longest = rig.sample_count(scenario_mod.MAX_DURATION_MS)
    widths = range(1, len(str(longest - 1)) + 1)
    assert len(widths) <= 7
    assert sum(tracebody._row_period(d).nbytes for d in widths) < 400_000


def test_long_trace_io_peak_memory_stays_small():
    # the fixed-width paths work in bounded blocks; the loadtxt reader
    # peaked at 14.0 MB here
    capture = tracefile.quantize_capture(
        rig.run_capture(replace(scenario_mod.get_preset("vive-baseline"),
                                duration_ms=60_000.0)))
    data = bytes(tracefile.format_trace(capture))
    # the float64 digit product peaked at 3.54 MB; the float32 one peaks
    # at 3.02 MB
    for call, arg, limit in ((tracefile.format_trace, capture, 8e6),
                             (tracefile.parse_trace, data, 3.3e6)):
        tracemalloc.start()
        try:
            call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (call.__name__, type(arg).__name__, peak)


# ---------------------------------------------------------------------------
# a bad row is named by its own file line, the four header lines counted

def _trace_lines_with(bad_row, at, n=60):
    lines = _META.splitlines() + [_HEADER]
    lines += [bad_row if i == at else f"{i},{_ROW}" for i in range(n)]
    return lines


_BAD_ROWS = {
    "short": "{i},0.100000,0.200000",
    "long": "{i}," + _ROW + ",0.600000",
    "trailing comma": "{i}," + _ROW + ",",
    "fractional index": "{i}.0," + _ROW,
    "word": "{i},0.100000,x.200000,0.300000,0.400000,0.500000",
    "inline comment": "{i},0.100000#c,0.200000,0.300000,0.400000,0.500000",
    "trailing comment": "{i}," + _ROW + "#c",
    "out of order": "{j}," + _ROW,
    "digit separator": "{i}_0," + _ROW,
    "short value": "{i},0.1,0.200000,0.300000,0.400000,0.500000",
    "exponent": "{i},1e-3,0.200000,0.300000,0.400000,0.500000",
    "negative zero": "{i},-0.000000,0.200000,0.300000,0.400000,0.500000",
    "above one": "{i},1.000001,0.200000,0.300000,0.400000,0.500000",
    "crlf": "{i}," + _ROW + "\r",
    "padded field": "{i}, 0.100000,0.200000,0.300000,0.400000,0.500000",
    "blank line": "",
    "comment line": "# station_id = B",
}


@pytest.mark.parametrize("at", [0, 1, 30, 59])
@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
def test_trace_parser_names_the_file_line_of_a_bad_row(kind, at):
    bad_row = _BAD_ROWS[kind].format(i=at, j=at + 1)
    lines = _trace_lines_with(bad_row, at)
    data = ("\n".join(lines) + "\n").encode()
    with pytest.raises(TraceFormatError) as got:
        tracefile.parse_trace(data, source="src.csv")
    assert str(got.value).startswith(f"src.csv:{at + 5}: expected row '{at},")
    assert str(got.value).endswith(f"got {bad_row + chr(10)!r}")


def test_trace_parser_names_an_out_of_order_row_above_a_bad_value():
    lines = _trace_lines_with(f"40,{_ROW}", at=10)
    lines[lines.index(f"50,{_ROW}")] = "50,0.100000,x,0.300000,0.400000,0.500000"
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceFormatError) as got:
        tracefile.parse_trace(text.encode(), source="src.csv")
    assert str(got.value).startswith("src.csv:15: expected row '10,")
    assert str(got.value).endswith(f"got '40,{_ROW}\\n'")


@pytest.mark.parametrize("edit,line", [
    # "A\r" is a station id; the first line off the template is the next
    (lambda t: t.replace("\n", "\r\n"), 2),
    (lambda t: t[:-1], 7),
    (lambda t: t + "\n", 8),
    (lambda t: t + "# station_id = A\n", 8),
    (lambda t: "\n" + t, 1),
    (lambda t: t.replace("# interval_ms = 1.0\n", ""), 3),
    (lambda t: t.replace(_HEADER, " " + _HEADER), 4),
], ids=["crlf", "no final newline", "trailing blank", "metadata below the body",
        "blank line above", "metadata missing", "padded column header"])
def test_trace_parser_names_the_first_line_off_the_template(edit, line):
    text = _per_row_format_trace(_canonical_capture(3, seed=0))
    with pytest.raises(TraceFormatError) as got:
        tracefile.parse_trace(edit(text).encode(), source="src.csv")
    assert str(got.value).startswith(f"src.csv:{line}: ")


# ---------------------------------------------------------------------------
# strict header and range rules

def _one_row_trace(start="0", interval="1.0", row=f"0,{_ROW}"):
    return (
        f"# station_id = A\n# start_utc_us = {start}\n# interval_ms = {interval}\n"
        f"{_HEADER}\n{row}\n"
    ).encode()


@pytest.mark.parametrize("interval", ["2.0", "0.5", "0.001", "nan", "inf",
                                      "1", "1.000", "01.0", "1.", "1e0",
                                      "+1.0", "1_0", "one", " 1.0", "1.0 "])
def test_trace_parser_requires_one_millisecond_intervals(interval):
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(_one_row_trace(interval=interval), source="src.csv")
    assert str(err.value).startswith(f"src.csv:3: interval_ms must be 1.0, got {interval!r}")


@pytest.mark.parametrize("start", ["1.5", "1000000.0", "1e6", "nan", "soon",
                                   "1_000", "+1000", "\u0663", "007", "-0",
                                   "- 5", "0x10", "", " 5", "5 "])
def test_trace_parser_requires_an_integer_start(start):
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(_one_row_trace(start=start), source="src.csv")
    assert str(err.value).startswith("src.csv:2: bad header value")
    assert repr(start) in str(err.value)


@pytest.mark.parametrize("start", [2**53 - 1, -(2**53 - 1)])
def test_the_widest_starts_round_trip(start):
    written = _one_row_trace(start=str(start))
    capture = tracefile.parse_trace(written)
    assert capture.start_utc_us == start
    assert tracefile.format_trace(capture) == written


@pytest.mark.parametrize("start", ["9007199254740992", "-9007199254740992",
                                   "9" * 17, "1" + "0" * 400, "-" + "1" * 4301],
                         ids=["2**53", "-2**53", "17-nines", "10**400", "-4301-ones"])
def test_the_reader_refuses_a_start_of_2_to_the_53_or_more(start):
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(_one_row_trace(start=start), source="src.csv")
    assert str(err.value) == ("src.csv:2: bad header value: start_utc_us must lie "
                              f"strictly between -2**53 and 2**53, got {start[:100]!r}")


@pytest.mark.parametrize("start", [2**53, -2**53, 10**400, -10**5000],
                         ids=["2**53", "-2**53", "10**400", "-10**5000"])
def test_the_writer_refuses_a_start_of_2_to_the_53_or_more(start, tmp_path):
    capture = replace(_canonical_capture(3, seed=0), start_utc_us=start)
    message = "start_utc_us must lie strictly between -2**53 and 2**53"
    with pytest.raises(ValueError, match=re.escape(message)):
        tracefile.format_trace(capture)
    with pytest.raises(ValueError, match=re.escape(message)):
        tracefile.write_trace(str(tmp_path / "t.csv"), capture)
    assert os.listdir(tmp_path) == []


@settings(max_examples=200)
@given(start=st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet="0123456789-+_ .e\u0663", max_size=8),
))
def test_every_accepted_start_round_trips_byte_for_byte(start):
    written = _one_row_trace(start=start)
    try:
        capture = tracefile.parse_trace(written)
    except TraceFormatError:
        return
    assert tracefile.format_trace(capture) == written


@settings(max_examples=200)
@given(interval=st.one_of(
    st.floats().map(repr),
    st.text(alphabet="0123456789-+_ .e", max_size=6),
    st.sampled_from(["1.0", " 1.0 ", "1", "1.000", "01.0", "1.", "1e0"]),
))
def test_every_accepted_interval_round_trips_byte_for_byte(interval):
    written = _one_row_trace(interval=interval)
    try:
        capture = tracefile.parse_trace(written)
    except TraceFormatError as err:
        assert f"interval_ms must be 1.0, got {interval!r}" in str(err)
        return
    assert tracefile.format_trace(capture) == written


@pytest.mark.parametrize("value", ["1.000001", "2.000000", "9.999999",
                                   "-0.001", "-1e-7", "2", "-5"])
@pytest.mark.parametrize("column", [1, 2, 5])
def test_trace_parser_rejects_samples_outside_the_unit_range(value, column):
    row = ["1"] + _ROW.split(",")
    row[column] = value
    text = _one_row_trace(row=f"0,{_ROW}\n" + ",".join(row))
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text, source="src.csv")
    assert str(err.value).startswith(
        "src.csv:6: expected row '1,d.dddddd,d.dddddd,d.dddddd,d.dddddd,d.dddddd'"
        " with every value in [0, 1]")


def test_trace_parser_accepts_the_ends_of_the_unit_range():
    capture = tracefile.parse_trace(
        _one_row_trace(row="0,0.000000,1.000000,0.000000,1.000000,0.000000"))
    assert capture.pot.tolist() == [0.0]
    assert not np.signbit(capture.pot).any()
    assert capture.photo.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_report_formatting_is_stable_and_omits_absent_metrics():
    report = LatencyReport(
        motion_to_photon_ms=6,
        peak_coefficient=0.999714,
        decode_error_rate=0.84,
        trace_length=5000,
        warnings=(),
    )
    text = tracefile.format_report(report)
    assert text == (
        "motion_to_photon_ms = 6\n"
        "peak_coefficient = 0.999714\n"
        "decode_error_rate = 0.840000\n"
        "trace_length = 5000\n"
        "warnings = none\n"
    )


def test_report_formatting_lists_warnings():
    report = LatencyReport(motion_to_photon_ms=-3, peak_coefficient=0.5,
                           warnings=("low_peak_coefficient", "negative_lag"))
    text = tracefile.format_report(report)
    assert "warnings = low_peak_coefficient,negative_lag" in text


def test_trace_bytes_are_read_as_utf8():
    data = _one_row_trace().replace(b"station_id = A", "station_id = \u00c5".encode())
    capture = tracefile.parse_trace(data)
    assert capture.station_id == "\u00c5"
    assert tracefile.format_trace(capture) == data
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(data.decode().encode("latin-1"), source="src.csv")
    assert str(err.value).startswith("src.csv:1: not UTF-8 text: ")
    # UTF-8 has no spelling of a lone surrogate
    surrogate = "\ud800".encode(errors="surrogatepass")
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(data.replace("\u00c5".encode(), surrogate), source="src.csv")
    assert str(err.value).startswith("src.csv:1: not UTF-8 text: ")


def test_a_non_ascii_station_id_reads_back_from_the_buffer_and_the_file(tmp_path):
    # format_trace's buffer holds the UTF-8 bytes that write_trace writes
    capture = replace(_canonical_capture(3, seed=0), station_id="\u00c4")
    path = str(tmp_path / "t.csv")
    tracefile.write_trace(path, capture)
    for back in (tracefile.parse_trace(tracefile.format_trace(capture)),
                 tracefile.read_trace(path)):
        assert back.station_id == "\u00c4"
        assert back.start_utc_us == capture.start_utc_us
        assert back.pot.tobytes() == capture.pot.tobytes()
        assert back.photo.tobytes() == capture.photo.tobytes()
    with open(path, "rb") as handle:
        assert handle.read() == tracefile.format_trace(capture)


@pytest.mark.parametrize("change,message", [
    ({"station_id": "A\nB"}, "station_id 'A\\nB' holds a line feed"),
    ({"start_utc_us": 5.0}, "start_utc_us must be an integer, got 5.0"),
    ({"start_utc_us": "5"}, "start_utc_us must be an integer, got '5'"),
])
def test_writer_refuses_header_values_its_reader_refuses(change, message,
                                                         tmp_path):
    capture = replace(_canonical_capture(3, seed=0), **change)
    with pytest.raises(ValueError, match=re.escape(message)):
        tracefile.format_trace(capture)
    with pytest.raises(ValueError, match=re.escape(message)):
        tracefile.write_trace(str(tmp_path / "t.csv"), capture)
    # nothing written, and no temp file left
    assert os.listdir(tmp_path) == []


def test_a_numpy_integer_start_is_written_as_a_plain_integer(tmp_path):
    capture = replace(_canonical_capture(3, seed=0), start_utc_us=np.int64(5))
    data = tracefile.format_trace(capture)
    assert b"\n# start_utc_us = 5\n" in data
    path = str(tmp_path / "t.csv")
    tracefile.write_trace(path, capture)
    with open(path, "rb") as handle:
        assert handle.read() == data
    back = tracefile.read_trace(path)
    assert type(back.start_utc_us) is int and back.start_utc_us == 5


# ---------------------------------------------------------------------------
# the mapped reader

_CANONICAL_BYTES = bytes(tracefile.format_trace(_canonical_capture(2500, seed=3)))
_READ_CASES = {
    "canonical": _CANONICAL_BYTES,
    # the error is raised where views of the map are alive
    "bad row": _CANONICAL_BYTES.replace(b"\n2300,", b"\n2300;"),
    "bad header": b"# station_id = A\n# start_utc_us = 007\n",
    "empty": b"",
}


def _read_and_parse(path, data):
    """What read_trace(path) and parse_trace(data) give: a capture's
    fields or the error text.  No error is held when this returns."""
    outcomes = []
    for read in (lambda: tracefile.read_trace(path),
                 lambda: tracefile.parse_trace(data, source=path)):
        try:
            capture = read()
        except TraceFormatError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((capture.station_id, capture.start_utc_us,
                             capture.pot.tobytes(), capture.photo.tobytes()))
    return outcomes


def _mapped(path):
    """Whether this process maps `path` (Linux only)."""
    with open("/proc/self/maps") as handle:
        return os.path.realpath(path) in handle.read()


@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_read_trace_matches_parse_trace_and_lets_the_file_go(case, tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "wb") as handle:
        handle.write(_READ_CASES[case])
    from_file, from_bytes = _read_and_parse(path, _READ_CASES[case])
    assert from_file == from_bytes
    assert isinstance(from_file, str) == (case != "canonical")
    if case == "canonical":
        held = tracefile.read_trace(path)
    else:
        with pytest.raises(TraceFormatError) as held:
            tracefile.read_trace(path)
    # neither the capture nor an error still held keeps the map
    if sys.platform.startswith("linux"):
        assert not _mapped(path)
    del held
    replacement = _canonical_capture(3, seed=1)
    tracefile.write_trace(path, replacement)
    with open(path, "rb") as handle:
        assert handle.read() == tracefile.format_trace(replacement)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_read_trace_reads_a_fifo_it_cannot_map(case, tmp_path):
    path = str(tmp_path / "t.csv")
    data = _READ_CASES[case]
    os.mkfifo(path)

    def feed():
        # blocks until read_trace opens the pipe
        with open(path, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        from_fifo, from_bytes = _read_and_parse(path, data)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert from_fifo == from_bytes


def test_atomic_write_writes_utf8_bytes_without_newline_translation(tmp_path):
    path = tmp_path / "out.txt"
    tracefile.atomic_write_text(str(path), "a\nb\u00e9\n")
    assert path.read_bytes() == b"a\nb\xc3\xa9\n"
    tracefile.atomic_write_text(str(path), bytearray(b"x\r\ny\n"))
    assert path.read_bytes() == b"x\r\ny\n"


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    tracefile.atomic_write_text(path, "first\n")
    tracefile.atomic_write_text(path, "second\n")
    with open(path) as handle:
        assert handle.read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_take_their_mode_from_the_umask(umask, mode, tmp_path):
    # as open() gives it; a temp file made by mkstemp would keep 0600
    path = tmp_path / "trace_A.csv"
    old = os.umask(umask)
    try:
        tracefile.write_trace(str(path), _unit_capture(3, seed=0))
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode
    assert os.listdir(tmp_path) == ["trace_A.csv"]


def _local_reports(*latencies_ms):
    return [LatencyReport(motion_to_photon_ms=ms) for ms in latencies_ms]


def test_batch_summary_spread_uses_sample_deviation():
    reports = _local_reports(6, 7, 8)
    text = tracefile.format_batch_summary(reports, base_seed=5, failures=[])
    assert "runs = 3" in text
    assert "avg = 7.000000" in text
    assert "sd = 1.000000" in text


def test_batch_summary_single_run_has_zero_spread():
    text = tracefile.format_batch_summary(_local_reports(6), base_seed=5,
                                          failures=[])
    assert "sd = 0.000000" in text


def test_batch_summary_lists_failed_runs():
    text = tracefile.format_batch_summary(_local_reports(6), 0,
                                          failures=[(3, "boom")])
    assert "run 3 failed: boom" in text
