"""Scenario validation, flat config parsing and file format tests."""
import os
from dataclasses import replace

import numpy as np
import pytest

from vrlatsim import scenario as scenario_mod
from vrlatsim import tracefile
from vrlatsim.audio import AudioPathConfig
from vrlatsim.clock import SimClock
from vrlatsim.errors import ScenarioValidationError, TraceFormatError
from vrlatsim.estimator import LatencyReport
from vrlatsim.netsim import NetworkConfig
from vrlatsim.rig import MotionProfile, PipelineConfig, RawCapture, SensorConfig
from vrlatsim.scenario import Scenario


def test_default_scenario_is_valid():
    assert scenario_mod.validate(Scenario()) == []


def test_validation_collects_every_violation_at_once():
    bad = Scenario(
        motion=MotionProfile(amplitude_deg=-1.0, period_ms=0.0),
        pipeline=PipelineConfig(refresh_hz=90.0, display_persistence_ms=11.0,
                                frame_delay_queue_len=-2),
        sensors=SensorConfig(adc_sample_hz=500.0, pot_noise_sigma=-0.1),
        clock_a=SimClock(drift_ppm=5000.0),
        audio=AudioPathConfig(threshold=1.5),
        duration_ms=-1.0,
        sync_lead_s=0,
    )
    violations = scenario_mod.validate(bad)
    assert len(violations) >= 8
    text = "\n".join(violations)
    for needle in ("amplitude", "period", "persistence", "queue",
                   "adc_sample_hz", "noise sigma", "drift", "threshold",
                   "duration", "sync_lead"):
        assert needle in text


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


def test_config_text_round_trip():
    sc = scenario_mod.get_preset("remote-default")
    text = scenario_mod.format_config(sc)
    back = scenario_mod.load_config_text(text)
    assert back == sc


def test_config_round_trip_for_every_preset():
    for name in scenario_mod.preset_names():
        sc = scenario_mod.get_preset(name)
        assert scenario_mod.load_config_text(scenario_mod.format_config(sc)) == sc


def test_config_parsing_handles_comments_and_blanks():
    text = """
# a comment line
pipeline.tracking_delay_ms = 2.5   # trailing comment

duration_ms = 2500
seed = 9
"""
    sc = scenario_mod.load_config_text(text)
    assert sc.pipeline.tracking_delay_ms == 2.5
    assert sc.duration_ms == 2500.0
    assert sc.seed == 9


def test_config_enables_optional_sections_on_first_key():
    sc = scenario_mod.load_config_text("net.one_way_delay_ms = 1.25\n")
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


def test_lines_without_equals_are_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_mod.parse_config_text("pipeline.refresh_hz 90\n")
    assert "line 1" in "\n".join(err.value.violations)


def _sample_capture(n=50):
    rng = np.random.default_rng(0)
    return RawCapture(
        station_id="A",
        start_utc_us=100_000 * 1_000_000,
        interval_ms=1.0,
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
    assert back.interval_ms == capture.interval_ms
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
    rounded = tracefile.quantize_capture(capture)
    assert np.array_equal(rounded.pot, np.round(capture.pot, 6))
    assert np.array_equal(rounded.photo, np.round(capture.photo, 6))


def test_trace_parser_reports_the_offending_row():
    text = (
        "# station_id = A\n# start_utc_us = 0\n# interval_ms = 1.0\n"
        "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
        "0,0.1,0.2,0.3,0.4,0.5\n"
        "1,0.1,0.2\n"
    )
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text, source="broken.csv")
    assert "broken.csv:6" in str(err.value)


def test_trace_parser_rejects_out_of_order_rows():
    text = (
        "# station_id = A\n# start_utc_us = 0\n# interval_ms = 1.0\n"
        "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
        "0,0.1,0.2,0.3,0.4,0.5\n"
        "2,0.1,0.2,0.3,0.4,0.5\n"
    )
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text)
    assert "out of order" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("column", [1, 3])
def test_trace_parser_rejects_non_finite_samples(bad, column):
    row = ["1", "0.1", "0.2", "0.3", "0.4", "0.5"]
    row[column] = bad
    text = (
        "# station_id = A\n# start_utc_us = 0\n# interval_ms = 1.0\n"
        "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
        "0,0.1,0.2,0.3,0.4,0.5\n" + ",".join(row) + "\n"
    )
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text, source="bad.csv")
    assert "bad.csv: interval_index 1" in str(err.value)
    assert "non-finite" in str(err.value)


def test_trace_parser_requires_metadata_and_samples():
    with pytest.raises(TraceFormatError):
        tracefile.parse_trace(
            "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
            "0,0.1,0.2,0.3,0.4,0.5\n"
        )
    with pytest.raises(TraceFormatError):
        tracefile.parse_trace(
            "# station_id = A\n# start_utc_us = 0\n# interval_ms = 1.0\n"
            "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
        )
    with pytest.raises(TraceFormatError):
        tracefile.parse_trace("")


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


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    tracefile.atomic_write_text(path, "first\n")
    tracefile.atomic_write_text(path, "second\n")
    with open(path) as handle:
        assert handle.read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_batch_summary_spread_uses_sample_deviation():
    rows = [("motion_to_photon_ms", np.array([6.0, 7.0, 8.0]))]
    text = tracefile.format_batch_summary(rows, base_seed=5, failures=[])
    assert "runs = 3" in text
    assert "avg = 7.000000" in text
    assert "sd = 1.000000" in text


def test_batch_summary_single_run_has_zero_spread():
    rows = [("motion_to_photon_ms", np.array([6.0]))]
    text = tracefile.format_batch_summary(rows, base_seed=5, failures=[])
    assert "sd = 0.000000" in text


def test_batch_summary_lists_failed_runs():
    rows = [("motion_to_photon_ms", np.array([6.0]))]
    text = tracefile.format_batch_summary(rows, 0, failures=[(3, "boom")])
    assert "run 3 failed: boom" in text
