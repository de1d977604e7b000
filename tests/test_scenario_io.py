"""Scenario validation, flat config parsing and file format tests."""
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# the per-row trace writer and reader the array versions replaced, kept as
# the reference they must agree with

def _per_row_format_trace(capture):
    lines = [
        f"# station_id = {capture.station_id}",
        f"# start_utc_us = {capture.start_utc_us!r}",
        f"# interval_ms = {capture.interval_ms!r}",
        ",".join(tracefile._HEADER_COLUMNS),
    ]
    fmt = f"%.{tracefile.VALUE_DECIMALS}f"
    for i in range(len(capture)):
        row = [str(i), fmt % capture.pot[i]]
        row.extend(fmt % v for v in capture.photo[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _per_row_parse_trace(text, source="<string>"):
    header = ",".join(tracefile._HEADER_COLUMNS)
    meta = {}
    pot = []
    photo = []
    saw_header = False
    expected_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != header:
                raise TraceFormatError(
                    f"{source}:{lineno}: expected column header "
                    f"{header!r}, got {line!r}"
                )
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise TraceFormatError(
                f"{source}:{lineno}: expected 6 columns, got {len(parts)}"
            )
        try:
            index = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{lineno}: {exc}") from exc
        if index != expected_index:
            raise TraceFormatError(
                f"{source}:{lineno}: interval_index {index} out of order "
                f"(expected {expected_index})"
            )
        expected_index += 1
        pot.append(values[0])
        photo.append(values[1:])
    raw_start = meta["start_utc_us"]
    return RawCapture(
        station_id=meta["station_id"],
        start_utc_us=float(raw_start) if "." in raw_start else int(raw_start),
        interval_ms=float(meta["interval_ms"]),
        pot=np.asarray(pot, dtype=float),
        photo=np.asarray(photo, dtype=float),
    )


# values whose %.6f text is easy to get wrong: signed zero and tiny
# negatives ("-0.000000"), decimal near-ties, exact binary ties (2**-7 =
# 0.0078125 rounds half to even), and values far outside the sensor range
_AWKWARD_VALUES = [
    0.0, -0.0, -1e-9, -4.9e-7, -5e-7, 0.0000005, 0.0000015, 0.0000025,
    0.1234565, 1.0000005, 2.0 ** -7, 3 * 2.0 ** -7, 1 + 2.0 ** -7,
    2.0 ** -21, 1.0, 0.5, 5e-324, 1e-300, -3.25, 123456.7890125,
]
_CHUNK = tracefile._FORMAT_CHUNK_ROWS


def _awkward_capture(n, seed):
    rng = np.random.default_rng(seed)
    # unquantized floats of mixed magnitude, then awkward values spliced in
    values = rng.uniform(-0.1, 1.1, size=(n, 5))
    wide = rng.random((n, 5)) < 0.2
    values[wide] = (rng.standard_normal(int(wide.sum()))
                    * 10.0 ** rng.integers(-9, 5, size=int(wide.sum())))
    awkward = rng.random((n, 5)) < 0.4
    values[awkward] = rng.choice(_AWKWARD_VALUES, size=int(awkward.sum()))
    return RawCapture(
        station_id="B",
        start_utc_us=int(rng.integers(0, 2**53)),
        interval_ms=1.0,
        pot=values[:, 0].copy(),
        photo=values[:, 1:].copy(),
    )


# lengths that cross the writer's chunk edges
@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               4095, 4096, 4097, 9000])
@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_writer_matches_the_per_row_oracle(n, seed):
    capture = _awkward_capture(n, seed)
    assert tracefile.format_trace(capture) == _per_row_format_trace(capture)


def _field_text(rng, value):
    # every spelling float() accepts for a sample in [0, 1]
    style = rng.integers(5)
    if style == 0:
        return repr(float(value))
    if style == 1:
        return f"{value:.6f}"
    if style == 2:
        return f"{value:.3e}"
    if style == 3:
        return f"{value:.{rng.integers(0, 20)}f}"
    return str(rng.choice(["0", "1", "-0.0", "1.", ".5", "+0.25", "1e-3"]))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       crlf=st.booleans(), meta_last=st.booleans())
def test_trace_reader_matches_the_per_row_oracle(seed, n, crlf, meta_last):
    rng = np.random.default_rng(seed)
    pads = ["", " ", "  ", "\t"]
    meta = ["# station_id = A", f"# start_utc_us = {int(rng.integers(0, 2**53))}",
            "# interval_ms = 1.0"]
    lines = [] if meta_last else list(meta)
    lines.append(",".join(tracefile._HEADER_COLUMNS))
    for i in range(n):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "   ", "#", "# note", "#x = 1",
                                         "  # indented comment"])))
        fields = [str(i)] + [_field_text(rng, v) for v in rng.uniform(0, 1, 5)]
        if rng.random() < 0.3:
            fields = [f"{rng.choice(pads)}{f}{rng.choice(pads)}" for f in fields]
        lines.append(",".join(fields))
    if meta_last:
        lines.extend(meta)
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    got = tracefile.parse_trace(text)
    want = _per_row_parse_trace(text)
    assert (got.station_id, got.start_utc_us, got.interval_ms) == \
        (want.station_id, want.start_utc_us, want.interval_ms)
    assert type(got.start_utc_us) is type(want.start_utc_us)
    for channel in ("pot", "photo"):
        g, w = getattr(got, channel), getattr(want, channel)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()      # -0.0 and 0.0 differ here


# ---------------------------------------------------------------------------
# a bad row is named by its file line, which differs from its body index
# because comment and blank lines stand above it

def _trace_lines_with(bad_row, at, n=60):
    lines = ["# station_id = A", "# start_utc_us = 0", "# interval_ms = 1.0",
             ",".join(tracefile._HEADER_COLUMNS)]
    for i in range(n):
        if i == at:
            lines += ["", "# the next row is bad", "   ", bad_row]
        else:
            lines.append(f"{i},0.1,0.2,0.3,0.4,0.5")
    return lines


_BAD_ROWS = {
    "short": "{i},0.1,0.2",
    "long": "{i},0.1,0.2,0.3,0.4,0.5,0.6",
    "trailing comma": "{i},0.1,0.2,0.3,0.4,0.5,",
    "fractional index": "{i}.0,0.1,0.2,0.3,0.4,0.5",
    "word": "{i},0.1,x,0.3,0.4,0.5",
    "inline comment": "{i},0.1#c,0.2,0.3,0.4,0.5",
    "trailing comment": "{i},0.1,0.2,0.3,0.4,0.5#c",
    "out of order": "{j},0.1,0.2,0.3,0.4,0.5",
}


@pytest.mark.parametrize("at", [0, 1, 30, 59])
@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
def test_trace_parser_names_the_file_line_of_a_bad_row(kind, at):
    bad_row = _BAD_ROWS[kind].format(i=at, j=at + 1)
    lines = _trace_lines_with(bad_row, at)
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceFormatError) as want:
        _per_row_parse_trace(text, source="src.csv")
    with pytest.raises(TraceFormatError) as got:
        tracefile.parse_trace(text, source="src.csv")
    assert f"src.csv:{lines.index(bad_row) + 1}: " in str(got.value)
    assert str(got.value) == str(want.value)


def test_trace_parser_names_an_out_of_order_row_above_a_bad_value():
    lines = _trace_lines_with("40,0.1,0.2,0.3,0.4,0.5", at=10)
    lines[lines.index("50,0.1,0.2,0.3,0.4,0.5")] = "50,0.1,x,0.3,0.4,0.5"
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceFormatError) as got:
        tracefile.parse_trace(text, source="src.csv")
    assert str(got.value).startswith(f"src.csv:{lines.index('40,0.1,0.2,0.3,0.4,0.5') + 1}: ")
    assert "interval_index 40 out of order (expected 10)" in str(got.value)


def test_trace_parser_rejects_digit_separators_that_int_accepts():
    # int("3_0") is 30, but a trace never holds "_"; loadtxt refuses it
    lines = _trace_lines_with("3_0,0.1,0.2,0.3,0.4,0.5", at=30)
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace("\n".join(lines) + "\n", source="src.csv")
    assert str(err.value).startswith(f"src.csv:{lines.index('3_0,0.1,0.2,0.3,0.4,0.5') + 1}: ")


# ---------------------------------------------------------------------------
# strict header and range rules

def _one_row_trace(start="0", interval="1.0", row="0,0.1,0.2,0.3,0.4,0.5"):
    return (
        f"# station_id = A\n# start_utc_us = {start}\n# interval_ms = {interval}\n"
        "interval_index,pot_raw,photo0,photo1,photo2,photo3\n"
        f"{row}\n"
    )


@pytest.mark.parametrize("interval", ["2.0", "0.5", "0.001", "nan", "inf"])
def test_trace_parser_requires_one_millisecond_intervals(interval):
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(_one_row_trace(interval=interval), source="src.csv")
    assert f"interval_ms must be 1.0, got '{interval}'" in str(err.value)


@pytest.mark.parametrize("start", ["1.5", "1000000.0", "1e6", "nan", "soon"])
def test_trace_parser_requires_an_integer_start(start):
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(_one_row_trace(start=start), source="src.csv")
    assert "src.csv: bad header value" in str(err.value)
    assert repr(start) in str(err.value)


@pytest.mark.parametrize("value", ["-0.001", "-1e-7", "1.000001", "2", "-5"])
@pytest.mark.parametrize("column", [1, 2, 5])
def test_trace_parser_rejects_samples_outside_the_unit_range(value, column):
    row = ["1", "0.1", "0.2", "0.3", "0.4", "0.5"]
    row[column] = value
    text = _one_row_trace(row="0,0.1,0.2,0.3,0.4,0.5\n" + ",".join(row))
    with pytest.raises(TraceFormatError) as err:
        tracefile.parse_trace(text, source="src.csv")
    assert "src.csv: interval_index 1 holds a sample outside [0, 1]" in str(err.value)


def test_trace_parser_accepts_the_ends_of_the_unit_range():
    capture = tracefile.parse_trace(
        _one_row_trace(interval="1", row="0,0,1,-0.000000,1.000000,0.0"))
    assert capture.interval_ms == 1.0
    assert capture.pot.tolist() == [0.0]
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
