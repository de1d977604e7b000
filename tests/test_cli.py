"""End-to-end command line tests driven through cli.main()."""
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import vrlatsim
from vrlatsim import cli, estimator, netsim, rig, tracefile
from vrlatsim import scenario as scenario_mod
from vrlatsim.errors import (
    DetectionTimeoutError,
    ScenarioValidationError,
    VrLatSimError,
)


def _read(path):
    with open(path) as handle:
        return handle.read()


def _report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key} missing from report:\n{text}")


def test_load_scenario_accepts_presets_and_files(tmp_path):
    assert cli.load_scenario("vive-baseline") == scenario_mod.get_preset("vive-baseline")
    path = str(tmp_path / "sc.cfg")
    with open(path, "w") as handle:
        handle.write(scenario_mod.format_config(scenario_mod.get_preset("zero-delay")))
    assert cli.load_scenario(path) == scenario_mod.get_preset("zero-delay")
    with pytest.raises(Exception):
        cli.load_scenario(str(tmp_path / "missing.cfg"))


def test_load_scenario_seed_override():
    sc = cli.load_scenario("vive-baseline", seed=99)
    assert sc.seed == 99


def test_simulate_baseline_writes_trace_and_report(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--config", "vive-baseline", "--out", out])
    assert code == 0
    report = _read(os.path.join(out, "report.txt"))
    assert capsys.readouterr().out == report
    m2p = int(_report_value(report, "motion_to_photon_ms"))
    assert 3 <= m2p <= 10
    assert float(_report_value(report, "peak_coefficient")) > 0.99
    assert os.path.exists(os.path.join(out, "trace_A.csv"))
    assert _report_value(report, "warnings") == "none"


@pytest.mark.parametrize("preset", ["vive-baseline", "frame-delay-1", "frame-delay-5",
                                    "frame-delay-10", "zero-delay", "audio-local"])
def test_estimate_matches_simulate_locally(preset, tmp_path):
    # estimate reads only the trace, so only simulate measures mouth-to-ear
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", preset, "--out", simdir]) == 0
    out = str(tmp_path / "est.txt")
    code = cli.main(["estimate", os.path.join(simdir, "trace_A.csv"), "--out", out])
    assert code == 0
    sim_report = _read(os.path.join(simdir, "report.txt")).splitlines(keepends=True)
    audio = [line for line in sim_report if line.startswith("mouth_to_ear_ms = ")]
    assert len(audio) == (preset == "audio-local")
    assert _read(out) == "".join(line for line in sim_report if line not in audio)


def test_estimate_matches_simulate_for_remote_pairs(tmp_path):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "remote-default",
                     "--duration-ms", "3000", "--max-lag", "80",
                     "--out", simdir]) == 0
    sim_report = _read(os.path.join(simdir, "report.txt"))
    assert _report_value(sim_report, "remote_direction") == "A->B"
    out = str(tmp_path / "est.txt")
    code = cli.main(["estimate",
                     os.path.join(simdir, "trace_A.csv"),
                     os.path.join(simdir, "trace_B.csv"),
                     "--max-lag", "80", "--out", out])
    assert code == 0
    assert _read(out) == sim_report


def test_estimate_holds_one_capture_and_no_copy_of_a_file(tmp_path, capsys):
    # a 20 s remote pair: each file is 1.0 MB and each capture's samples
    # 0.8 MB.  Reading both files into the heap and holding both captures
    # peaked at 3.23 MB; a mapped file and one capture at a time stay
    # below 2.0 MB
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "remote-default",
                     "--duration-ms", "20000", "--out", simdir]) == 0
    argv = ["estimate", os.path.join(simdir, "trace_A.csv"),
            os.path.join(simdir, "trace_B.csv")]
    # the first call fills the parser and lag index caches
    assert cli.main(argv) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == _read(os.path.join(simdir, "report.txt"))
    assert peak < 2.0e6, f"estimate peaked at {peak / 1e6:.2f} MB"


def test_estimate_self_check_reports_zero_lag(tmp_path):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "vive-baseline", "--out", simdir]) == 0
    out = str(tmp_path / "self.txt")
    code = cli.main(["estimate", os.path.join(simdir, "trace_A.csv"),
                     "--self", "--out", out])
    assert code == 0
    report = _read(out)
    assert _report_value(report, "motion_to_photon_ms") == "0"
    assert float(_report_value(report, "peak_coefficient")) == 1.0


def test_simulate_seed_override_changes_the_run(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    assert cli.main(["simulate", "--config", "vive-baseline", "--seed", "5", "--out", a]) == 0
    assert cli.main(["simulate", "--config", "vive-baseline", "--seed", "5", "--out", b]) == 0
    assert cli.main(["simulate", "--config", "vive-baseline", "--seed", "6", "--out", c]) == 0
    assert _read(os.path.join(a, "trace_A.csv")) == _read(os.path.join(b, "trace_A.csv"))
    assert _read(os.path.join(a, "trace_A.csv")) != _read(os.path.join(c, "trace_A.csv"))


def test_audio_preset_writes_the_mouth_to_ear_file(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", "audio-local", "--out", out]) == 0
    audio = _read(os.path.join(out, "audio_latency.txt"))
    assert audio == "mouth_to_ear_ms = 100\n"
    report = _read(os.path.join(out, "report.txt"))
    assert _report_value(report, "mouth_to_ear_ms") == "100"


def test_batch_summary_is_reproducible(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    args = ["batch", "--config", "vive-baseline", "--runs", "3", "--seed", "11"]
    assert cli.main(args + ["--out", a]) == 0
    assert cli.main(args + ["--out", b]) == 0
    summary = _read(os.path.join(a, "batch_summary.txt"))
    assert summary == _read(os.path.join(b, "batch_summary.txt"))
    assert "runs = 3" in summary
    assert "base_seed = 11" in summary
    assert "motion_to_photon_ms:" in summary


def test_invalid_config_file_exits_1_without_output(tmp_path, capsys):
    cfg = str(tmp_path / "bad.cfg")
    with open(cfg, "w") as handle:
        handle.write("pipeline.refresh_hz = banana\n")
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)
    assert "pipeline.refresh_hz" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\xe9\nseed = 3\n".encode("latin-1"))
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", str(cfg), "--out", out]) == 1
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert f"config file {str(cfg)!r} is not UTF-8 text" in err
    # the same comment in UTF-8 is read whatever the locale's encoding
    cfg.write_bytes("# caf\xe9\nseed = 3\n".encode("utf-8"))
    assert cli.load_scenario(str(cfg)).seed == 3


def test_invalid_scenario_values_exit_1(tmp_path, capsys):
    cfg = str(tmp_path / "bad.cfg")
    with open(cfg, "w") as handle:
        handle.write("duration_ms = -5\n")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_malformed_trace_exits_2(tmp_path, capsys):
    trace = str(tmp_path / "broken.csv")
    with open(trace, "w") as handle:
        handle.write("not,a,trace\n")
    assert cli.main(["estimate", trace]) == 2
    assert capsys.readouterr().err


def test_missing_trace_file_exits_2(tmp_path):
    assert cli.main(["estimate", str(tmp_path / "nope.csv")]) == 2


def test_oversized_lag_window_exits_3(tmp_path, capsys):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "vive-baseline",
                     "--duration-ms", "1500", "--max-lag", "100",
                     "--out", simdir]) == 0
    code = cli.main(["estimate", os.path.join(simdir, "trace_A.csv"),
                     "--max-lag", "400"])
    assert code == 3
    assert capsys.readouterr().err


def _dark_copy(trace, path):
    """Write `trace` with its photosensor channels all black to `path`."""
    capture = tracefile.read_trace(trace)
    tracefile.write_trace(path, replace(capture, photo=capture.photo * 0))
    return path


def test_estimate_reports_a_decode_error_before_later_errors(tmp_path, capsys):
    # each capture is decoded before the next file is read, and a second
    # station's display before the first station's lag search
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "remote-default",
                     "--duration-ms", "1500", "--max-lag", "100",
                     "--out", simdir]) == 0
    trace_a = os.path.join(simdir, "trace_A.csv")
    dark_a = _dark_copy(trace_a, str(tmp_path / "dark_A.csv"))
    dark_b = _dark_copy(os.path.join(simdir, "trace_B.csv"),
                        str(tmp_path / "dark_B.csv"))
    broken = str(tmp_path / "broken.csv")
    with open(broken, "w") as handle:
        handle.write("not,a,trace\n")
    capsys.readouterr()

    assert cli.main(["estimate", dark_a, broken]) == 3
    assert "never exceeds" in capsys.readouterr().err
    # too short for a 400 ms window, and B is dark: B's error comes first
    assert cli.main(["estimate", trace_a, dark_b, "--max-lag", "400"]) == 3
    assert "never exceeds" in capsys.readouterr().err
    with pytest.raises(estimator.DecodeError):
        cli.estimate_run([tracefile.read_trace(trace_a),
                          tracefile.read_trace(dark_b)], max_lag_ms=400)
    # with B readable, the lag search's own error shows
    assert cli.main(["estimate", trace_a, os.path.join(simdir, "trace_B.csv"),
                     "--max-lag", "400"]) == 3
    assert "too short" in capsys.readouterr().err


def test_estimate_self_check_never_decodes_the_display(tmp_path, capsys):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "vive-baseline",
                     "--duration-ms", "2000", "--out", simdir]) == 0
    dark_a = _dark_copy(os.path.join(simdir, "trace_A.csv"),
                        str(tmp_path / "dark_A.csv"))
    capsys.readouterr()
    # a dark display fails an estimate, but not a self check of the
    # reference channel
    assert cli.main(["estimate", dark_a]) == 3
    assert "never exceeds" in capsys.readouterr().err
    out = str(tmp_path / "self.txt")
    assert cli.main(["estimate", dark_a, "--self", "--out", out]) == 0
    report = _read(out)
    assert _report_value(report, "motion_to_photon_ms") == "0"
    assert float(_report_value(report, "peak_coefficient")) == 1.0


def test_non_finite_trace_sample_exits_2(tmp_path, capsys):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "vive-baseline",
                     "--duration-ms", "2000", "--out", simdir]) == 0
    trace = os.path.join(simdir, "trace_A.csv")
    lines = _read(trace).splitlines()
    row = lines[-1].split(",")
    row[2] = "nan"
    lines[-1] = ",".join(row)
    with open(trace, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert cli.main(["estimate", trace]) == 2
    assert f"{trace}:{len(lines)}: expected row '1999," in capsys.readouterr().err


@pytest.fixture(scope="module")
def vive_trace_text(tmp_path_factory):
    simdir = str(tmp_path_factory.mktemp("sim"))
    assert cli.main(["simulate", "--config", "vive-baseline",
                     "--duration-ms", "2000", "--out", simdir]) == 0
    return _read(os.path.join(simdir, "trace_A.csv"))


def _last_row_replaced(text, row):
    return text[:text.rstrip("\n").rindex("\n") + 1] + row + "\n"


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.replace("# interval_ms = 1.0", "# interval_ms = 2.0"),
     "interval_ms must be 1.0"),
    (lambda t: t.replace("# interval_ms = 1.0", "# interval_ms = nan"),
     "interval_ms must be 1.0"),
    (lambda t: t.replace("# start_utc_us = ", "# start_utc_us = 0.5"),
     "bad header value"),
    (lambda t: t.replace("# start_utc_us = 1", "# start_utc_us = 1_"),
     "bad header value"),
    (lambda t: t.replace("# interval_ms = 1.0", "# interval_ms = 1.000"),
     "interval_ms must be 1.0, got '1.000'"),
    (lambda t: _last_row_replaced(t, "1999,1.5,0,0,0,0"),
     ":2004: expected row '1999,d.dddddd,"),
    (lambda t: _last_row_replaced(
        t, "1999,0.000000,2.000000,0.000000,0.000000,0.000000"),
     ":2004: expected row '1999,d.dddddd,"),
    (lambda t: t.replace("\n", "\r\n"), ":2: bad header value"),
    (lambda t: t + "\n", ":2005: expected row '2000,"),
], ids=["interval-2", "interval-nan", "fractional-start", "separator-start",
        "interval-1.000", "sample-1.5", "canonical-sample-2", "crlf",
        "trailing-blank"])
def test_strictly_rejected_trace_exits_2(vive_trace_text, tmp_path, capsys,
                                         edit, message):
    text = edit(vive_trace_text)
    assert text != vive_trace_text
    trace = str(tmp_path / "trace_A.csv")
    with open(trace, "w") as handle:
        handle.write(text)
    assert cli.main(["estimate", trace]) == 2
    assert message in capsys.readouterr().err


def test_trace_that_is_not_utf8_exits_2(vive_trace_text, tmp_path, capsys):
    trace = tmp_path / "trace_A.csv"
    trace.write_bytes(vive_trace_text.replace("# station_id = A",
                                              "# station_id = \xff").encode("latin-1"))
    assert cli.main(["estimate", str(trace)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.fixture(scope="module")
def remote_pair(tmp_path_factory):
    simdir = tmp_path_factory.mktemp("remote")
    assert cli.main(["simulate", "--config", "remote-default",
                     "--duration-ms", "3000", "--out", str(simdir)]) == 0
    return simdir / "trace_A.csv", simdir / "trace_B.csv"


def _with_start(trace, start, path):
    head, rest = trace.read_text().split("# start_utc_us = ", 1)
    path.write_text(f"{head}# start_utc_us = {start}{rest[rest.index(chr(10)):]}")
    return str(path)


@pytest.mark.parametrize("station,start", [("B", "1" + "0" * 400), ("A", "1" * 4301)],
                         ids=["B-401-digits", "A-4301-digits"])
def test_a_start_of_2_to_the_53_or_more_exits_2(remote_pair, tmp_path, capsys,
                                                station, start):
    # each raised a traceback: the first from align_on_utc's float
    # conversion, the second from int() past its 4300-digit limit
    trace_a, trace_b = remote_pair
    if station == "B":
        traces = [str(trace_a), _with_start(trace_b, start, tmp_path / "trace_B2.csv")]
    else:
        traces = [_with_start(trace_a, start, tmp_path / "trace_A2.csv")]
    assert cli.main(["estimate", *traces]) == 2
    err = capsys.readouterr().err
    assert (f"{traces[-1]}:2: bad header value: start_utc_us must lie strictly "
            f"between -2**53 and 2**53, got '{start[:100]}'") in err


@pytest.mark.parametrize("line", ["sensors.adc_sample_hz = 1000.0",
                                  "sensors.adc_conversion_us = 800.0",
                                  "motion.kind = sinusoidal",
                                  "clock_a.epoch_offset_us = 0.0"])
def test_config_naming_a_fixed_rig_setting_exits_1(line, tmp_path, capsys):
    cfg = str(tmp_path / "old.cfg")
    with open(cfg, "w") as handle:
        handle.write(line + "\n")
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)
    key = line.split(" = ")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_with_a_stopped_oscillator_exits_1(tmp_path, capsys):
    # -1e6 ppm stops the counter; it is one more drift outside the model
    cfg = str(tmp_path / "stopped.cfg")
    with open(cfg, "w") as handle:
        handle.write("clock_a.drift_ppm = -1e6\n")
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)
    assert "clock_a.drift_ppm beyond +-1000" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_duration_override_exits_1(value, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--duration-ms", value, "--out", out]) == 1
    assert not os.path.exists(out)
    assert f"duration_ms must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_batch_without_runs_exits_1(runs, tmp_path, capsys):
    out = str(tmp_path / "batch")
    assert cli.main(["batch", "--runs", runs, "--out", out]) == 1
    assert not os.path.exists(out)
    assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err


@pytest.mark.parametrize("lag", ["0", "-5"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "batch"])
def test_lag_window_below_1_exits_1_before_any_work(command, lag, tmp_path,
                                                     capsys):
    out = str(tmp_path / "out")
    # estimate gets a trace that does not exist: reading it would exit 2
    target = ([str(tmp_path / "missing.csv")] if command == "estimate"
              else ["--out", out])
    assert cli.main([command, *target, "--max-lag", lag]) == 1
    assert not os.path.exists(out)
    assert f"--max-lag must be at least 1, got {lag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, window", [
    (["simulate", "--config", "vive-baseline", "--seed", "1",
      "--duration-ms", "20000", "--max-lag", "1100"], "[0, 1100]"),
    (["batch", "--max-lag", "1000"], "[0, 1000]"),
    (["simulate", "--allow-negative-lag", "--max-lag", "500"], "[-500, 500]"),
    (["batch", "--allow-negative-lag", "--max-lag", "500"], "[-500, 500]"),
], ids=["simulate-1100", "batch-1000", "simulate-negative-500",
        "batch-negative-500"])
def test_a_lag_window_spanning_the_motion_period_exits_1_before_any_work(
        argv, window, tmp_path, capsys):
    # the first case reported 1006 ms, a whole period off the truth of
    # about 6 ms, with exit 0
    out = str(tmp_path / "out")
    assert cli.main([*argv, "--out", out]) == 1
    assert not os.path.exists(out)
    lag = argv[-1]
    assert capsys.readouterr().err == (
        f"usage error: --max-lag {lag}: the lag window {window} ms spans the "
        "motion period of 1000 ms, in which lags L and L + 1000 ms look "
        "alike; lower --max-lag\n")


def test_a_lag_window_just_inside_the_motion_period_runs(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--allow-negative-lag", "--max-lag", "499",
                     "--seed", "1", "--out", out]) == 0
    report = _read(os.path.join(out, "report.txt"))
    assert 3 <= float(_report_value(report, "motion_to_photon_ms")) <= 10


def test_the_lag_window_is_checked_against_the_configured_period(tmp_path,
                                                                 capsys):
    sc = scenario_mod.get_preset("vive-baseline")
    config = _config_file(tmp_path, "period-200", replace(
        sc, motion=replace(sc.motion, period_ms=200.0)))
    out = str(tmp_path / "out")
    # the default window, [0, 200] ms, spans a 200 ms period
    assert cli.main(["simulate", "--config", config, "--out", out]) == 1
    assert "spans the motion period of 200 ms" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert cli.main(["simulate", "--config", config, "--max-lag", "199",
                     "--out", out]) == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "vive-baseline", "--duration-ms", "1500"],
    ["simulate", "--config", "vive-baseline", "--duration-ms", "1"],
    ["batch", "--config", "remote-default", "--runs", "3",
     "--duration-ms", "1500"],
], ids=["simulate-1500", "simulate-1", "batch-remote-1500"])
def test_a_capture_too_short_for_the_lag_search_exits_1_before_any_capture(
        argv, tmp_path, capsys, monkeypatch):
    # each ran its captures and then exited 3; the second blamed the display
    def capture_run(sc):
        raise AssertionError(f"captured {sc.duration_ms} ms")
    monkeypatch.setattr(cli, "capture_run", capture_run)
    out = str(tmp_path / "out")
    assert cli.main([*argv, "--out", out]) == 1
    assert not os.path.exists(out)
    ms = argv[argv.index("--duration-ms") + 1]
    assert capsys.readouterr().err == (
        "usage error: --max-lag 200: a lag search of 200 ms needs at least "
        f"2000 samples, and a capture of {ms} ms gives {ms}; lengthen the "
        "capture or lower --max-lag\n")


def test_export_plot_takes_a_capture_too_short_for_a_lag_search(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["export-plot", "--duration-ms", "1500",
                     "--out", str(out)]) == 0
    assert len((out / "plot_data.csv").read_text().splitlines()) == 1 + 1500


@pytest.mark.parametrize("extra, message", [
    ([], "estimate reads one or two trace files, got 3"),
    (["--self"], "--self reads one trace file, got 2"),
], ids=["three-traces", "self-with-two"])
def test_estimate_rejects_traces_it_would_ignore(extra, message, tmp_path,
                                                 capsys):
    # none of the traces exists: reading any of them would exit 2
    count = 2 if extra else 3
    traces = [str(tmp_path / f"missing_{i}.csv") for i in range(count)]
    out = str(tmp_path / "report.txt")
    assert cli.main(["estimate", *traces, *extra, "--out", out]) == 1
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert message in err
    assert traces[-1] in err


@pytest.mark.parametrize("argv, message", [
    (["estimate", "a.csv", "b.csv", "c.csv"],
     "estimate reads one or two trace files, got 3: a.csv b.csv c.csv"),
    (["estimate", "a.csv", "--max-lag", "0"], "--max-lag must be at least 1, got 0"),
    (["batch", "--runs", "0"], "--runs must be at least 1, got 0"),
], ids=["three-traces", "max-lag-0", "runs-0"])
def test_usage_errors_have_their_own_header(argv, message, tmp_path, capsys):
    # a.csv and friends do not exist: reading one would exit 2
    out = str(tmp_path / "out")
    assert cli.main([*argv, "--out", out]) == 1
    assert not os.path.exists(out)
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_duplicate_config_key_exits_1_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\nduration_ms = 2000\n\nseed = 2\n")
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", str(cfg), "--out", out]) == 1
    assert not os.path.exists(out)
    assert "line 4: duplicate key 'seed', first set on line 1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.4", "1e12"])
def test_duration_without_samples_or_beyond_the_cap_exits_1(value, tmp_path,
                                                             capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--duration-ms", value, "--out", out]) == 1
    assert not os.path.exists(out)
    assert "duration_ms=" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [{}, {"seed": 4}, {"duration_ms": 2000.0},
                                       {"seed": 4, "duration_ms": 2000.0}])
def test_load_scenario_validates_once(overrides, tmp_path, monkeypatch):
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(scenario_mod.format_config(scenario_mod.get_preset("zero-delay")))
    calls = []
    real_validate = scenario_mod.validate

    def counting_validate(sc):
        calls.append(sc)
        return real_validate(sc)

    monkeypatch.setattr(scenario_mod, "validate", counting_validate)
    for config in ("vive-baseline", str(cfg)):
        calls.clear()
        sc = cli.load_scenario(config, **overrides)
        assert calls == [sc]


def test_override_replaces_an_invalid_config_value_before_validation(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("duration_ms = 0.2\n")
    with pytest.raises(ScenarioValidationError):
        cli.load_scenario(str(cfg))
    assert cli.load_scenario(str(cfg), duration_ms=2000.0).duration_ms == 2000.0


_NO_SCIPY_SCRIPT = """
import os, sys
from vrlatsim import cli
out = sys.argv[1]
assert cli.main(["simulate", "--duration-ms", "2000", "--max-lag", "80",
                 "--out", out]) == 0
assert cli.main(["estimate", os.path.join(out, "trace_A.csv"),
                 "--max-lag", "80"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", loaded)
sys.exit(1 if loaded else 0)
"""


def _child_env(**overrides):
    """The environment of a child interpreter that imports this vrlatsim."""
    src = str(Path(vrlatsim.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_simulate_and_estimate_run_without_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT,
                           str(tmp_path / "run")],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "scipy modules: []" in done.stdout


def _config_file(tmp_path, name, sc):
    path = str(tmp_path / f"{name}.cfg")
    with open(path, "w") as handle:
        handle.write(scenario_mod.format_config(sc))
    return path


def test_batch_records_an_audio_timeout_as_a_failed_run(tmp_path, capsys):
    sc = replace(scenario_mod.get_preset("audio-local"), duration_ms=2000.0)
    # a noiseless tone below the threshold is an invalid scenario; with a
    # little noise it is valid, and 0.5 + noise never reaches 0.99
    cfg = _config_file(tmp_path, "deaf", replace(sc, audio=replace(
        sc.audio, threshold=0.99, attenuation=0.5, noise_sigma=0.01)))
    out = str(tmp_path / "batch")
    # every run fails, so the command still fails, but only after it has
    # written a summary that names each failed run
    assert cli.main(["batch", "--config", cfg, "--runs", "2",
                     "--out", out]) == 3
    summary = _read(os.path.join(out, "batch_summary.txt"))
    assert "runs = 0" in summary
    assert "run 0 failed: no threshold crossing" in summary
    assert "run 1 failed: no threshold crossing" in summary
    assert "every batch run failed" in capsys.readouterr().err


def _queue_18_config(tmp_path):
    # vive-baseline with an 18-frame queue, about 205.6 ms, beyond the
    # default 200 ms window: its best lag is the window's last, 200 ms at
    # peak 0.9991, which is not a maximum of anything
    sc = scenario_mod.get_preset("vive-baseline")
    return _config_file(tmp_path, "queue-18", replace(
        sc, pipeline=replace(sc.pipeline, frame_delay_queue_len=18)))


def test_a_best_lag_on_the_window_edge_fails_the_run(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", _queue_18_config(tmp_path),
                     "--seed", "1", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "local best lag 200 ms is on the edge of the lag window [0, 200]" in err
    assert "--max-lag" in err
    assert not os.path.exists(out)


def test_batch_records_a_window_edge_lag_as_a_failed_run(tmp_path, capsys):
    out = str(tmp_path / "batch")
    assert cli.main(["batch", "--config", _queue_18_config(tmp_path),
                     "--runs", "2", "--out", out]) == 3
    summary = _read(os.path.join(out, "batch_summary.txt"))
    assert "runs = 0" in summary
    for run in range(2):
        assert f"run {run} failed: local best lag 200 ms is on the edge" in summary
    assert "every batch run failed" in capsys.readouterr().err


@pytest.mark.parametrize("audio,key", [
    ({"path_delay_ms": 20000.0}, "audio.path_delay_ms=20000.0"),
    ({"attenuation": 0.4, "threshold": 0.5}, "audio.attenuation=0.4"),
], ids=["delay-beyond-the-horizon", "noiseless-below-threshold"])
def test_undetectable_audio_is_an_invalid_scenario(tmp_path, capsys, audio, key):
    sc = scenario_mod.get_preset("audio-local")
    cfg = _config_file(tmp_path, "deaf", replace(sc, audio=replace(sc.audio, **audio)))
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 1
    assert f"  - {key} " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_every_error_type_has_an_exit_code():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for exc_type in subclasses(VrLatSimError):
        assert issubclass(exc_type, tuple(cli.EXIT_CODES)), exc_type
    assert DetectionTimeoutError in cli.RUN_FAILURES


def test_export_plot_codes_coincide_for_zero_delay(tmp_path):
    out = str(tmp_path / "plot")
    assert cli.main(["export-plot", "--config", "zero-delay",
                     "--duration-ms", "2000", "--out", out]) == 0
    rows = _read(os.path.join(out, "plot_data.csv")).splitlines()
    assert rows[0] == "t_ms,pot_code,display_code"
    diffs = []
    for row in rows[1 + 100:]:
        _, pot_code, display_code = row.split(",")
        diffs.append(abs(int(pot_code) - int(display_code)))
    assert len(diffs) > 1500
    assert sum(diffs) / len(diffs) < 8.0


def _row_by_row_plot_data(sc):
    """Reference plot table: the shift arithmetic and one f-string per row."""
    if sc.net is not None:
        sender, receiver = netsim.remote_capture(sc)
        sender = tracefile.quantize_capture(sender)
        receiver = tracefile.quantize_capture(receiver)
        pot = estimator.decode_pot_trace(sender)
        display = estimator.decode_display_trace(receiver)
        shift_ms = int(round(
            (receiver.start_utc_us - sender.start_utc_us) / 1000.0
        ))
        pot_vals = pot.values[max(shift_ms, 0):]
        display_vals = display.values[max(-shift_ms, 0):]
    else:
        capture = tracefile.quantize_capture(rig.run_capture(sc))
        pot_vals = estimator.decode_pot_trace(capture).values
        display_vals = estimator.decode_display_trace(capture).values
    n = min(pot_vals.shape[0], display_vals.shape[0])
    lines = ["t_ms,pot_code,display_code"]
    for i in range(n):
        lines.append(f"{i},{int(pot_vals[i])},{int(display_vals[i])}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("preset", ["zero-delay", "remote-default"])
def test_export_plot_bytes_match_the_row_by_row_writer(tmp_path, preset):
    out = tmp_path / "plot"
    assert cli.main(["export-plot", "--config", preset, "--seed", "5",
                     "--duration-ms", "2000", "--out", str(out)]) == 0
    sc = cli.load_scenario(preset, seed=5, duration_ms=2000.0)
    want = _row_by_row_plot_data(sc)
    assert (out / "plot_data.csv").read_bytes() == want
    assert want.count(b"\n") > 1900


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.fixture
def fresh_parser():
    """cli.main builds its parser again on its next call, and again after
    the test, so no test sees a parser another one built."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(fresh_parser, tmp_path, monkeypatch):
    build, built = cli.build_parser, []

    def counting_build_parser():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(3):
        assert cli.main(["estimate", str(tmp_path / "nope.csv")]) == 2
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_call(tmp_path):
    assert cli.build_parser() is not cli.build_parser()
    # an option added to a caller's own parser is not one main accepts
    own = cli.build_parser()
    own.add_argument("--extra")
    assert own.parse_args(["--extra", "1", "simulate"]).extra == "1"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--extra", "1", "estimate", str(tmp_path / "nope.csv")])
    assert exc.value.code == 2


def test_a_failed_parse_leaves_the_parser_usable(tmp_path, capsys):
    args = ["simulate", "--duration-ms", "2000", "--seed", "3"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == first
    for name in ("trace_A.csv", "report.txt"):
        assert ((tmp_path / "b" / name).read_bytes()
                == (tmp_path / "a" / name).read_bytes())


def test_an_option_value_does_not_outlive_its_call(tmp_path, capsys):
    simdir = tmp_path / "sim"
    assert cli.main(["simulate", "--duration-ms", "1500", "--max-lag", "50",
                     "--out", str(simdir)]) == 0
    trace = str(simdir / "trace_A.csv")
    assert cli.main(["estimate", trace, "--max-lag", "50"]) == 0
    capsys.readouterr()
    # the default window of 200 ms needs 2000 samples, so 1500 fail
    assert estimator.DEFAULT_MAX_LAG_MS == 200
    assert cli.main(["estimate", trace]) == 3
    assert "lag search of 200 ms" in capsys.readouterr().err
    assert cli._parser().parse_args(["simulate"]).max_lag == 200


def test_each_subcommand_reaches_its_handler(tmp_path):
    handlers = {"simulate": cli.cmd_simulate, "estimate": cli.cmd_estimate,
                "batch": cli.cmd_batch, "export-plot": cli.cmd_export_plot}
    assert cli.main(["estimate", str(tmp_path / "nope.csv")]) == 2
    for _ in range(2):
        for command, handler in handlers.items():
            argv = [command, "t.csv"] if command == "estimate" else [command]
            assert cli._parser().parse_args(argv).func is handler


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_matches_a_fresh_interpreter(argv, fresh_parser, monkeypatch,
                                          capsys):
    done = subprocess.run([sys.executable, "-m", "vrlatsim", *argv],
                          env=_child_env(COLUMNS="100"), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    want = done.stdout
    assert "usage: vrlatsim" in want

    def help_text():
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    monkeypatch.setenv("COLUMNS", "100")
    # the first call builds the parser and the second reuses it
    assert help_text() == want
    assert help_text() == want
    # a parser built at another width prints at the width of the call
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    assert help_text() != want
    monkeypatch.setenv("COLUMNS", "100")
    assert help_text() == want
