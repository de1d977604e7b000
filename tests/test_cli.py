"""End-to-end command line tests driven through cli.main()."""
import os
from dataclasses import replace

import pytest

from vrlatsim import cli, scenario as scenario_mod
from vrlatsim.errors import DetectionTimeoutError, VrLatSimError


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


def test_estimate_matches_simulate_locally(tmp_path):
    simdir = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", "vive-baseline", "--out", simdir]) == 0
    out = str(tmp_path / "est.txt")
    code = cli.main(["estimate", os.path.join(simdir, "trace_A.csv"), "--out", out])
    assert code == 0
    assert _read(out) == _read(os.path.join(simdir, "report.txt"))


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
    assert "non-finite" in capsys.readouterr().err


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
    (lambda t: _last_row_replaced(t, "1999,1.5,0,0,0,0"),
     "interval_index 1999 holds a sample outside [0, 1]"),
], ids=["interval-2", "interval-nan", "fractional-start", "sample-1.5"])
def test_strictly_rejected_trace_exits_2(vive_trace_text, tmp_path, capsys,
                                         edit, message):
    text = edit(vive_trace_text)
    assert text != vive_trace_text
    trace = str(tmp_path / "trace_A.csv")
    with open(trace, "w") as handle:
        handle.write(text)
    assert cli.main(["estimate", trace]) == 2
    assert message in capsys.readouterr().err


def test_batch_records_an_audio_timeout_as_a_failed_run(tmp_path, capsys):
    sc = replace(scenario_mod.get_preset("audio-local"), duration_ms=2000.0)
    sc = replace(sc, audio=replace(sc.audio, threshold=0.99, attenuation=0.5))
    cfg = str(tmp_path / "deaf.cfg")
    with open(cfg, "w") as handle:
        handle.write(scenario_mod.format_config(sc))
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


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
