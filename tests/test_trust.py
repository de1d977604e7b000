"""Known defects of the reported latency, one row per ROADMAP evidence line.

Each row runs the instrument as a user does, through `cli.main`, and
asserts what its ROADMAP item asks for:
  - item 1, one bad sample: the estimate stays within 1 ms of the clean
    one and the fault's warning (`display_glitch` for a photo row,
    `reference_glitch` for a pot sample) is raised;
  - item 13, a lag past the window: the run exits non-zero, warns
    `lag_modulo_period`, or reports within 1 ms of the clean lag plus the
    queue's delay.
A row that fails today is a strict xfail whose reason records what the
instrument reports now; the change that fixes it makes it XPASS, which
fails the suite until that change removes the mark.  The clean sweep
at the end guards every warning against false positives.
"""
import os
from dataclasses import replace

import pytest

from faults import FAULTS
from vrlatsim import cli, estimator, rig, tracefile
from vrlatsim import scenario as scenario_mod

# the evidence runs of items 1 and 13
CLEAN = replace(scenario_mod.get_preset("vive-baseline"), duration_ms=5000.0, seed=1)
CLEAN_MS = 6


def _read_report(path):
    """{key: value} of the report at `path`, or {} if none was written."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return dict(line.split(" = ", 1) for line in handle.read().splitlines())


def _estimate_with_fault(tmp_path, fault, params):
    """`estimate` of the clean run's trace with one fault applied."""
    capture = FAULTS[fault](rig.run_capture(CLEAN), **params)
    trace, out = str(tmp_path / "trace_A.csv"), str(tmp_path / "report.txt")
    tracefile.write_trace(trace, tracefile.quantize_capture(capture))
    return cli.main(["estimate", trace, "--out", out]), _read_report(out)


def _simulate(tmp_path, sc):
    config = tmp_path / "scenario.cfg"
    config.write_text(scenario_mod.format_config(sc), encoding="utf-8")
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    return code, _read_report(str(out / "report.txt"))


def test_the_clean_run_reports_its_evidence_value(tmp_path):
    # the rows below compare against this run
    code, report = _simulate(tmp_path, CLEAN)
    assert code == 0
    assert report["motion_to_photon_ms"] == str(CLEAN_MS)
    assert report["warnings"] == "none"


def _row(item, today, *values):
    # an error of the test itself is not the defect's failure
    return pytest.param(*values, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"item {item}: {today}"))


@pytest.mark.parametrize("fault, params, warning", [
    _row(1, f"reads {ms} ms, no warning", "white_photo_row", {"row": row},
         "display_glitch")
    for row, ms in ((13, 23), (26, 34), (1000, 2), (4990, 3))
] + [
    _row(1, "reads 10 ms, no warning", "pot_sample", {"index": 4990, "value": 0.0},
         "reference_glitch"),
], ids=["photo-row-13", "photo-row-26", "photo-row-1000", "photo-row-4990",
        "pot-4990-at-0"])
def test_one_bad_sample_does_not_move_the_estimate(fault, params, warning,
                                                    tmp_path, capsys):
    code, report = _estimate_with_fault(tmp_path, fault, params)
    assert code == 0, capsys.readouterr().err
    assert abs(int(report["motion_to_photon_ms"]) - CLEAN_MS) <= 1
    assert warning in report["warnings"].split(",")


@pytest.mark.parametrize("queue", [
    _row(13, f"reads {ms} ms at exit 0, no warning", queue)
    for queue, ms in ((89, 0), (90, 6), (91, 17))
], ids=["queue-89", "queue-90", "queue-91"])
def test_a_lag_past_the_window_is_not_reported_silently(queue, tmp_path):
    pipeline = replace(CLEAN.pipeline, frame_delay_queue_len=queue)
    target_ms = CLEAN_MS + queue * 1000.0 / pipeline.refresh_hz
    code, report = _simulate(tmp_path, replace(CLEAN, pipeline=pipeline))
    assert (code != 0
            or "lag_modulo_period" in report["warnings"].split(",")
            or abs(int(report["motion_to_photon_ms"]) - target_ms) <= 1)


def test_clean_runs_raise_no_warning():
    # the shortest capture the default lag search takes, one sample per ms
    duration_ms = float(estimator.MIN_LENGTH_FACTOR * estimator.DEFAULT_MAX_LAG_MS)
    warned = []
    for preset in scenario_mod.preset_names():
        sc = replace(scenario_mod.get_preset(preset), duration_ms=duration_ms)
        reports, failures = cli.run_batch(sc, 50, 0)
        assert failures == []
        warned += [(preset, seed, report.warnings)
                   for seed, report in enumerate(reports) if report.warnings]
    assert warned == []
