"""Command line front end.

Subcommands:
  simulate     run a scenario, write traces and a latency report
  estimate     re-run estimation on previously written trace files
  batch        repeat a scenario across seeds and summarize the spread
  export-plot  write an aligned code-vs-code table for external plotting

Exit codes: 0 success, 1 invalid scenario or usage, 2 unreadable or
malformed files, 3 simulation or estimation failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import audio as audio_path
from . import estimator, netsim, rig, tracefile
from . import scenario as scenario_mod
from .audio import MouthToEarResult
from .errors import (
    ClockStateError,
    ClockSyncError,
    DecodeError,
    DetectionTimeoutError,
    EstimationError,
    ScenarioValidationError,
    SimulationError,
    TraceFormatError,
)
from .estimator import LatencyReport
from .rig import RawCapture

# default lag search window; generous for every preset (the deepest
# frame queue preset sits near 117 ms) while keeping the 10x trace
# length requirement satisfiable with the default 5 s capture
DEFAULT_CLI_MAX_LAG_MS = 200

# exit code of every error a command reports instead of raising; the
# errors of exit code 3 fail one run, so a batch records them and goes on
EXIT_CODES = {
    ScenarioValidationError: 1,
    TraceFormatError: 2,
    OSError: 2,
    DecodeError: 3,
    EstimationError: 3,
    SimulationError: 3,
    ClockStateError: 3,
    ClockSyncError: 3,
    DetectionTimeoutError: 3,
}
RUN_FAILURES = tuple(exc for exc, code in EXIT_CODES.items() if code == 3)


def load_scenario(config: str, seed: int | None = None,
                  duration_ms: float | None = None) -> scenario_mod.Scenario:
    """Resolve a preset name or config file path into a scenario."""
    if config in scenario_mod.PRESETS:
        sc = scenario_mod.get_preset(config)
    elif os.path.exists(config):
        with open(config) as handle:
            sc = scenario_mod.load_config_text(handle.read())
    else:
        raise ScenarioValidationError(
            [
                f"{config!r} is neither a preset nor an existing config file; "
                f"presets: {', '.join(scenario_mod.preset_names())}"
            ]
        )
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if duration_ms is not None:
        overrides["duration_ms"] = duration_ms
    if overrides:
        sc = replace(sc, **overrides)
        scenario_mod.raise_if_invalid(sc)
    return sc


@dataclass
class RunResult:
    scenario: scenario_mod.Scenario
    captures: dict                      # station id -> RawCapture, disk precision
    report: LatencyReport
    audio_result: MouthToEarResult | None


def estimate_captures(primary: RawCapture, secondary: RawCapture | None = None, *,
                      max_lag_ms: int = DEFAULT_CLI_MAX_LAG_MS,
                      allow_negative: bool = False,
                      audio_result: MouthToEarResult | None = None,
                      self_check: bool = False) -> LatencyReport:
    """Shared estimation path for fresh captures and re-read trace files.

    With two captures the first supplies the reference potentiometer
    channel and the second the observed display, on top of the first
    station's own local loop estimate.
    """
    if self_check:
        # correlate the reference channel against itself; anything but
        # lag 0 at coefficient 1 means the toolchain itself is broken
        ref = estimator.decode_pot_trace(primary)
        corr = estimator.cross_correlate(ref, ref, max_lag_ms, allow_negative)
        return estimator.build_report(local=corr)

    pot = estimator.decode_pot_trace(primary)
    display = estimator.decode_display_trace(primary)
    local = estimator.cross_correlate(pot, display, max_lag_ms, allow_negative)
    remote = None
    direction = None
    diag_trace = display
    if secondary is not None:
        remote_display = estimator.decode_display_trace(secondary)
        remote = estimator.estimate_remote(pot, remote_display,
                                           max_lag_ms, allow_negative)
        direction = f"{primary.station_id}->{secondary.station_id}"
        diag_trace = remote_display
    return estimator.build_report(
        local=local,
        remote=remote,
        remote_direction=direction,
        mouth_to_ear=audio_result,
        display_trace=diag_trace,
    )


def simulate_scenario(sc: scenario_mod.Scenario, *,
                      max_lag_ms: int = DEFAULT_CLI_MAX_LAG_MS,
                      allow_negative: bool = False) -> RunResult:
    """Run a scenario end to end and estimate from the rounded captures.

    Captures are rounded to file precision before estimation, so the
    report written here matches what `estimate` later computes from the
    trace files.
    """
    scenario_mod.raise_if_invalid(sc)
    captures = {}
    if sc.net is not None:
        sender, receiver = netsim.remote_capture(sc)
        captures[sender.station_id] = tracefile.quantize_capture(sender)
        captures[receiver.station_id] = tracefile.quantize_capture(receiver)
        primary = captures[sender.station_id]
        secondary = captures[receiver.station_id]
    else:
        capture = tracefile.quantize_capture(rig.run_capture(sc))
        captures[capture.station_id] = capture
        primary, secondary = capture, None

    audio_result = None
    if sc.audio is not None:
        audio_result = audio_path.measure_mouth_to_ear(sc.audio, seed=sc.seed)

    report = estimate_captures(
        primary, secondary,
        max_lag_ms=max_lag_ms,
        allow_negative=allow_negative,
        audio_result=audio_result,
    )
    return RunResult(scenario=sc, captures=captures, report=report,
                     audio_result=audio_result)


def run_batch(sc: scenario_mod.Scenario, runs: int, base_seed: int, *,
              max_lag_ms: int = DEFAULT_CLI_MAX_LAG_MS,
              allow_negative: bool = False):
    """Repeat a scenario with seeds base_seed..base_seed+runs-1.

    Returns (reports, failures); failures hold (run_index, message) for
    runs whose estimation failed, without aborting the rest.
    """
    reports = []
    failures = []
    for index in range(runs):
        run_sc = replace(sc, seed=base_seed + index)
        try:
            result = simulate_scenario(run_sc, max_lag_ms=max_lag_ms,
                                       allow_negative=allow_negative)
        except RUN_FAILURES as exc:
            failures.append((index, str(exc)))
            continue
        reports.append(result.report)
    return reports, failures


_BATCH_METRICS = (
    "motion_to_photon_ms",
    "remote_latency_ms",
    "mouth_to_ear_ms",
    "peak_coefficient",
)


def summarize_reports(reports) -> list:
    rows = []
    for metric in _BATCH_METRICS:
        values = [getattr(r, metric) for r in reports
                  if getattr(r, metric) is not None]
        if values:
            rows.append((metric, np.asarray(values, dtype=float)))
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_simulate(args) -> int:
    sc = load_scenario(args.config, args.seed, args.duration_ms)
    result = simulate_scenario(sc, max_lag_ms=args.max_lag,
                               allow_negative=args.allow_negative_lag)
    os.makedirs(args.out, exist_ok=True)
    for station_id in sorted(result.captures):
        path = os.path.join(args.out, f"trace_{station_id}.csv")
        tracefile.write_trace(path, result.captures[station_id])
        print(f"wrote {path}", file=sys.stderr)
    if result.audio_result is not None:
        path = os.path.join(args.out, "audio_latency.txt")
        tracefile.atomic_write_text(
            path, f"mouth_to_ear_ms = {result.audio_result.intervals}\n"
        )
        print(f"wrote {path}", file=sys.stderr)
    report_path = os.path.join(args.out, "report.txt")
    tracefile.write_report(report_path, result.report)
    print(f"wrote {report_path}", file=sys.stderr)
    print(tracefile.format_report(result.report), end="")
    return 0


def cmd_estimate(args) -> int:
    primary = tracefile.read_trace(args.traces[0])
    secondary = tracefile.read_trace(args.traces[1]) if len(args.traces) > 1 else None
    report = estimate_captures(
        primary, secondary,
        max_lag_ms=args.max_lag,
        allow_negative=args.allow_negative_lag,
        self_check=args.self_check,
    )
    if args.out is not None:
        tracefile.write_report(args.out, report)
        print(f"wrote {args.out}", file=sys.stderr)
    print(tracefile.format_report(report), end="")
    return 0


def cmd_batch(args) -> int:
    sc = load_scenario(args.config, None, args.duration_ms)
    base_seed = args.seed if args.seed is not None else sc.seed
    reports, failures = run_batch(sc, args.runs, base_seed,
                                  max_lag_ms=args.max_lag,
                                  allow_negative=args.allow_negative_lag)
    text = tracefile.format_batch_summary(summarize_reports(reports),
                                          base_seed, failures)
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "batch_summary.txt")
    tracefile.atomic_write_text(summary_path, text)
    print(f"wrote {summary_path}", file=sys.stderr)
    print(text, end="")
    if not reports:
        raise EstimationError("every batch run failed; see summary for details")
    return 0


def cmd_export_plot(args) -> int:
    sc = load_scenario(args.config, args.seed, args.duration_ms)
    scenario_mod.raise_if_invalid(sc)
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
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "plot_data.csv")
    tracefile.atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _add_scenario_options(parser):
    parser.add_argument(
        "--config", default="vive-baseline",
        help="preset name or config file path (default: vive-baseline)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario seed",
    )
    parser.add_argument(
        "--duration-ms", type=float, default=None, dest="duration_ms",
        help="override the capture duration",
    )


def _add_estimation_options(parser):
    parser.add_argument(
        "--max-lag", type=int, default=DEFAULT_CLI_MAX_LAG_MS, dest="max_lag",
        help=f"lag search window in ms (default: {DEFAULT_CLI_MAX_LAG_MS})",
    )
    parser.add_argument(
        "--allow-negative-lag", action="store_true",
        help="also search negative lags (display leading the reference)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrlatsim",
        description="simulated motion-to-photon and mouth-to-ear latency "
                    "measurements over brightness-coded displays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write traces + report")
    _add_scenario_options(p)
    _add_estimation_options(p)
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate latency from trace files")
    p.add_argument("traces", nargs="+",
                   help="one local trace, or sender trace then receiver trace")
    _add_estimation_options(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--self", dest="self_check", action="store_true",
                   help="correlate the reference channel against itself "
                        "(expects lag 0, coefficient 1)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("batch", help="run a scenario across consecutive seeds")
    _add_scenario_options(p)
    _add_estimation_options(p)
    p.add_argument("--runs", type=int, default=10, help="number of runs (default: 10)")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("export-plot",
                       help="write aligned pot/display code columns as CSV")
    _add_scenario_options(p)
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
