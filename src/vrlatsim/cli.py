"""Command line front end.

Subcommands:
  simulate     run a scenario, write traces and a latency report
  estimate     re-run estimation on previously written trace files
  batch        repeat a scenario across seeds and summarize the spread
  export-plot  write an aligned code-vs-code table for external plotting

Exit codes: 0 success, 1 invalid scenario or usage, 2 unreadable or
malformed files, 3 simulation or estimation failure.

`main` builds its argument parser on its first call and reuses it for
every later call in the process; `build_parser()` returns a new parser
each time, so a caller may extend its own copy without changing what
`main` accepts.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import audio as audio_path
from . import estimator, netsim, rig, tracefile
from . import scenario as scenario_mod
from .errors import (
    DecodeError,
    DetectionTimeoutError,
    EstimationError,
    ScenarioValidationError,
    SimulationError,
    TraceFormatError,
    UsageError,
)
from .estimator import LatencyReport
from .rig import RawCapture

# exit code of every error a command reports instead of raising; the
# errors of exit code 3 fail one run, so a batch records them and goes on
EXIT_CODES = {
    ScenarioValidationError: 1,
    UsageError: 1,
    TraceFormatError: 2,
    OSError: 2,
    DecodeError: 3,
    EstimationError: 3,
    SimulationError: 3,
    DetectionTimeoutError: 3,
}
RUN_FAILURES = tuple(exc for exc, code in EXIT_CODES.items() if code == 3)


def load_scenario(config: str, seed: int | None = None,
                  duration_ms: float | None = None) -> scenario_mod.Scenario:
    """Resolve a preset name or config file path into a scenario."""
    # validated once, at the end, with the overrides applied
    if config in scenario_mod.PRESETS:
        sc = scenario_mod.scenario_from_flat(scenario_mod.PRESETS[config])
    elif os.path.exists(config):
        with open(config, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ScenarioValidationError(
                    [f"config file {config!r} is not UTF-8 text: {exc}"]
                ) from None
        sc = scenario_mod.scenario_from_flat(scenario_mod.parse_config_text(text))
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
    captures: dict                      # station id -> RawCapture, disk precision
    report: LatencyReport


def capture_run(sc: scenario_mod.Scenario) -> list[RawCapture]:
    """Capture a scenario at file precision: the sender, then any receiver."""
    if sc.net is not None:
        return [tracefile.quantize_capture(c) for c in netsim.remote_capture(sc)]
    return [tracefile.quantize_capture(rig.run_capture(sc))]


def estimate_run(captures, *, max_lag_ms: int = estimator.DEFAULT_MAX_LAG_MS,
                 allow_negative: bool = False,
                 mouth_to_ear_ms: int | None = None) -> LatencyReport:
    """Shared estimation path for fresh captures and re-read trace files.

    `captures` yields the sender's capture and, for a remote run, the
    receiver's.  Each is decoded and dropped before the next is taken,
    so a generator of file reads holds one capture at a time.  The
    sender's potentiometer channel is the reference of its own local
    loop estimate and of the remote estimate on the receiver's display;
    it is prepared once, and both searches score against it.
    """
    captures = iter(captures)
    sender = next(captures)
    pot = estimator.decode_pot_trace(sender)
    pot = estimator.PreparedReference(pot.values, pot.start_utc_us)
    display = diag_trace = estimator.decode_display_trace(sender)
    sender_id = sender.station_id
    del sender
    direction = None
    receiver = next(captures, None)
    if receiver is not None:
        diag_trace = estimator.decode_display_trace(receiver)
        direction = f"{sender_id}->{receiver.station_id}"
        del receiver

    local = estimator.cross_correlate(pot, display, max_lag_ms, allow_negative)
    remote = None
    if direction is not None:
        remote = estimator.estimate_remote(pot, diag_trace, max_lag_ms,
                                           allow_negative)
    return estimator.build_report(local=local, remote=remote,
                                  remote_direction=direction,
                                  mouth_to_ear_ms=mouth_to_ear_ms,
                                  display_trace=diag_trace)


def simulate_scenario(sc: scenario_mod.Scenario, *,
                      max_lag_ms: int = estimator.DEFAULT_MAX_LAG_MS,
                      allow_negative: bool = False) -> RunResult:
    """Run a scenario end to end and estimate from the rounded captures.

    Captures are rounded to file precision before estimation, so the
    report written here matches what `estimate` later computes from the
    trace files.
    """
    captures = capture_run(sc)
    mouth_to_ear_ms = None
    if sc.audio is not None:
        mouth_to_ear_ms = audio_path.measure_mouth_to_ear(sc.audio, seed=sc.seed)

    report = estimate_run(captures, max_lag_ms=max_lag_ms,
                          allow_negative=allow_negative,
                          mouth_to_ear_ms=mouth_to_ear_ms)
    return RunResult(captures={c.station_id: c for c in captures}, report=report)


def run_batch(sc: scenario_mod.Scenario, runs: int, base_seed: int, *,
              max_lag_ms: int = estimator.DEFAULT_MAX_LAG_MS,
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


# ---------------------------------------------------------------------------
# subcommand handlers

def _check_max_lag(args):
    """Reject a lag window the estimator cannot search, before any work."""
    if args.max_lag < 1:
        raise UsageError(f"--max-lag must be at least 1, got {args.max_lag}")


def _check_lag_window(args, sc: scenario_mod.Scenario):
    """Reject, before any capture, a lag window that spans the motion
    period P (the sine correlates alike at lags L and L + P, so the search
    could not tell them apart) or that the capture is too short to search."""
    lo = -args.max_lag if args.allow_negative_lag else 0
    period_ms = sc.motion.period_ms
    if args.max_lag - lo >= period_ms:
        raise UsageError(
            f"--max-lag {args.max_lag}: the lag window [{lo}, {args.max_lag}] ms "
            f"spans the motion period of {period_ms:g} ms, in which lags L and "
            f"L + {period_ms:g} ms look alike; lower --max-lag")
    need = estimator.MIN_LENGTH_FACTOR * args.max_lag
    samples = rig.sample_count(sc.duration_ms)
    if samples < need:
        raise UsageError(
            f"--max-lag {args.max_lag}: a lag search of {args.max_lag} ms needs "
            f"at least {need} samples, and a capture of {sc.duration_ms:g} ms "
            f"gives {samples}; lengthen the capture or lower --max-lag")


def cmd_simulate(args) -> int:
    _check_max_lag(args)
    sc = load_scenario(args.config, args.seed, args.duration_ms)
    _check_lag_window(args, sc)
    result = simulate_scenario(sc, max_lag_ms=args.max_lag,
                               allow_negative=args.allow_negative_lag)
    os.makedirs(args.out, exist_ok=True)
    for station_id in sorted(result.captures):
        path = os.path.join(args.out, f"trace_{station_id}.csv")
        tracefile.write_trace(path, result.captures[station_id])
        print(f"wrote {path}", file=sys.stderr)
    if result.report.mouth_to_ear_ms is not None:
        path = os.path.join(args.out, "audio_latency.txt")
        tracefile.atomic_write_text(
            path, f"mouth_to_ear_ms = {result.report.mouth_to_ear_ms}\n"
        )
        print(f"wrote {path}", file=sys.stderr)
    report_path = os.path.join(args.out, "report.txt")
    tracefile.write_report(report_path, result.report)
    print(f"wrote {report_path}", file=sys.stderr)
    print(tracefile.format_report(result.report), end="")
    return 0


def _check_trace_count(args):
    """Reject trace paths that estimate would ignore, before reading any."""
    allowed = 1 if args.self_check else 2
    if len(args.traces) > allowed:
        what = ("--self reads one trace file" if args.self_check
                else "estimate reads one or two trace files")
        raise UsageError(f"{what}, got {len(args.traces)}: {' '.join(args.traces)}")


def cmd_estimate(args) -> int:
    _check_max_lag(args)
    _check_trace_count(args)
    if args.self_check:
        # the reference channel against itself: anything but lag 0 at
        # coefficient 1 means the toolchain is broken.  The display is
        # never decoded, so a dark one cannot fail the check
        pot = estimator.decode_pot_trace(tracefile.read_trace(args.traces[0]))
        report = estimator.build_report(local=estimator.cross_correlate(
            pot, pot, args.max_lag, args.allow_negative_lag))
    else:
        report = estimate_run(
            (tracefile.read_trace(path) for path in args.traces),
            max_lag_ms=args.max_lag,
            allow_negative=args.allow_negative_lag,
        )
    if args.out is not None:
        tracefile.write_report(args.out, report)
        print(f"wrote {args.out}", file=sys.stderr)
    print(tracefile.format_report(report), end="")
    return 0


def cmd_batch(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    _check_max_lag(args)
    sc = load_scenario(args.config, None, args.duration_ms)
    _check_lag_window(args, sc)
    base_seed = args.seed if args.seed is not None else sc.seed
    reports, failures = run_batch(sc, args.runs, base_seed,
                                  max_lag_ms=args.max_lag,
                                  allow_negative=args.allow_negative_lag)
    text = tracefile.format_batch_summary(reports, base_seed, failures)
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
    captures = capture_run(sc)
    pot_vals, display_vals = estimator.align_on_utc(
        estimator.decode_pot_trace(captures[0]),
        estimator.decode_display_trace(captures[-1]),
    )

    n = pot_vals.shape[0]
    table = np.column_stack((np.arange(n), pot_vals, display_vals)).ravel()
    text = "t_ms,pot_code,display_code\n" + ("%d,%d,%d\n" * n) % tuple(table.tolist())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "plot_data.csv")
    tracefile.atomic_write_text(path, text)
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
        "--max-lag", type=int, default=estimator.DEFAULT_MAX_LAG_MS,
        dest="max_lag",
        help=f"lag search window in ms (default: {estimator.DEFAULT_MAX_LAG_MS})",
    )
    parser.add_argument(
        "--allow-negative-lag", action="store_true",
        help="also search negative lags (display leading the reference)",
    )


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand and option of `main`."""
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not on import, and shared by every later call:
    # parsing leaves a parser unchanged, and help reads its width from
    # the terminal when it is formatted, not when the parser is built
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        # a usage error's message carries its own header
        header = "" if isinstance(exc, UsageError) else "error: "
        print(f"{header}{exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
