"""Benchmark for vrlatsim: closed-loop CLI workloads with checked outputs.

One workload per process, one client, one compute thread.  Each op is one
`vrlatsim` command run in-process through `cli.main([...])`.

    python3 perfbench/run.py --workload simulate-local-20s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Gated host times are normalized by a reference kernel timed next to each
op, because the speed of a shared machine drifts (README.md).
`--workload all` runs every workload in its own process and prints one
table.  The last line of standard output is a JSON object; the full record
of a run (environment, per-op times, digests, failures) goes to
perfbench/out/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, CheckFailed, subprocess_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TAIL_BEYOND = 10
SETUP_REPEATS = (2, 3)   # fresh interpreters before and after the timed loop
SETUP_SNIPPET = "from vrlatsim import cli; cli.load_scenario({!r})"
# The reference kernel's time on an uncontended core of the 2-vCPU VM the
# benchmark was defined on.  Host times are scaled by this over the kernel's
# time next to them (README.md, "Normalized host time").
REFERENCE_NOMINAL_S = 0.016

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "latency_bias_ms": "sim_ms",
}
PER_LAYER = dict(
    [(name, "ms") for name, _, _ in TIME_METRICS]
    + [(name, "bytes" if name.startswith("tracefile.") else "count")
       for name in COUNT_METRICS]
    + [("trace.overhead_ms", "ms")]
)


def tail_latency(values) -> tuple:
    """(percentile, value) of the highest percentile that has TAIL_BEYOND
    values beyond it: the (TAIL_BEYOND + 1)-th largest value.  With at most
    2 * TAIL_BEYOND values that would sit below the median, which stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Session:
    """The ops of one run, their checks and the determinism record."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.digests = {}       # key -> {file: sha256} of the first run of that key
        self.latency = {}       # key -> reported latency of the first run
        self.seen = set()

    def _record(self, item) -> None:
        latency, digests = self.workload.check(item)
        first = self.digests.setdefault(item.key, digests)
        if first != digests:
            raise CheckFailed(f"re-running key {item.key} changed bytes: "
                              f"{first} then {digests}")
        self.latency.setdefault(item.key, latency)

    def op(self, item, tracer=None, check=None) -> tuple:
        """Run one CLI command and check it; returns (seconds, ok)."""
        self.attempted += 1
        self.seen.add(item.key)
        main = self.cli.main
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = main(list(item.argv))
                else:
                    code = tracer.call("cli.main", main, list(item.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # an op that raises is a failed op, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {err.getvalue()[-500:]}")
            if check is None:
                self._record(item)
            else:
                check(item)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failures.append({"key": item.key, "argv": list(item.argv),
                                  "reason": f"{type(exc).__name__}: {exc}"})
            return elapsed, False
        return elapsed, True


def reference_kernel() -> float:
    """Seconds for a fixed mix of numpy and interpreter work that does not
    touch vrlatsim; it measures how fast the machine runs right now."""
    import numpy as np

    start = time.perf_counter()
    ordered = np.sort(np.cumsum(np.sin(np.arange(300_000) * 1e-3))[::-1])
    text = ",".join("%.6f" % v for v in ordered[:20_000])
    sum(float(v) for v in text.split(","))
    return time.perf_counter() - start


class Clocked:
    """Step times, raw and normalized by the reference kernel time next to
    each step: raw * REFERENCE_NOMINAL_S / reference."""

    def __init__(self):
        self.raw = []
        self.normalized = []
        self.reference = []
        self._last = None

    def add(self, elapsed: float) -> None:
        """Record a step that ran since the previous reference measurement."""
        after = reference_kernel()
        reference = (self._last + after) / 2.0
        self._last = after
        self.raw.append(elapsed)
        self.reference.append(reference)
        self.normalized.append(elapsed * REFERENCE_NOMINAL_S / reference)

    def start(self) -> None:
        """Measure the reference before the first step of a series."""
        self._last = reference_kernel()


def measure_setup(preset: str, repeats: int, clocked: Clocked) -> None:
    """Time fresh interpreters that import vrlatsim and load a preset."""
    env = subprocess_env(SRC)
    clocked.start()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET.format(preset)],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        clocked.add(time.perf_counter() - start)


def environment() -> dict:
    import hashlib

    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "vrlatsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            git_sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from vrlatsim import cli

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, ops, traced_flags = Clocked(), Clocked(), []
    try:
        # set-up is timed at two points of the run, so one slow phase of a
        # shared machine does not decide its median alone
        if not trace:
            measure_setup(workload.preset, SETUP_REPEATS[0], setup)
        items = workload.items(seed, work)
        inputs = workload.prepare(items, subprocess_env(SRC))
        session = Session(workload, cli)
        tracer = Tracer() if trace else None
        session.op(items[0])                 # warm-up: lazy imports, first allocations
        samples = 0
        deadline = time.perf_counter() + seconds
        ops.start()
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            item = items[index % len(items)]
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.current_op = index
                with tracer.installed():
                    elapsed, ok = session.op(item, tracer=tracer)
            else:
                elapsed, ok = session.op(item)
                samples += workload.samples_per_op if ok else 0
            ops.add(elapsed)
            traced_flags.append(traced)
            index += 1
        # untimed: the rest of the pool, so the latency statistic covers it all
        for item in items:
            if item.key not in session.seen:
                session.op(item)
        for item, check in workload.followups(items):
            session.op(item, check=check)
        if not trace:
            measure_setup(workload.preset, SETUP_REPEATS[1], setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(session.failures)
    latencies = [session.latency[i.key] for i in items if i.key in session.latency]
    if not latencies:
        raise SystemExit(f"every op failed; first failure: {session.failures[0]}")

    def op_ms(times, traced):
        return [1000.0 * t for t, f in zip(times, traced_flags) if f == traced]

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "ops_timed": traced_flags.count(False), "ops_traced": traced_flags.count(True),
        "attempted": session.attempted, "failed": failed,
        "failures": session.failures,
        "op_ms": op_ms(ops.raw, False),
        "op_ms_normalized": op_ms(ops.normalized, False),
        "reference_ms": [1000.0 * t for t in ops.reference],
        "latency_by_key": {str(k): v for k, v in session.latency.items()},
        "digests_by_key": {str(k): v for k, v in session.digests.items()},
        "input_digests_by_key": {str(k): v for k, v in inputs.items()},
    }
    if trace:
        # span times are raw; the overhead compares normalized op times
        traced_p50 = statistics.median(op_ms(ops.raw, True))
        overhead = (statistics.median(op_ms(ops.normalized, True))
                    - statistics.median(op_ms(ops.normalized, False)))
        values = tracer.spans().layer_metrics()
        for name, total in tracer.counters.items():
            values[name] = total / traced_flags.count(True)
        values["trace.overhead_ms"] = overhead
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        record["traced_op_ms_p50"] = traced_p50
        record["op_shares"] = {name: values[name] / traced_p50
                               for name, _, _ in TIME_METRICS}
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{tag}.csv.gz")
    else:
        normalized = record["op_ms_normalized"]
        pct, tail = tail_latency(normalized)
        record["tail_percentile"] = pct
        # one probe is too long for the kernels beside it to track, so set-up
        # is scaled by the median reference over the whole run
        run_reference = statistics.median(setup.reference + ops.reference)
        record["setup_s"] = setup.raw
        raw = record["op_ms"]
        record["informational"] = {
            "raw op_ms_p50": (statistics.median(raw), "ms"),
            "raw op_ms_tail": (tail_latency(raw)[1], "ms"),
            "raw op_ms_min": (min(raw), "ms"),
            "raw setup_s": (statistics.median(setup.raw), "s"),
            "reference kernel p50": (statistics.median(record["reference_ms"]), "ms"),
        }
        metrics = {
            "op_ms_p50": (statistics.median(normalized), "ms"),
            "op_ms_tail": (tail, "ms"),
            "samples_per_s": (1000.0 * samples / sum(normalized), "1/s"),
            "setup_s": (statistics.median(setup.raw) * REFERENCE_NOMINAL_S / run_reference,
                        "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / session.attempted, "frac"),
            "latency_bias_ms": (abs(statistics.fmean(latencies) - workload.reference_ms),
                                "sim_ms"),
        }
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload.name} seed {seed}: {record['ops_timed']} timed ops"
          + (f", {record['ops_traced']} traced" if trace else
             f", tail = p{record['tail_percentile']:.4g} of {record['ops_timed']} ops")
          + f", {session.attempted} attempted, {failed} failed")
    for failure in session.failures:
        print(f"# failed: {failure['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in record.get("informational", {}).items():
        print(f"# {name} = {value:.6g} {unit} (not gated)")
    for name, share in record.get("op_shares", {}).items():
        print(f"# share of traced op: {name} {100.0 * share:.1f}%")
    return {
        "correct": failed == 0 and len(latencies) == len(items),
        "attempted": session.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':<22} {'metric':<28} {'value':>14} unit")
    for name, result in results.items():
        print(f"{name:<22} {'failed/attempted':<28} "
              f"{result['failed']:>7}/{result['attempted']:<6} ops")
        for metric, entry in result["metrics"].items():
            print(f"{name:<22} {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vrlatsim" / "cli.py").is_file():
        print(f"error: no vrlatsim sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: with OpenBLAS's default two threads the 201-lag
    # cross_correlate search is bimodal on a 2-vCPU machine (README.md)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
