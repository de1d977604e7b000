"""The three benchmark workloads: their inputs, op command lines and checks.

Every workload is a closed loop of `vrlatsim` CLI commands ("ops") cycling
over a fixed pool of inputs derived from the workload seed.  Because the
pool is fixed, each run repeats some inputs, which doubles as the
determinism check, and the latency statistic is taken over the pool, so it
repeats exactly for a given seed.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

RECEIVER_LOCAL_FLOOR_MS = 11.06   # acceptance 6: remote latency never goes below
M2P_BAND_MS = (3, 10)             # tests/test_cli.py band for vive-baseline
PEAK_WARNING_LEVEL = 0.9          # estimator's low_peak_coefficient threshold


class CheckFailed(Exception):
    """An op's output breaks the contract it is checked against."""


@dataclass(frozen=True)
class Item:
    key: int            # the seed (batch: the base seed) this op runs
    argv: tuple         # arguments for cli.main
    out: Path           # where the op writes


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def _report_checks(fields: dict):
    if "low_peak_coefficient" in fields.get("warnings", ""):
        raise CheckFailed(f"low_peak_coefficient warning ({fields['warnings']})")


def _remote_latency(fields: dict) -> int:
    remote = int(fields["remote_latency_ms"])
    if remote < RECEIVER_LOCAL_FLOOR_MS:
        raise CheckFailed(f"remote_latency_ms {remote} below the "
                          f"{RECEIVER_LOCAL_FLOOR_MS} ms receiver-local floor")
    return remote


class Workload:
    name = ""
    preset = ""
    pool_size = 16
    seed_stride = 1        # seeds one op consumes
    samples_per_op = 0     # 1 ms ADC intervals per op, summed over stations
    reference_ms = 0.0     # the acceptance suite's expected latency

    def pool_keys(self, seed: int) -> list:
        return [seed * 1000 + i * self.seed_stride for i in range(self.pool_size)]

    def items(self, seed: int, work: Path) -> list:
        return [Item(key, self.argv(key, work / str(key)), work / str(key))
                for key in self.pool_keys(seed)]

    def prepare(self, items: list, env: dict) -> dict:
        """Build the inputs the ops read; returns their digests by key."""
        return {}

    def argv(self, key: int, out: Path) -> tuple:
        raise NotImplementedError

    def check(self, item: Item) -> tuple:
        """Return (reported latency in ms, {file: sha256}) or raise CheckFailed."""
        raise NotImplementedError

    def followups(self, items: list) -> list:
        """Extra (item, check) ops run after the timed loop."""
        return []


class SimulateLocal(Workload):
    name = "simulate-local-20s"
    preset = "vive-baseline"
    samples_per_op = 20000
    reference_ms = 5.0     # acceptance 1: tracking 2 ms + render 3 ms

    def argv(self, key, out):
        return ("simulate", "--config", self.preset, "--duration-ms", "20000",
                "--seed", str(key), "--out", str(out))

    def check(self, item):
        report = item.out / "report.txt"
        fields = parse_report(report.read_text())
        _report_checks(fields)
        m2p = int(fields["motion_to_photon_ms"])
        if not M2P_BAND_MS[0] <= m2p <= M2P_BAND_MS[1]:
            raise CheckFailed(f"motion_to_photon_ms {m2p} outside {M2P_BAND_MS}")
        return m2p, {"report.txt": sha256(report),
                     "trace_A.csv": sha256(item.out / "trace_A.csv")}

    def followups(self, items):
        """`estimate` on a sample of written traces reproduces report.txt."""
        return [(Item(item.key,
                      ("estimate", str(item.out / "trace_A.csv"),
                       "--out", str(item.out / "reestimate.txt")),
                      item.out), _reproduces_report)
                for item in items[::4]]


def _reproduces_report(item: Item) -> tuple:
    if (item.out / "reestimate.txt").read_bytes() != (item.out / "report.txt").read_bytes():
        raise CheckFailed("estimate on trace_A.csv does not reproduce report.txt")
    return None, {}


class EstimateRemote(Workload):
    name = "estimate-remote-20s"
    preset = "remote-default"
    pool_size = 48
    samples_per_op = 2 * 20000
    reference_ms = 28.80   # acceptance 6: analytic composition

    def argv(self, key, out):
        return ("estimate", str(out / "trace_A.csv"), str(out / "trace_B.csv"),
                "--out", str(out / "estimate.txt"))

    def prepare(self, items, env):
        """Write the trace pairs with `simulate`, in two child processes."""
        halves = [items[0::2], items[1::2]]
        procs = [subprocess.Popen(
                     [sys.executable, str(HERE / "gen_pairs.py"), self.preset, "20000"]
                     + [f"{item.key}:{item.out}" for item in half],
                     env=env, stdout=subprocess.DEVNULL)
                 for half in halves if half]
        codes = [proc.wait() for proc in procs]
        if any(codes):
            raise RuntimeError(f"trace pair generation failed: exit codes {codes}")
        return {item.key: {name: sha256(item.out / name)
                           for name in ("trace_A.csv", "trace_B.csv", "report.txt")}
                for item in items}

    def check(self, item):
        estimate = item.out / "estimate.txt"
        text = estimate.read_bytes()
        if text != (item.out / "report.txt").read_bytes():
            raise CheckFailed("estimate report differs from the simulate report")
        fields = parse_report(text.decode())
        _report_checks(fields)
        return _remote_latency(fields), {"estimate.txt": sha256(estimate)}


class BatchRemote(Workload):
    name = "batch-remote-3s"
    preset = "remote-default"
    pool_size = 48
    seed_stride = 10       # the CLI's default of 10 runs
    samples_per_op = 10 * 2 * 3000
    reference_ms = 28.80

    def argv(self, key, out):
        return ("batch", "--config", self.preset, "--duration-ms", "3000",
                "--runs", "10", "--seed", str(key), "--out", str(out))

    def check(self, item):
        summary = item.out / "batch_summary.txt"
        text = summary.read_text()
        lines = text.splitlines()
        if "runs = 10" not in lines:
            raise CheckFailed(f"batch summary does not read 'runs = 10': {lines[:1]}")
        failed = [line for line in lines if line.startswith("run ")]
        if failed:
            raise CheckFailed(f"batch runs failed: {failed}")
        stats = {}
        for line in lines:
            metric, sep, rest = line.partition(": ")
            if sep:
                stats[metric] = {k: float(v) for k, v in
                                 (part.split(" = ") for part in rest.split(", "))}
        # every run's peak at or above the warning level means no run
        # carried a low_peak_coefficient warning
        if stats["peak_coefficient"]["min"] < PEAK_WARNING_LEVEL:
            raise CheckFailed(f"a run peaked at {stats['peak_coefficient']['min']}")
        _remote_latency({"remote_latency_ms": int(stats["remote_latency_ms"]["min"])})
        return stats["remote_latency_ms"]["avg"], {"batch_summary.txt": sha256(summary)}


WORKLOADS = {w.name: w for w in (SimulateLocal(), EstimateRemote(), BatchRemote())}


def subprocess_env(src: Path) -> dict:
    """Environment for child interpreters: the checkout's sources, one BLAS thread."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
