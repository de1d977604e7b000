"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q"""
import contextlib
import io
import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, sha256, subprocess_env  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_commands_depend_only_on_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.items(3, tmp_path)
    assert first == workload.items(3, tmp_path)
    assert [i.argv for i in first] != [i.argv for i in workload.items(4, tmp_path)]
    keys = [i.key for i in first]
    assert len(set(keys)) == len(keys) == workload.pool_size


def test_generated_trace_pairs_are_identical_for_a_seed(tmp_path):
    keys = WORKLOADS["estimate-remote-20s"].pool_keys(5)[:2]
    digests = []
    for attempt in ("a", "b"):
        jobs = [f"{key}:{tmp_path / attempt / str(key)}" for key in keys]
        subprocess.run([sys.executable, str(HERE / "gen_pairs.py"), "remote-default",
                        "2500", *jobs], env=subprocess_env(SRC), check=True)
        digests.append({p.relative_to(tmp_path / attempt): sha256(p)
                        for p in sorted((tmp_path / attempt).rglob("*"))
                        if p.is_file()})
    assert len(digests[0]) == 3 * len(keys)
    assert digests[0] == digests[1]


def _table(spans):
    """spans: (name, parent, start, end) in open order."""
    names = sorted({s[0] for s in spans})
    ids = {n: i for i, n in enumerate(names)}
    return SpanTable(names, array("i", [ids[s[0]] for s in spans]),
                     array("i", [s[1] for s in spans]), array("i", [0] * len(spans)),
                     array("d", [s[2] for s in spans]), array("d", [s[3] for s in spans]))


def test_self_time_subtracts_the_union_of_children():
    table = _table([
        ("cli.main", -1, 0.0, 10.0),
        ("rig.run_capture", 0, 1.0, 5.0),
        ("rig.simulate_station", 1, 1.5, 4.5),
        ("codec.encode", 2, 2.0, 2.5),
        ("tracefile.write_trace", 0, 6.0, 9.0),
        ("tracefile.atomic_write_text", 4, 7.0, 9.0),
        # overlapping and out-of-parent children count once, clipped
        ("netsim.remote_capture", -1, 20.0, 30.0),
        ("rig.simulate_station", 6, 19.0, 24.0),
        ("codec.decode", 6, 22.0, 26.0),
    ])
    assert table.self_times() == pytest.approx(
        [3.0, 1.0, 2.5, 0.5, 1.0, 2.0, 4.0, 5.0, 4.0])
    assert table.outermost("rig") == [1, 7]
    assert table.outermost({"tracefile.write_trace",
                            "tracefile.atomic_write_text"}) == [4]
    metrics = table.layer_metrics()
    assert metrics["rig.capture_ms"] == pytest.approx(1000.0 * (4.0 + 5.0))
    assert metrics["tracefile.write_ms"] == pytest.approx(1000.0 * 3.0)
    assert metrics["cli.self_ms"] == pytest.approx(1000.0 * 3.0)
    assert metrics["netsim.self_ms"] == pytest.approx(1000.0 * 4.0)
    assert metrics["codec.ms"] == pytest.approx(1000.0 * 4.5)
    assert metrics["codec.calls"] == 2


def test_layer_metrics_are_medians_over_ops():
    table = _table([("cli.main", -1, 0.0, 1.0), ("cli.main", -1, 2.0, 4.0),
                    ("cli.main", -1, 5.0, 8.0)])
    table.op = array("i", [0, 1, 2])
    assert table.layer_metrics()["cli.self_ms"] == pytest.approx(2000.0)


def test_tail_is_the_value_with_ten_beyond_it():
    assert run.tail_latency(range(1, 101)) == (90.0, 90)
    assert run.tail_latency(range(1, 41)) == (75.0, 30)
    assert run.tail_latency(range(1, 22)) == (100.0 * 11 / 21, 11)
    assert run.tail_latency(range(1, 16)) == (50.0, 8)


def test_tracer_reaches_every_binding_site_and_restores_them(tmp_path):
    from vrlatsim import cli, netsim

    originals = (cli.load_scenario, netsim.simulate_station, cli.rig.run_capture)
    tracer = Tracer()
    argv = ["simulate", "--config", "remote-default", "--duration-ms", "2500",
            "--out", str(tmp_path)]
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert tracer.call("cli.main", cli.main, argv) == 0
    assert (cli.load_scenario, netsim.simulate_station, cli.rig.run_capture) == originals
    table = tracer.spans()
    names = {table.names[table.name[s]] for s in range(len(table))}
    assert {"cli.load_scenario", "netsim.remote_capture", "netsim.sample_and_send",
            "rig.simulate_station", "estimator.estimate_remote",
            "estimator.cross_correlate", "codec.decode",
            "tracefile.write_trace", "tracefile.atomic_write_text"} <= names
    metrics = table.layer_metrics()
    assert metrics["netsim.self_ms"] > 0 and metrics["codec.calls"] > 0
    assert tracer.counters["rig.samples"] == 2 * 2500
    assert tracer.counters["estimator.lags"] == 2 * 201
    assert tracer.counters["tracefile.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())


def test_normalized_time_scales_by_the_neighbouring_references(monkeypatch):
    references = iter([0.016, 0.032, 0.048])
    monkeypatch.setattr(run, "reference_kernel", lambda: next(references))
    clocked = run.Clocked()
    clocked.start()
    clocked.add(0.1)
    clocked.add(0.2)
    assert clocked.reference == pytest.approx([0.024, 0.040])
    assert clocked.normalized == pytest.approx(
        [0.1 * run.REFERENCE_NOMINAL_S / 0.024, 0.2 * run.REFERENCE_NOMINAL_S / 0.040])
