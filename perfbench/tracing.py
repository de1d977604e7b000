"""Spans around vrlatsim's layers, recorded from outside the package.

`Tracer.installed()` replaces every public function of the traced modules
with a wrapper that records a span, at every place the CLI's call paths
look it up:

- module attributes, which cover `cli`'s `rig.`, `netsim.`, `estimator.`
  and `tracefile.` calls, `rig`'s and `estimator`'s `codec.` calls, and a
  module's calls to its own globals (`estimate_remote` calling
  `cross_correlate`, `write_trace` calling `atomic_write_text`);
- names one traced module imported from another (`netsim.simulate_station`);
- `cli.load_scenario`, which is counted in the scenario layer.

`clock` and `audio` are not wrapped: clock sync runs inside
`netsim.remote_capture` and is part of `netsim.self_ms`, and no workload
measures audio.  Spans live in flat arrays and are written out once, when
the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import os
import statistics
import time
from array import array

TRACED_MODULES = ("scenario", "rig", "netsim", "estimator", "codec", "tracefile")
LAYER_OVERRIDES = {"cli.load_scenario": "scenario"}

# Time metrics: (metric, how, span names or a layer).  "inclusive" sums the
# spans of the set that have no ancestor in the set; "self" sums their self
# times.
TIME_METRICS = (
    ("tracefile.write_ms", "inclusive",
     {"tracefile.write_trace", "tracefile.write_report", "tracefile.atomic_write_text"}),
    ("tracefile.read_ms", "inclusive", {"tracefile.read_trace", "tracefile.parse_trace"}),
    ("tracefile.quantize_ms", "inclusive", {"tracefile.quantize_capture"}),
    ("rig.capture_ms", "inclusive", "rig"),
    ("estimator.decode_display_ms", "self", {"estimator.decode_display_trace"}),
    ("codec.ms", "inclusive", "codec"),
    ("estimator.xcorr_ms", "inclusive", {"estimator.cross_correlate"}),
    ("netsim.self_ms", "self", "netsim"),
    ("scenario.load_ms", "inclusive", "scenario"),
    ("cli.self_ms", "self", {"cli.main"}),
)


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


# Counters read from a wrapped call's arguments or result, after its span ends.
COUNTERS = {
    "rig.simulate_station": ("rig.samples", lambda a, k, r: len(r)),
    "tracefile.atomic_write_text":
        ("tracefile.bytes_written", lambda a, k, r: os.path.getsize(_path_arg(a, k))),
    "tracefile.read_trace":
        ("tracefile.bytes_read", lambda a, k, r: os.path.getsize(_path_arg(a, k))),
    "estimator.cross_correlate": ("estimator.lags", lambda a, k, r: len(r.lags_ms)),
    "netsim.sample_and_send": ("netsim.updates", lambda a, k, r: len(r[0])),
}
COUNT_METRICS = ("codec.calls",) + tuple(sorted(name for name, _ in COUNTERS.values()))


def layer_of(name: str) -> str:
    return LAYER_OVERRIDES.get(name, name.split(".", 1)[0])


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.current_op = -1
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if count is not None:
                self.counters[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding site to a traced wrapper; restore on exit."""
        modules = [importlib.import_module(f"vrlatsim.{m}")
                   for m in TRACED_MODULES + ("cli",)]
        qualified = {}
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    qualified[obj] = f"{short}.{attr}"
        cli = modules[-1]
        qualified[cli.load_scenario] = "cli.load_scenario"
        wrappers = {fn: self.wrap(fn, name) for fn, name in qualified.items()}
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span, e.g. `cli.main` for one op."""
        return self.wrap(fn, name)(*args)

    def spans(self):
        return SpanTable(self.names, self.name, self.parent, self.op,
                         self.start, self.end)

    def write(self, path):
        """Write every span as gzipped CSV: op,id,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("op,id,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                handle.write(f"{self.op[sid]},{sid},{self.parent[sid]},"
                             f"{self.names[self.name[sid]]},"
                             f"{self.start[sid]!r},{self.end[sid]!r}\n")


class SpanTable:
    """Spans in open order, so a parent always precedes its children."""

    def __init__(self, names, name, parent, op, start, end):
        self.names, self.name, self.parent = names, name, parent
        self.op, self.start, self.end = op, start, end

    def __len__(self):
        return len(self.start)

    def duration(self, sid):
        return self.end[sid] - self.start[sid]

    def self_times(self) -> list:
        """Each span's duration minus the part of it its children cover."""
        children: dict = {}
        for sid in range(len(self)):
            p = self.parent[sid]
            if p >= 0:
                children.setdefault(p, []).append((self.start[sid], self.end[sid]))
        out = [self.duration(sid) for sid in range(len(self))]
        for p, spans in children.items():
            lo, hi = self.start[p], self.end[p]
            covered, reach = 0.0, lo
            for s, e in sorted(spans):
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    covered += e - s
                    reach = e
            out[p] -= covered
        return out

    def _selected(self, which) -> list:
        if isinstance(which, str):
            return [layer_of(n) == which for n in self.names]
        return [n in which for n in self.names]

    def outermost(self, which) -> list:
        """Spans in the set with no ancestor in the set."""
        wanted = self._selected(which)
        under = []      # span is in the set or below one
        picked = []
        for sid in range(len(self)):
            p = self.parent[sid]
            above = p >= 0 and under[p]
            mine = wanted[self.name[sid]]
            under.append(above or mine)
            if mine and not above:
                picked.append(sid)
        return picked

    def layer_metrics(self) -> dict:
        """Median over ops of each op's TIME_METRICS (ms) and codec call count."""
        self_t = self.self_times()
        ops = sorted(set(self.op))
        per_op = {}
        for metric, how, which in TIME_METRICS:
            totals = dict.fromkeys(ops, 0.0)
            if how == "inclusive":
                for s in self.outermost(which):
                    totals[self.op[s]] += self.duration(s)
            else:
                wanted = self._selected(which)
                for s in range(len(self)):
                    if wanted[self.name[s]]:
                        totals[self.op[s]] += self_t[s]
            per_op[metric] = [1000.0 * v for v in totals.values()]
        calls = dict.fromkeys(ops, 0)
        codec = self._selected("codec")
        for s in range(len(self)):
            if codec[self.name[s]]:
                calls[self.op[s]] += 1
        per_op["codec.calls"] = list(calls.values())
        return {metric: statistics.median(values) for metric, values in per_op.items()}
