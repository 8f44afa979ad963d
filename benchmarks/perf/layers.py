"""Per-layer tracing from outside the program.

``install()`` replaces public functions and methods of each layer with
wrappers, patched where each name is looked up, that record a span
(name, start, end, parent) per call.  Nothing under ``src/`` changes.
The D-side hierarchy is called per memory operation, so its two entry
points get counting wrappers instead of spans: each adds its call count
and seconds to running totals, and every span records how much of them
accrued while it was open.

Pool workers are forked from a traced run and exit through
``os._exit``, so a forked process appends its spans to
``<spans_dir>/spans-<pid>.jsonl`` each time its outermost span closes.

``layer_metrics()`` turns the spans into the benchmark's per-layer
metrics.  Times are self times: a span's duration minus its children's
(same process), minus the D-side time inside it, minus the measured
cost of the D-side wrappers themselves.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

_PC = time.perf_counter


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, spans_dir):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.forked = False
        self.base_depth = 0
        self.spans = []
        self.stack = []
        self.next_id = 0
        # [calls, seconds] of the two D-side entry points.
        self.dside = [0, 0.0]
        self.iwalk = [0, 0.0]

    def _after_fork(self):
        # Spans inherited from the parent belong to the parent; the open
        # ones stay on the stack so the worker's spans keep their parent.
        self.pid = os.getpid()
        self.forked = True
        self.base_depth = len(self.stack)
        self.spans = []

    def open(self, name, **attrs):
        if os.getpid() != self.pid:
            self._after_fork()
        parent = self.stack[-1] if self.stack else None
        self.next_id += 1
        span = {
            "id": f"{self.pid}-{self.next_id}",
            "parent": parent["id"] if parent else None,
            "name": name,
            "pid": self.pid,
            "cell": attrs.pop("cell", None) or (parent and parent["cell"]),
            "model": attrs.pop("model", None) or (parent and parent["model"]),
            "attrs": attrs,
            "_d0": (self.dside[0], self.dside[1],
                    self.iwalk[0], self.iwalk[1]),
            "start": _PC(),
        }
        self.stack.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = _PC()
        self.stack.pop()
        d0 = span.pop("_d0")
        span["dside"] = [self.dside[0] - d0[0], self.dside[1] - d0[1]]
        span["iwalk"] = [self.iwalk[0] - d0[2], self.iwalk[1] - d0[3]]
        span["attrs"].update(attrs)
        self.spans.append(span)
        if self.forked and len(self.stack) == self.base_depth:
            self.write(os.path.join(self.spans_dir,
                                    f"spans-{self.pid}.jsonl"))
            self.spans = []

    def write(self, path):
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _span_wrapper(rec, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = rec.open(name, **(before(args, kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(span, error=True)
            raise
        rec.close(span, **(after(args, result) if after else {}))
        return result
    return wrapped


def _counter_wrapper(fn, acc):
    pc = _PC

    @functools.wraps(fn)
    def wrapped(self, *args):
        t0 = pc()
        result = fn(self, *args)
        acc[1] += pc() - t0
        acc[0] += 1
        return result
    return wrapped


def calibrate(n=100_000, rounds=3):
    """Per-call cost of a counting wrapper around an empty method.

    Returns ``(inner, outer)`` in seconds: ``inner`` is what the wrapper
    records for a call that does nothing (it lands in the D-side
    totals), ``outer`` the rest of its cost (it lands in the caller's
    span).  Each is the minimum over *rounds* timings.
    """
    class Plain:
        def call(self, x):
            return x

    acc = [0, 0.0]

    class Wrapped:
        call = _counter_wrapper(Plain.call, acc)

    inner = outer = float("inf")
    for _ in range(rounds):
        plain, wrapped = Plain().call, Wrapped().call
        t0 = _PC()
        for i in range(n):
            plain(i)
        t_plain = _PC() - t0
        acc[:] = [0, 0.0]
        t0 = _PC()
        for i in range(n):
            wrapped(i)
        t_wrapped = _PC() - t0
        round_inner = acc[1] / n
        inner = min(inner, round_inner)
        outer = min(outer, max((t_wrapped - t_plain) / n - round_inner, 0.0))
    return inner, outer


# ----------------------------------------------------------------------
# What is wrapped.  Each hook gets the call's arguments (before) or its
# arguments and result (after) and returns span attributes.

def _model_name(args, kwargs):
    return {"model": getattr(args[0], "name", None)}


def _solve_counts(args, result):
    record = result[1]
    return {"newton_iters": record.total_newton_iterations}


def _assembly_counts(args, result):
    return {"gauss_points": result[3].gauss_points}


def _linear_counts(args, result):
    return {"iters": result[1].iterations}


def _emit_counts(args, result):
    return {"ops": len(result)}


def _load_counts(args, result):
    return {"miss": result is None}


def _trace_key(args, kwargs):
    parts = list(args[1:]) + [kwargs[k] for k in sorted(kwargs)]
    return {"key": "/".join(str(p) for p in parts)}


def _cell_key(args, kwargs):
    return {"cell": args[1].key()}


def _backend(args, result):
    return {"backend": args[0].backend}


def _run_counts(args, result):
    return {"ops": result.instructions, "cycles": result.cycles}


def _hit(args, result):
    return {"hit": result is not None}


def _workers(args, kwargs):
    from repro.engine.pool import resolve_workers

    return {"workers": resolve_workers(kwargs.get("workers"))}


# (module[:class], attribute, span name, before hook, after hook)
SPANS = (
    ("repro.trace.solvertrace", "solve_model", "fem.solve",
     _model_name, _solve_counts),
    ("repro.fem.solver.newton", "assemble_system", "fem.assembly",
     None, _assembly_counts),
    ("repro.fem.solver.newton", "solve_linear", "fem.linear",
     None, _linear_counts),
    ("repro.trace.solvertrace", "trace_from_record", "trace.emit",
     None, _emit_counts),
    ("repro.trace.store:TraceStore", "save", "trace.store_save", None, None),
    ("repro.trace.store:TraceStore", "load", "trace.store_load",
     None, _load_counts),
    ("repro.core.runner:Runner", "trace_for", "runner.trace_for",
     _trace_key, None),
    ("repro.core.runner", "workload_trace", "runner.synth", None, None),
    ("repro.core.runner:Runner", "stats_for_job", "runner.job",
     _cell_key, None),
    ("repro.uarch.core.cycle", "get_streams", "streams.get", None, None),
    ("repro.uarch.core.cycle:CycleCore", "__init__", "cycle.init",
     None, _backend),
    ("repro.uarch.core.cycle:CycleCore", "run", "cycle.run",
     None, _run_counts),
    ("repro.engine.store:ResultStore", "get", "store.get", None, _hit),
    ("repro.engine.store:ResultStore", "put", "store.put", None, None),
    ("repro.engine.store:ResultStore", "flush", "store.flush", None, None),
    ("repro.engine.study", "run_jobs", "pool.run_jobs", _workers, None),
    ("repro.core.characterize", "run_jobs", "pool.run_jobs", _workers, None),
    ("repro.engine.pool", "prebuild_traces", "pool.prebuild", None, None),
    ("repro.core.characterize", "analyze", "profiling.analyze", None, None),
    ("repro.core.characterize", "hotspot_report", "profiling.analyze",
     None, None),
    ("repro.core.characterize", "metric_set", "profiling.analyze",
     None, None),
    ("repro.engine.study", "metric_set", "profiling.analyze", None, None),
)

# (module:class, method, Recorder attribute holding [calls, seconds])
COUNTERS = (
    ("repro.uarch.hierarchy:MemoryHierarchy", "access_data", "dside"),
    ("repro.uarch.hierarchy:MemoryHierarchy", "inst_miss_walk", "iwalk"),
)


def _target(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(rec):
    """Patch every entry point in :data:`SPANS` and :data:`COUNTERS`."""
    for path, attr, name, before, after in SPANS:
        obj = _target(path)
        setattr(obj, attr, _span_wrapper(rec, name, getattr(obj, attr),
                                         before, after))
    for path, attr, acc in COUNTERS:
        obj = _target(path)
        setattr(obj, attr, _counter_wrapper(getattr(obj, attr),
                                            getattr(rec, acc)))


# ----------------------------------------------------------------------
# Aggregation

def self_times(spans, outer):
    """``{span id: self seconds}``; *outer* is the D-side wrapper cost
    per call that lands in the calling span."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [k for k in children.get(s["id"], ()) if k["pid"] == s["pid"]]
        own_d = [s["dside"][i] - sum(k["dside"][i] for k in kids)
                 for i in (0, 1)]
        own_w = [s["iwalk"][i] - sum(k["iwalk"][i] for k in kids)
                 for i in (0, 1)]
        t = (s["end"] - s["start"]
             - sum(k["end"] - k["start"] for k in kids)
             - own_d[1] - own_w[1] - (own_d[0] + own_w[0]) * outer)
        out[s["id"]] = max(t, 0.0)
    return out


def _by_name(spans, selfs):
    out = {}
    for s in spans:
        entry = out.setdefault(s["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += selfs[s["id"]]
        entry[2] += s["end"] - s["start"]
    return out


def _attr_sum(spans, name, attr):
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


def layer_metrics(spans, inner, outer, journal_records, streams_computed):
    """The per-layer metrics (name -> value) of one traced run, plus the
    FEM breakdown per FE model and each layer's total self time."""
    selfs = self_times(spans, outer)
    named = _by_name(spans, selfs)

    def count(name):
        return named.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return named.get(name, (0, 0.0, 0.0))[1]

    # Each process's outermost spans hold all of its D-side calls (a
    # forked worker's outermost spans have their parent in another pid).
    outermost = [s for s in spans if s["parent"] is None
                 or s["parent"].split("-")[0] != str(s["pid"])]
    dside_n = sum(s["dside"][0] for s in outermost)
    iwalk_n = sum(s["iwalk"][0] for s in outermost)
    dside_s = max(sum(s["dside"][1] for s in outermost)
                  - dside_n * inner, 0.0)
    iwalk_s = max(sum(s["iwalk"][1] for s in outermost)
                  - iwalk_n * inner, 0.0)

    traces = {s["attrs"]["key"] for s in spans
              if s["name"] == "runner.trace_for"}
    backends = {}
    for s in spans:
        if s["name"] == "cycle.init":
            b = s["attrs"].get("backend")
            backends[b] = backends.get(b, 0) + 1
    cycle_ops = _attr_sum(spans, "cycle.run", "ops")
    cycle_run_incl = named.get("cycle.run", (0, 0.0, 0.0))[2]
    windows = [s for s in spans if s["name"] == "pool.run_jobs"]
    window_s = sum(s["end"] - s["start"] for s in windows)
    worker_window_s = sum((s["end"] - s["start"]) * s["attrs"]["workers"]
                          for s in windows)
    jobs = [r for r in journal_records if r.get("type") == "job"]
    busy_s = sum(r.get("seconds") or 0.0 for r in jobs)

    m = {
        "fem.solve_s": self_s("fem.solve"),
        "fem.solve_calls": count("fem.solve"),
        "fem.assembly_s": self_s("fem.assembly"),
        "fem.assembly_calls": count("fem.assembly"),
        "fem.linear_s": self_s("fem.linear"),
        "fem.linear_calls": count("fem.linear"),
        "fem.linear_iters": _attr_sum(spans, "fem.linear", "iters"),
        "fem.newton_iters": _attr_sum(spans, "fem.solve", "newton_iters"),
        "fem.gauss_points": _attr_sum(spans, "fem.assembly",
                                      "gauss_points"),
        "trace.emit_s": self_s("trace.emit"),
        "trace.ops": _attr_sum(spans, "trace.emit", "ops"),
        "trace.store_save_s": self_s("trace.store_save"),
        "trace.store_saves": count("trace.store_save"),
        "trace.store_load_s": self_s("trace.store_load"),
        "trace.store_loads": count("trace.store_load"),
        "trace.store_load_misses": _attr_sum(spans, "trace.store_load",
                                             "miss"),
        "runner.trace_for_s": self_s("runner.trace_for"),
        "runner.trace_for_calls": count("runner.trace_for"),
        "runner.synth_calls": count("runner.synth"),
        "runner.synth_per_trace": count("runner.synth") / max(len(traces), 1),
        "streams.get_s": self_s("streams.get"),
        "streams.calls": count("streams.get"),
        "streams.computed": streams_computed,
        "streams.compute_ratio": (streams_computed
                                  / max(count("streams.get"), 1)),
        "cycle.init_self_s": self_s("cycle.init"),
        "cycle.run_self_s": self_s("cycle.run"),
        "cycle.runs": count("cycle.run"),
        "cycle.runs.python": 0,
        "cycle.ops": cycle_ops,
        "cycle.sim_cycles": _attr_sum(spans, "cycle.run", "cycles"),
        "cycle.host_ns_per_op": cycle_run_incl / max(cycle_ops, 1) * 1e9,
        "uarch.dside_calls": dside_n,
        "uarch.dside_s": dside_s,
        "uarch.iwalk_calls": iwalk_n,
        "uarch.iwalk_s": iwalk_s,
        "store.get_s": self_s("store.get"),
        "store.gets": count("store.get"),
        "store.hit_ratio": (_attr_sum(spans, "store.get", "hit")
                            / max(count("store.get"), 1)),
        "store.put_s": self_s("store.put"),
        "store.puts": count("store.put"),
        "store.flush_s": self_s("store.flush"),
        "pool.run_jobs_s": window_s,
        "pool.prebuild_s": self_s("pool.prebuild"),
        "pool.busy_s": busy_s,
        "pool.utilization": busy_s / worker_window_s if worker_window_s
        else 0.0,
        "pool.retries": sum(1 for r in journal_records
                            if r.get("type") == "retry"),
        "pool.failures": sum(1 for r in journal_records
                             if r.get("type") == "failure"),
        "profiling.analyze_s": self_s("profiling.analyze"),
    }
    m.update((f"cycle.runs.{b}", n) for b, n in backends.items())

    by_model = {}
    for s in spans:
        if s["name"] in ("fem.solve", "fem.assembly", "fem.linear"):
            row = by_model.setdefault(s["model"] or "?", {})
            key = s["name"].split(".")[1] + "_s"
            row[key] = row.get(key, 0.0) + selfs[s["id"]]

    layers = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[s["id"]]
    layers["uarch"] = dside_s + iwalk_s
    return m, by_model, layers, selfs
