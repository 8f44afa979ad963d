"""The repository's benchmark: paper workloads, bit-exact output checks,
end-to-end metrics, and a traced run for per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py [--repeat 3] [--seed 0] [--trace] [--out DIR]
    python3 benchmarks/perf/run.py --workload sweep-cold --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs ``--repeat`` times,
interleaved round-robin.  With ``--seconds S`` each selected workload
repeats its runs for about S seconds (at least one run).  Every run is
its own subprocess (``child.py``) with no inherited ``REPRO_*`` knob,
an empty result store and an empty trace store (the warm workloads'
holds their traces, built once per checkout and source tree).  All
files go under ``benchmarks/perf/_work`` (scratch) and ``--out``;
nothing touches ``benchmarks/_results``.

Every cell's output is compared with ``expected.json``.  The command
prints each metric by name with its unit, then one JSON line, and exits
non-zero on any mismatch or failure.  ``--write-expected`` regenerates
the digests of the selected inputs from this tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, "_work")
EXPECTED = os.path.join(HERE, "expected.json")

CHILD_TIMEOUT_S = 170
# Extra set-up-only runs are taken (up to three set-up samples in all)
# only while one set-up costs at most this much.
CHEAP_SETUP_S = 2.0

# End-to-end metrics measured per run (setup_s is sampled separately);
# each reports the median over the invocation's runs.
PER_RUN = {
    "wall_s": lambda r: r["wall_s"],
    "cells_per_s": lambda r: r["cells"] / r["wall_s"],
    "sim_kops_per_s": lambda r: r["sim_ops"] / r["wall_s"] / 1e3,
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}


class BenchError(RuntimeError):
    """A run could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(run_dir, traced):
    """The environment of one run: shipped defaults, private stores."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "results")
    env["REPRO_TRACE_CACHE_DIR"] = os.path.join(run_dir, "traces")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if traced:
        env["REPRO_TELEMETRY_DIR"] = os.path.join(run_dir, "journal")
    return env


def _run_process(what, cmd, env):
    """Run *cmd* in its own session; kill the whole group on any exit
    path so no pool worker outlives the run."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} ran past {CHILD_TIMEOUT_S} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()


def _source_tag():
    """Content hash of the program and of the priming code."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "child.py")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, f) for f in sorted(filenames)
                  if f.endswith((".py", ".c"))]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def primed_traces(plan):
    """Directory of the warm plan's trace archives, as this source tree
    builds them; built once per checkout and source tree (untimed, like
    a machine that has built these traces before)."""
    tag = _source_tag()
    path = os.path.join(WORK, f"primed-{tag}-{plan['scale']}-"
                              f"{plan['budget']}")
    if not os.path.isdir(path):
        for name in os.listdir(WORK):
            if name.startswith("primed-") and tag not in name:
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
        run_child(plan, build_into=path)
    return path


def run_child(plan, traced=False, setup_only=False, build_into=None):
    """One run of *plan* in a fresh process; returns its result dict.

    A warm plan (non-empty ``prime``) starts from a trace store that
    holds its traces.  Untimed runs copy them from
    :func:`primed_traces`; the traced run synthesizes them in its own
    set-up, so the FEM and trace layers are measured on every workload.
    With *build_into* the run only primes its store and then moves it
    there.
    """
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        plan_path = os.path.join(run_dir, "plan.json")
        result_path = os.path.join(run_dir, "result.json")
        child_plan = dict(plan, trace=traced,
                          setup_only=setup_only or build_into is not None)
        if plan["prime"] and not traced and build_into is None:
            traces = os.path.join(run_dir, "traces")
            shutil.copytree(primed_traces(plan), traces)
            child_plan["prime"] = []
        with open(plan_path, "w") as fh:
            json.dump(child_plan, fh)
        env = child_env(run_dir, traced)
        t0 = time.monotonic()
        code = _run_process(
            f"run of {plan['workload']}",
            [sys.executable, os.path.join(HERE, "child.py"), plan_path,
             result_path, repr(t0)], env)
        duration = time.monotonic() - t0
        if code != 0:
            raise BenchError(f"run of {plan['workload']} exited with {code}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["duration_s"] = duration
        if build_into is not None:
            try:
                os.rename(os.path.join(run_dir, "traces"), build_into)
            except OSError:
                if not os.path.isdir(build_into):  # not a concurrent build
                    raise
        if traced:
            with open(os.path.join(run_dir, "spans.jsonl")) as fh:
                result["spans"] = [json.loads(line) for line in fh]
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check(result, expected, failures):
    """Cells whose digest differs from *expected*, plus expected cells
    missing for a reason other than a reported failure."""
    got = result["digests"]
    wrong = [k for k, v in got.items() if expected.get(k) != v]
    missing = [k for k in expected if k not in got]
    return len(wrong) + max(len(missing) - failures, 0)


def _stat(values, unit):
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


class WorkloadRuns:
    """Everything measured for one workload in this invocation."""

    def __init__(self, name, plan, expected):
        self.name = name
        self.plan = plan
        self.expected = expected
        self.runs = []
        self.setups = []
        self.traced = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def add(self, result, timed=True):
        cells = wl.cell_count(self.plan)
        self.attempted += cells
        self.failed += result["failures"]
        self.mismatches += check(result, self.expected, result["failures"])
        if timed:
            self.runs.append(result)
            self.setups.append(result["setup_s"])

    def end_to_end(self, spec):
        """The declared metrics, then failures and mismatches."""
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        out = {"setup_s": _stat(self.setups, units["setup_s"])}
        for name, fn in PER_RUN.items():
            out[name] = _stat([fn(r) for r in self.runs], units[name])
        out["failed_ratio"] = _stat([self.failed / self.attempted], "ratio")
        out["stats_mismatches"] = _stat([self.mismatches], "count")
        return out

    def per_layer(self, spec, declared_only=True):
        """Per-layer metrics of the traced run, with units; undeclared
        extras (seconds) are included unless *declared_only*."""
        layers = dict(self.traced["layers"])
        untraced = statistics.median(r["wall_s"] for r in self.runs)
        layers["trace_overhead_pct"] = (
            (self.traced["wall_s"] - untraced) / untraced * 100.0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if not declared_only:
            units.update((k, "s") for k in layers if k not in units)
        return {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def measure_for(wr, seconds):
    """Timed runs of one workload for about *seconds*: another run
    starts only if the last one's duration still fits (at least one)."""
    t0 = time.monotonic()
    while True:
        result = run_child(wr.plan)
        wr.add(result)
        if time.monotonic() - t0 + result["duration_s"] > seconds:
            return


def top_up_setups(wr):
    """Set-up-only runs until there are three set-up samples, while one
    set-up is cheap enough to repeat."""
    while (len(wr.setups) < 3
           and statistics.median(wr.setups) <= CHEAP_SETUP_S):
        wr.setups.append(run_child(wr.plan, setup_only=True)["setup_s"])


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_tables(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, wr in results.items():
        print(f"\n== {name}  ({wl.cell_count(wr.plan)} cells, "
              f"{wr.plan['scale']}/{wr.plan['budget']}, "
              f"workers={wr.plan['workers']})")
        print(f"{'metric':<20}{'median':>14}{'min':>14}"
              f"{'max':>14}{'n':>4}  unit      bound")
        for metric, s in wr.end_to_end(spec).items():
            bound = bounds.get(metric)
            print(f"{metric:<20}{_fmt(s['value']):>14}"
                  f"{_fmt(s['min']):>14}{_fmt(s['max']):>14}{s['n']:>4}  "
                  f"{s['unit']:<9} {'' if bound is None else bound}")
        if wr.traced is not None:
            print("-- per layer (one traced run)")
            for metric, v in wr.per_layer(spec, declared_only=False).items():
                print(f"{metric:<28}{_fmt(v['value']):>16}  {v['unit']}")
            for model, row in sorted(wr.traced["fem_by_model"].items()):
                cols = "  ".join(f"{k}={v:.3f}" for k, v in sorted(row.items()))
                print(f"fem[{model}]  {cols}")
            total = sum(wr.traced["layer_self_s"].values()) or 1.0
            for layer, s in sorted(wr.traced["layer_self_s"].items(),
                                   key=lambda kv: -kv[1]):
                print(f"self[{layer}]  {s:.3f} s  ({100 * s / total:.1f}%)")


def _git_head():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def write_out(out_dir, results, spec, args):
    os.makedirs(out_dir, exist_ok=True)
    doc = {"meta": {"git_head": _git_head(), "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(), "seed": args.seed,
                    "repeat": args.repeat, "seconds": args.seconds,
                    "inputs": "tiny" if args.tiny else "default",
                    "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())},
           "workloads": {}}
    with open(os.path.join(out_dir, "spans.jsonl"), "w") as spans:
        for name, wr in results.items():
            entry = {"plan": wr.plan, "end_to_end": wr.end_to_end(spec),
                     "attempted": wr.attempted, "failed": wr.failed,
                     "mismatches": wr.mismatches,
                     "digests": wr.runs[0]["digests"],
                     "runs": [{k: v for k, v in r.items() if k != "digests"}
                              for r in wr.runs]}
            if wr.traced is not None:
                entry["per_layer"] = wr.per_layer(spec)
                entry["fem_by_model"] = wr.traced["fem_by_model"]
                entry["layer_self_s"] = wr.traced["layer_self_s"]
                entry["cell_self_vs_wall_s"] = wr.traced[
                    "cell_self_vs_wall_s"]
                for s in wr.traced["spans"]:
                    spans.write(json.dumps(dict(s, workload=name),
                                           sort_keys=True) + "\n")
            doc["workloads"][name] = entry
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def final_line(results, spec, traced):
    """The one-line JSON result: end-to-end metrics, or per-layer ones
    for a traced invocation; names are prefixed with the workload when
    more than one ran."""
    metrics = {}
    for name, wr in results.items():
        if traced:
            values = wr.per_layer(spec)
        else:
            e2e = wr.end_to_end(spec)
            values = {m["name"]: {"value": e2e[m["name"]]["value"],
                                  "unit": m["unit"]}
                      for m in spec["end_to_end"]}
        prefix = f"{name}/" if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    return {"correct": all(wr.mismatches == 0 and wr.failed == 0
                           for wr in results.values()),
            "attempted": sum(wr.attempted for wr in results.values()),
            "failed": sum(wr.failed for wr in results.values()),
            "metrics": metrics}


def write_expected(path, results_by_name, inputs):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    for name, digests in results_by_name.items():
        doc.setdefault(inputs, {})[name] = dict(sorted(digests.items()))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the order of workloads, sweeps, grid "
                         "values and (warm workloads) FE models")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed runs per workload (without --seconds)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="repeat each workload's runs for this long")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="add one traced run per workload and report "
                         "per-layer metrics")
    ap.add_argument("--out", default=None,
                    help="write results.json and spans.jsonl here")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (ar, co at tiny/4,000), for tests")
    ap.add_argument("--write-expected", action="store_true",
                    help="record this tree's digests in expected.json "
                         "instead of checking")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    inputs = "tiny" if args.tiny else "default"
    if args.workload:
        selected = [args.workload]
    else:
        selected = [n for n in names
                    if (os.cpu_count() or 1) >= wl.WORKLOADS[n][2]]
        for n in sorted(set(names) - set(selected)):
            print(f"skipping {n}: needs {wl.WORKLOADS[n][2]} cores, host "
                  f"has {os.cpu_count()}", file=sys.stderr)
    if args.write_expected:
        expected = {}
    else:
        with open(EXPECTED) as fh:
            expected = json.load(fh).get(inputs, {})

    os.makedirs(WORK, exist_ok=True)
    try:
        results = {n: WorkloadRuns(n, wl.plan(n, args.seed, args.tiny),
                                   expected.get(n, {}))
                   for n in selected}
        if args.write_expected:
            write_expected(EXPECTED,
                           {n: run_child(wr.plan)["digests"]
                            for n, wr in results.items()}, inputs)
            print(f"wrote {inputs} digests of {', '.join(selected)} to "
                  f"{EXPECTED}")
            return 0
        if args.seconds is not None:
            for wr in results.values():
                measure_for(wr, args.seconds)
        else:
            rng = random.Random(args.seed)
            for _ in range(args.repeat):
                order = list(results)
                if args.seed:
                    rng.shuffle(order)
                for n in order:
                    results[n].add(run_child(results[n].plan))
        for wr in results.values():
            top_up_setups(wr)
        if args.trace:
            for wr in results.values():
                wr.traced = run_child(wr.plan, traced=True)
                wr.add(wr.traced, timed=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_tables(results, spec)
    if args.out:
        write_out(args.out, results, spec, args)
    line = final_line(results, spec, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # Unwind on SIGTERM too, so _run_process kills the running child's
    # process group instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda sig, _: sys.exit(128 + sig))
    sys.exit(main())
