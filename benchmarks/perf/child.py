"""One benchmark run, in a fresh process: set-up, timed phase, checks.

Started by ``run.py`` as ``python child.py PLAN.json RESULT.json T0``
where ``T0`` is the parent's ``time.monotonic()`` just before the
spawn (the monotonic clock is system-wide on Linux), so ``setup_s``
runs from process start to the start of the timed phase.  The parent
also sets the environment: no inherited ``REPRO_*`` knob, and result
and trace stores under the run's own directory (the trace store empty,
or holding a warm plan's traces).

Set-up imports the program and, when the plan lists traces to
``prime``, builds them into the trace store through a throwaway
``Runner``.  The timed phase runs the plan's job list through the
program's public entry points (``Study.run`` for sweeps,
``run_characterizations`` for the VTune suite) against a fresh
``Runner`` on the empty result store.  Digests of every cell's output
are taken after the timer stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import layers
from repro.core.characterize import characterize_jobs, run_characterizations
from repro.core.runner import Runner
from repro.core.sweeps import study_for
from repro.engine.jobs import JobSpec
from repro.telemetry import journal_dir, read_journal
from repro.trace.store import TraceStore
from repro.uarch.config import host_i9


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_sweeps(p, runner):
    """Every sweep of the plan; returns ``(cells, failures, summaries)``
    where ``cells`` is a list of ``(job key, SimStats)``."""
    cells, failures = [], 0
    for sweep in p["sweeps"]:
        study = study_for(sweep["name"], workloads=sweep["workloads"],
                          values=sweep["values"], scale=p["scale"],
                          budget=p["budget"])
        result = study.run(policy="cycle", workers=p["workers"],
                           runner=runner)
        configs = dict(study.points())
        for cell in result.cells:
            job = JobSpec(cell.workload, configs[cell.label],
                          scale=p["scale"], budget=p["budget"])
            cells.append((job.key(), cell.stats))
        failures += len(result.failures)
    return cells, failures, {}


def _run_characterize(p, runner):
    """The plan's VTune suite, returned like :func:`_run_sweeps` plus
    each cell's ``Characterization.summary()`` row."""
    jobs = characterize_jobs(p["characterize"], config=host_i9(),
                             scale=p["scale"], budget=p["budget"])
    chars = run_characterizations(jobs, runner=runner,
                                  workers=p["workers"])
    keys = {job.workload: job.key() for job in jobs}
    cells = [(keys[c.workload], c.stats) for c in chars]
    summaries = {keys[c.workload]: c.summary() for c in chars}
    return cells, len(jobs) - len(chars), summaries


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; pool workers (figs-warm-w2) are
    # waited-for children, so RUSAGE_CHILDREN covers the largest one.
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def main(plan_path, result_path, t_spawn):
    with open(plan_path) as fh:
        p = json.load(fh)
    run_dir = os.path.dirname(os.path.abspath(result_path))

    rec = None
    if p.get("trace"):
        wrapper_cost = layers.calibrate()
        rec = layers.Recorder(run_dir)
        layers.install(rec)
        setup_span = rec.open("setup")

    if p["prime"]:
        primer = Runner(use_disk_cache=False)
        for w in p["prime"]:
            primer.trace_for(w, p["scale"], p["budget"])
        del primer
    runner = Runner(cache_dir=os.path.join(run_dir, "results"))

    t0 = time.monotonic()
    out = {"setup_s": t0 - t_spawn}
    if p.get("setup_only"):
        _write(result_path, out)
        return 0
    if rec is not None:
        rec.close(setup_span)
        timed_span = rec.open("timed")

    t1 = time.perf_counter()
    run = _run_characterize if p["kind"] == "characterize" else _run_sweeps
    cells, failures, summaries = run(p, runner)
    wall = time.perf_counter() - t1
    if rec is not None:
        rec.close(timed_span)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["wall_s"] = wall
    out["cells"] = len(cells)
    out["failures"] = failures
    digests = {}
    ops = 0
    for key, stats in cells:
        digest = _digest(stats.as_dict())
        if key not in digests:
            # Later cells with this key were store hits; only the first
            # was simulated.
            digests[key] = digest
            ops += stats.instructions
        elif digests[key] != digest:
            digests[key] = "inconsistent"  # a hit differs from its run
    for key, row in summaries.items():
        digests[key + "/summary"] = _digest(row)
    out["digests"] = digests
    out["sim_ops"] = ops

    if rec is not None:
        out.update(_layer_report(rec, run_dir, timed_span, wrapper_cost))
    _write(result_path, out)
    return 0


def _layer_report(rec, run_dir, timed_span, wrapper_cost):
    """Per-layer metrics and breakdowns of a traced run; writes the
    run's spans to ``spans.jsonl``."""
    inner, outer = wrapper_cost
    spans = _gather_spans(rec, run_dir)
    streams = TraceStore(create=False).stats()["stream_entries"]
    metrics, by_model, per_layer, selfs = layers.layer_metrics(
        spans, inner, outer, _journal_records(), streams)
    metrics["span_coverage_pct"] = 100.0 * (
        1.0 - selfs[timed_span["id"]]
        / (timed_span["end"] - timed_span["start"]))
    per_cell = {}
    for s in spans:
        if s["cell"]:
            row = per_cell.setdefault(s["cell"], [0.0, 0.0])
            row[0] += selfs[s["id"]]
            if s["name"] == "runner.job":
                row[1] += s["end"] - s["start"]
    with open(os.path.join(run_dir, "spans.jsonl"), "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
    return {"layers": metrics, "fem_by_model": by_model,
            "layer_self_s": per_layer,
            "wrapper_cost_s": {"inner": inner, "outer": outer},
            "cell_self_vs_wall_s": per_cell}


def _gather_spans(rec, run_dir):
    """This process's spans plus those forked pool workers wrote."""
    spans = list(rec.spans)
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _journal_records():
    """Records of every run journal the program wrote (traced runs set
    ``REPRO_TELEMETRY_DIR``; pool busy time and retries come from it)."""
    directory = journal_dir()
    records = []
    if directory and os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".jsonl"):
                records.extend(read_journal(os.path.join(directory, name)))
    return records


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
