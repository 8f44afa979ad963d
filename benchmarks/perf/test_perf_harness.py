"""Tests of the benchmark harness itself, on its tiny inputs (``ar``,
``co`` at ``tiny`` scale, budget 4,000), so each run takes seconds."""

import importlib.util
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _load(name):
    path = os.path.join(HERE, f"{name}.py")
    module_spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.path.insert(0, HERE)
    try:
        module_spec.loader.exec_module(module)
    finally:
        sys.path.remove(HERE)
    return module


def bench(*args, env=None):
    proc = subprocess.run([sys.executable, RUN, "--tiny", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def test_names_match_benchmark_json():
    spec = _spec()
    workloads = _load("workloads")
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names + metrics)) == len(names + metrics)
    for name in names + metrics:
        assert NAME_RE.match(name), name
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in spec["end_to_end"]


def test_every_metric_printed_with_unit():
    spec = _spec()
    proc, result = bench("--workload", "sweep-cold", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert result["metrics"][name]["value"] > 0
        assert re.search(rf"^{re.escape(name)}\s.*\s{re.escape(unit)}\s",
                         proc.stdout, re.M), name


def test_two_seeds_give_identical_digests(tmp_path):
    digests = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        proc, result = bench("--workload", "figs-warm", "--repeat", "1",
                             "--seed", seed, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "results.json").read_text())
        digests.append(doc["workloads"]["figs-warm"]["digests"])
    plans = [json.loads((tmp_path / s / "results.json").read_text())
             ["workloads"]["figs-warm"]["plan"] for s in ("0", "7")]
    assert plans[0] != plans[1]  # the seed did permute the job list
    assert digests[0] == digests[1]


def test_corrupted_expected_digest_fails(tmp_path, monkeypatch, capfd):
    run = _load("run")
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    cells = expected["tiny"]["sweep-cold"]
    key = sorted(cells)[0]
    cells[key] = "0" * 64
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", str(bad))
    code = run.main(["--tiny", "--workload", "sweep-cold", "--repeat", "1"])
    assert code != 0
    result = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_trace_spans_and_stripped_knobs(tmp_path):
    env = dict(os.environ, REPRO_CYCLE_BACKEND="numpy", REPRO_WORKERS="2",
               REPRO_TRACE_STORE="0")
    proc, result = bench("--workload", "sweep-cold", "--repeat", "1",
                         "--trace", "--out", str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    # The inherited knobs did not reach the run: the default backend ran
    # every cell and the trace store stayed on.
    assert layers["cycle.runs.python"] == layers["cycle.runs"] > 0
    assert layers["trace.store_saves"] > 0

    spans = [json.loads(line)
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    for s in spans:
        if s["name"] in ("setup", "timed"):
            assert s["parent"] is None
        else:
            assert s["parent"] in ids, s
    doc = json.loads((tmp_path / "results.json").read_text())
    per_cell = doc["workloads"]["sweep-cold"]["cell_self_vs_wall_s"]
    assert per_cell
    for self_s, wall_s in per_cell.values():
        assert 0 < self_s <= wall_s


def test_child_env_strips_inherited_knobs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CYCLE_BACKEND", "native")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    run = _load("run")
    env = run.child_env(str(tmp_path), traced=False)
    assert "REPRO_CYCLE_BACKEND" not in env
    assert "REPRO_WORKERS" not in env
    assert env["REPRO_CACHE_DIR"].startswith(str(tmp_path))


def test_refuses_to_run_without_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no src/.
    bench_dir = tmp_path / "benchmarks" / "perf"
    bench_dir.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name),
                                                "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run([sys.executable, "benchmarks/perf/run.py",
                           "--workload", "sweep-cold", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
