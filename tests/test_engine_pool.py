"""Engine execution: serial/parallel parity, ordering, cache accounting."""

import pytest

from repro.core.runner import Runner
from repro.core.sweeps import frequency_sweep, l2_sweep
from repro.engine import (
    JobSpec,
    Progress,
    ResultStore,
    expand_grid,
    resolve_workers,
    run_jobs,
)
from repro.uarch.config import gem5_baseline

_WORKLOADS = ("ar", "co")
_FAST = dict(scale="tiny", budget=4000)


def _flatten(result):
    return {
        (w, label): m.as_dict()
        for w, by_label in result.items()
        for label, m in by_label.items()
    }


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(4) == 4
    monkeypatch.setenv("REPRO_WORKERS", "garbage")
    assert resolve_workers(None) == 1


def test_run_jobs_orders_results_like_input(tmp_path):
    cfgs = [(f, gem5_baseline(freq_ghz=f)) for f in (3.0, 1.0, 2.0)]
    jobs = expand_grid(_WORKLOADS, cfgs, **_FAST)
    stats = run_jobs(jobs, workers=2, runner=Runner(cache_dir=tmp_path))
    assert len(stats) == len(jobs)
    for job, st in zip(jobs, stats):
        # Each result slot corresponds to its job's frequency.
        assert st.freq_ghz == pytest.approx(job.config.freq_ghz)


def test_parallel_sweeps_match_serial(tmp_path):
    serial_runner = Runner(cache_dir=tmp_path / "serial")
    par_runner = Runner(cache_dir=tmp_path / "par")

    for sweep, kwargs in (
        (frequency_sweep, dict(freqs=(2.0, 3.0))),
        (l2_sweep, dict(sizes_kb=(512, 1024))),
    ):
        serial = sweep(workloads=_WORKLOADS, runner=serial_runner,
                       workers=1, **kwargs, **_FAST)
        parallel = sweep(workloads=_WORKLOADS, runner=par_runner,
                         workers=2, **kwargs, **_FAST)
        assert _flatten(serial) == _flatten(parallel)


def test_cold_then_warm_hit_accounting(tmp_path):
    runner = Runner(cache_dir=tmp_path)
    kwargs = dict(workloads=_WORKLOADS, freqs=(2.0, 3.0), runner=runner,
                  workers=2, **_FAST)
    n_jobs = len(_WORKLOADS) * 2

    cold = frequency_sweep(**kwargs)
    s = ResultStore(tmp_path).stats()
    assert s["misses"] == n_jobs and s["hits"] == 0
    assert s["entries"] == n_jobs

    warm = frequency_sweep(**kwargs)
    s = ResultStore(tmp_path).stats()
    assert s["misses"] == n_jobs and s["hits"] == n_jobs
    assert _flatten(cold) == _flatten(warm)


def test_progress_counts_hits_and_runs(tmp_path):
    runner = Runner(cache_dir=tmp_path)
    kwargs = dict(workloads=("ar",), freqs=(2.0, 3.0), runner=runner,
                  workers=2, **_FAST)
    cold = Progress(0, enabled=False)
    frequency_sweep(progress=cold, **kwargs)
    assert cold.total == 2 and cold.done == 2
    assert cold.runs == 2 and cold.hits == 0

    warm = Progress(0, enabled=False)
    frequency_sweep(progress=warm, **kwargs)
    assert warm.done == 2 and warm.hits == 2 and warm.runs == 0


def test_serial_path_skips_store_when_disk_cache_off(tmp_path):
    runner = Runner(cache_dir=tmp_path, use_disk_cache=False)
    out = frequency_sweep(workloads=("ar",), freqs=(3.0,), runner=runner,
                          workers=1, **_FAST)
    assert out["ar"][3.0].ipc > 0
    assert not (tmp_path / "manifest.json").exists()


def test_run_jobs_honors_explicit_store_on_serial_path(tmp_path):
    # A single job takes the serial branch even with workers>1; the
    # result must land in the caller's store, not default_runner's.
    store = ResultStore(tmp_path / "mine")
    jobs = [JobSpec("ar", gem5_baseline(), label=3.0, **_FAST)]
    stats = run_jobs(jobs, workers=4,
                     runner=Runner(cache_dir=store.root, store=store))
    assert stats[0].cycles > 0
    assert store.stats()["entries"] == 1


def test_clear_disk_cache_resets_pending_store_state(tmp_path):
    runner = Runner(cache_dir=tmp_path)
    cfg = gem5_baseline()
    runner.stats_for("ar", cfg, **_FAST)   # miss + put
    runner.stats_for("ar", cfg, **_FAST)   # hit (pending, unflushed)
    runner.clear_disk_cache()
    runner.store.flush()
    s = runner.store.stats()
    # No resurrected counters or phantom adopted entries post-clear.
    assert s["entries"] == 0 and s["hits"] == 0 and s["misses"] == 0


def test_runner_shares_store_between_serial_and_engine(tmp_path):
    # A result computed by the plain Runner is a cache hit for the pool.
    runner = Runner(cache_dir=tmp_path)
    cfg = gem5_baseline(freq_ghz=2.0)
    runner.stats_for("ar", cfg, **_FAST)

    jobs = [JobSpec("ar", cfg, label=2.0, **_FAST)]
    stats = run_jobs(jobs, workers=2, runner=runner)
    s = ResultStore(tmp_path).stats()
    assert s["hits"] >= 1
    assert stats[0].freq_ghz == pytest.approx(2.0)


def test_capped_store_has_no_dangling_entries_after_parallel_run(tmp_path):
    # Workers on a size-capped store index (and evict) synchronously;
    # the parent must not resurrect evicted keys when it folds the
    # batch — every manifest entry must still have its payload file.
    import json
    import os

    store = ResultStore(tmp_path, max_bytes=2000)  # a few entries' worth
    cfgs = [(f, gem5_baseline(freq_ghz=f)) for f in (1.0, 2.0, 3.0)]
    jobs = expand_grid(_WORKLOADS, cfgs, **_FAST)
    stats = run_jobs(jobs, workers=2,
                     runner=Runner(cache_dir=store.root, store=store))
    assert len(stats) == len(jobs)
    store.flush()
    with open(store.manifest_path) as fh:
        manifest = json.load(fh)
    for key, entry in manifest["entries"].items():
        path = tmp_path / entry.get("file", key + ".json")
        assert os.path.exists(path), f"dangling manifest entry {key}"


def test_serial_run_raises_unknown_predictor(tmp_path, monkeypatch):
    # A config the cycle tier cannot build is a caller error: at
    # workers=1 it raises through on the first attempt instead of
    # being retried or quarantined.
    import repro.core.runner as runner_mod

    calls = []
    real_simulate = runner_mod.simulate

    def spy(*args, **kwargs):
        calls.append(args)
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate", spy)
    jobs = [JobSpec("ar", gem5_baseline(branch_predictor="oracle"),
                    label="oracle", **_FAST)]
    with pytest.raises(KeyError, match="unknown branch predictor"):
        run_jobs(jobs, workers=1, runner=Runner(cache_dir=tmp_path))
    assert len(calls) == 1
