"""Fault injection, supervised-pool crash safety, and remote re-probe.

The CI ``chaos`` job runs this file under several ``REPRO_CHAOS_SEED``
values; every test must hold for *any* seed (the seed only reshuffles
which tokens fire, never the invariants asserted here).
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro import env as env_mod
from repro import faults, telemetry
from repro.core.runner import Runner
from repro.core.sweeps import GEM5_WORKLOADS, l2_sweep
from repro.engine import (JobFailure, JobSpec, ResultStore, expand_grid,
                          run_jobs)
from repro.store import remote as remote_mod
from repro.store.remote import RemoteStore
from repro.store.server import ArtifactServer
from repro.trace.store import TraceStore
from repro.uarch.config import gem5_baseline

_WORKLOADS = ("ar", "co")
_FAST = dict(scale="tiny", budget=4000)

#: The chaos matrix seed (CI varies it); defaults to the paper run's 7.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """Each test gets a clean harness, remote registry, warning slate."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.harness._reset()
    remote_mod._reset_registry()
    env_mod._reset_warnings()
    yield
    faults.harness._reset()
    remote_mod._reset_registry()
    env_mod._reset_warnings()


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture()
def server(tmp_path):
    srv = ArtifactServer(root=str(tmp_path / "shared"), host="127.0.0.1",
                         port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class TestHarness:
    def test_parse_spec_full(self):
        spec = faults.parse_spec("worker.exec:kill:0.1:7")
        assert (spec.site, spec.mode, spec.rate, spec.seed) == \
            ("worker.exec", "kill", 0.1, 7)
        assert spec.match is None
        spec = faults.parse_spec("remote.get:error:1:0:k1:0")
        assert spec.match == "k1:0"

    def test_parse_spec_rejects_garbage(self):
        for bad in ("worker.exec:kill", "nosite:kill:0.5",
                    "worker.exec:nomode:0.5", "worker.exec:kill:2",
                    "worker.exec:kill:0.5:notanint"):
            with pytest.raises(ValueError):
                faults.parse_spec(bad)

    def test_parse_faults_skips_bad_pieces(self, capsys):
        specs = faults.parse_faults(
            "worker.exec:kill:0.1:7, bogus, store.put:enospc:1")
        assert set(specs) == {"worker.exec", "store.put"}
        assert "ignoring invalid" in capsys.readouterr().err

    def test_firing_is_deterministic_and_rate_shaped(self):
        spec = faults.parse_spec(f"worker.exec:kill:0.1:{CHAOS_SEED}")
        draws = [spec.fires(f"job{i}:0") for i in range(2000)]
        again = [spec.fires(f"job{i}:0") for i in range(2000)]
        assert draws == again
        assert 100 < sum(draws) < 320  # ~0.1 of 2000
        # A different seed reshuffles the decisions.
        other = faults.parse_spec(f"worker.exec:kill:0.1:{CHAOS_SEED + 1}")
        assert [other.fires(f"job{i}:0") for i in range(2000)] != draws

    def test_rate_extremes_and_match(self):
        never = faults.parse_spec("worker.exec:raise:0")
        always = faults.parse_spec("worker.exec:raise:1")
        assert not any(never.fires(f"t{i}") for i in range(50))
        assert all(always.fires(f"t{i}") for i in range(50))
        only = faults.parse_spec("worker.exec:raise:1:0:ar@")
        assert only.fires("ar@512:0") and not only.fires("co@512:0")

    def test_active_tracks_env_changes(self, monkeypatch):
        assert faults.active() == {}
        monkeypatch.setenv(faults.FAULTS_ENV, "store.put:enospc:1")
        assert set(faults.active()) == {"store.put"}
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert faults.active() == {}

    def test_attempts_draw_independently(self):
        # The retry token must not replay the kill decision verbatim:
        # some token that fires at attempt 0 must survive attempt 1.
        spec = faults.parse_spec(f"worker.exec:kill:0.1:{CHAOS_SEED}")
        fired = [f"job{i}" for i in range(2000)
                 if spec.fires(f"job{i}:0")]
        assert fired  # rate test above guarantees this
        assert not all(spec.fires(f"{t}:1") for t in fired)

    def test_recovered_noops_when_unarmed(self):
        faults.recovered("worker.exec")
        assert faults.recovered_counts() == {}


# ----------------------------------------------------------------------
# Supervised pool
# ----------------------------------------------------------------------
@needs_fork
class TestSupervisedPool:
    def _jobs(self, tmp_path):
        cfgs = [(f, gem5_baseline(freq_ghz=f)) for f in (2.0, 3.0)]
        return (expand_grid(_WORKLOADS, cfgs, **_FAST),
                Runner(cache_dir=tmp_path / "cache"))

    def test_worker_exit_mid_batch_retries_on_fresh_pool(self, tmp_path,
                                                         monkeypatch):
        # Every job's *first* attempt dies via os._exit(1) in the
        # worker; every retry (fresh token) runs clean — the sweep must
        # still deliver all results, in order.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.exec:kill:1:0::0")
        jobs, runner = self._jobs(tmp_path)
        stats = run_jobs(jobs, workers=2, runner=runner)
        assert len(stats) == len(jobs)
        for job, st in zip(jobs, stats):
            assert not isinstance(st, JobFailure)
            assert st.freq_ghz == pytest.approx(job.config.freq_ghz)

    def test_sigkilled_worker_mid_batch_completes(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "worker.exec:sigkill:1:0::0")
        jobs, runner = self._jobs(tmp_path)
        stats = run_jobs(jobs, workers=2, runner=runner)
        assert all(not isinstance(st, JobFailure) for st in stats)
        assert len(stats) == len(jobs)

    def test_poison_job_quarantined_store_stays_consistent(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        jobs, runner = self._jobs(tmp_path)
        poison = jobs[1]
        # Match on the job key alone (no attempt suffix): every attempt
        # of this one job raises; every other job is untouched.
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:raise:1:0:{poison.key()}")
        stats = run_jobs(jobs, workers=2, runner=runner)
        assert len(stats) == len(jobs)
        failure = stats[1]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 3  # default REPRO_JOB_RETRIES=2
        assert failure.as_dict()["workload"] == poison.workload
        assert "quarantined" in capsys.readouterr().err
        # The other three landed as stats and as store entries; the
        # poisoned key is absent — no torn manifest rows.
        assert all(not isinstance(st, JobFailure)
                   for i, st in enumerate(stats) if i != 1)
        store = ResultStore(tmp_path / "cache")
        assert store.get(poison.key()) is None
        for i, job in enumerate(jobs):
            if i != 1:
                assert store.get(job.key()) is not None

    def test_retries_zero_quarantines_first_failure(self, tmp_path,
                                                    monkeypatch):
        jobs, runner = self._jobs(tmp_path)
        monkeypatch.setenv("REPRO_JOB_RETRIES", "0")
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:raise:1:0:{jobs[0].key()}")
        stats = run_jobs(jobs, workers=2, runner=runner)
        assert isinstance(stats[0], JobFailure)
        assert stats[0].attempts == 1

    def test_hung_job_reaped_by_timeout(self, tmp_path, monkeypatch):
        # One job's first attempt hangs; REPRO_JOB_TIMEOUT reaps it and
        # the retry completes.  Innocent in-flight jobs are requeued
        # without losing an attempt.
        jobs, runner = self._jobs(tmp_path)
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1")
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:hang:1:0:{jobs[0].key()}:0")
        t0 = time.monotonic()
        stats = run_jobs(jobs, workers=2, runner=runner)
        assert time.monotonic() - t0 < 60
        assert all(not isinstance(st, JobFailure) for st in stats)

    def test_serial_chaos_never_kills_the_parent(self, tmp_path,
                                                 monkeypatch):
        # workers=1 executes in the parent: death modes must be
        # demoted to raise (then retried), not exit the test process.
        jobs, runner = self._jobs(tmp_path)
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:kill:1:0:{jobs[0].key()}:0")
        stats = run_jobs(jobs, workers=1, runner=runner)
        assert all(not isinstance(st, JobFailure) for st in stats)
        assert faults.injected_counts()[("worker.exec", "kill")] == 1
        assert faults.recovered_counts()["worker.exec"] == 1

    def test_no_process_fallback_runs_in_process(self, tmp_path,
                                                 monkeypatch):
        # A platform that refuses to start processes: the batch
        # finishes in-process through the caller's store, identical to
        # workers=1, each key indexed and pushed exactly once.
        refused = []

        class _NoStart(multiprocessing.Process):
            def start(self):
                refused.append(self)
                raise OSError("no processes here")

        class _Ctx:
            Pipe = staticmethod(multiprocessing.Pipe)
            Process = _NoStart

        class _FakeRemote:
            def __init__(self):
                self.pushed = []

            def get_bytes(self, key):
                return None

            def put_bytes(self, key, data, wait=False):
                self.pushed.append(key)
                return True

            def drain(self, timeout=None):
                return True

        jobs, _ = self._jobs(tmp_path)
        serial = run_jobs(jobs, workers=1,
                          runner=Runner(cache_dir=tmp_path / "serial"))
        monkeypatch.setattr("repro.engine.pool._mp_context", _Ctx)
        remote = _FakeRemote()
        store = ResultStore(tmp_path / "fallback", remote=remote)
        stats = run_jobs(jobs, workers=2,
                         runner=Runner(cache_dir=store.root, store=store))
        assert [st.as_dict() for st in stats] == \
            [st.as_dict() for st in serial]
        assert len(refused) == 1  # the first start fell back for all
        assert len(store.keys()) == len(jobs) == 4
        assert sorted(remote.pushed) == sorted(j.key() for j in jobs)

    def test_chaos_l2_sweep_completes_full_grid(self, tmp_path,
                                                monkeypatch):
        # The acceptance proof: a 10% worker-kill rate across the full
        # gem5 L2 sweep still yields all 24 cells, zero quarantines.
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:kill:0.1:{CHAOS_SEED}")
        result = l2_sweep(workloads=GEM5_WORKLOADS, workers=4,
                          runner=Runner(cache_dir=tmp_path / "cache"),
                          full_result=True, **_FAST)
        assert len(result.cells) == len(GEM5_WORKLOADS) * 4
        assert result.failures == []

    def test_quarantine_surfaces_in_study_and_report(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.__main__ import main
        from repro.core.sweeps import study_for

        jdir = tmp_path / "journals"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(jdir))
        plan = study_for("l2", workloads=_WORKLOADS, values=(512, 1024),
                         **_FAST)
        poison_key = plan.jobs(model="cycle")[0].key()
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"worker.exec:raise:1:0:{poison_key}")
        result = l2_sweep(workloads=_WORKLOADS, sizes_kb=(512, 1024),
                          workers=2,
                          runner=Runner(cache_dir=tmp_path / "cache"),
                          full_result=True, **_FAST)
        assert len(result.failures) == 1
        assert len(result.cells) == len(_WORKLOADS) * 2 - 1
        capsys.readouterr()
        assert main(["report", telemetry.latest_journal(str(jdir))]) == 0
        out = capsys.readouterr().out
        assert "quarantined failures (1)" in out
        assert "failures=1" in out


# ----------------------------------------------------------------------
# Remote store: backoff, re-probe, injected faults
# ----------------------------------------------------------------------
class TestRemoteResilience:
    def test_restarted_server_rediscovered_within_cooldown(self, tmp_path,
                                                           capsys):
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        r = RemoteStore(url, "results", timeout=2.0, retries=0,
                        cooldown=0.2)
        assert r.get_bytes("k") is None
        assert not r.available  # cooldown window open
        assert r.get_bytes("k") is None  # short-circuits, no request
        srv = ArtifactServer(root=str(tmp_path / "shared"),
                             host="127.0.0.1", port=port)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            time.sleep(0.25)  # one cooldown window
            assert r.available  # deadline passed: next op re-probes
            assert r.put_bytes("k", b"payload", wait=True)
            assert r.get_bytes("k") == b"payload"
            assert r._down_until is None
            assert "reachable again" in capsys.readouterr().err
        finally:
            srv.shutdown()
            srv.server_close()

    def test_transient_get_error_retried_and_recovered(self, server,
                                                       monkeypatch):
        r = RemoteStore(server.url, "results", retries=2)
        assert r.put_bytes("k1", b"data", wait=True)
        # Attempt 0 of every GET raises an injected transient error;
        # the in-request retry (attempt 1) succeeds without ever
        # opening an outage window.
        monkeypatch.setenv(faults.FAULTS_ENV, "remote.get:error:1:0::0")
        assert r.get_bytes("k1") == b"data"
        assert r.available and r._down_until is None
        assert r.counters["retries"] == 1
        assert faults.injected_counts()[("remote.get", "error")] == 1
        assert faults.recovered_counts()["remote.get"] == 1

    def test_corrupt_response_rejected_twice_is_a_miss(self, server,
                                                       monkeypatch,
                                                       capsys):
        r = RemoteStore(server.url, "results")
        assert r.put_bytes("k1", b"data", wait=True)
        monkeypatch.setenv(faults.FAULTS_ENV, "remote.get:corrupt:1")
        assert r.get_bytes("k1") is None
        assert r.counters["rejected"] == 2
        assert r.available  # corruption is not an outage
        assert "corrupt" in capsys.readouterr().err

    def test_transient_put_error_retried(self, server, monkeypatch):
        r = RemoteStore(server.url, "results", retries=2)
        monkeypatch.setenv(faults.FAULTS_ENV, "remote.put:error:1:0::0")
        assert r.put_bytes("k1", b"data", wait=True)
        assert r.counters["retries"] == 1
        assert r.counters["pushes"] == 1
        assert faults.recovered_counts()["remote.put"] == 1

    def test_async_drop_counted_and_drain_all_reports(self, capsys):
        port = _free_port()  # nothing listening
        r = remote_mod.remote_for(f"http://127.0.0.1:{port}", "results")
        r.retries = 0
        r.cooldown = 60.0
        r.put_bytes("k1", b"data")  # async: fails in the push thread
        assert r.drain(timeout=10.0)
        assert r.counters["dropped"] == 1
        r.put_bytes("k2", b"data")  # window open: dropped synchronously
        assert r.counters["dropped"] == 2
        remote_mod.drain_all(timeout=10.0)
        err = capsys.readouterr().err
        assert "2 push(es) dropped" in err

    def test_drain_timeout_warns_with_pending_count(self, server,
                                                    monkeypatch, capsys):
        r = RemoteStore(server.url, "results")
        monkeypatch.setattr(RemoteStore, "_push_now",
                            lambda self, key, data: time.sleep(0.5) or True)
        r.put_bytes("k1", b"data")
        assert r.drain(timeout=0.05) is False
        assert "drain timed out with 1 undelivered" in \
            capsys.readouterr().err


# ----------------------------------------------------------------------
# Store / trace fault sites
# ----------------------------------------------------------------------
class TestStoreAndTraceFaults:
    def test_enospc_on_result_put_degrades_to_memory(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv(faults.FAULTS_ENV, "store.put:enospc:1")
        runner = Runner(cache_dir=tmp_path / "cache")
        jobs = [JobSpec("ar", gem5_baseline(), label="base", **_FAST)]
        stats = run_jobs(jobs, workers=1, runner=runner)
        assert not isinstance(stats[0], JobFailure)
        assert stats[0].ipc > 0
        assert "write failed" in capsys.readouterr().err
        assert ResultStore(tmp_path / "cache").stats()["entries"] == 0

    def test_truncated_trace_quarantined_and_resynthesized(self, tmp_path,
                                                           monkeypatch):
        tstore = TraceStore(root=str(tmp_path / "traces"), remote=False)
        warm = Runner(cache_dir=tmp_path / "c1", trace_store=tstore)
        warm.trace_for("ar", "tiny", 4000)  # synthesize + save
        assert tstore.contains("ar", "tiny", 4000)

        monkeypatch.setenv(faults.FAULTS_ENV, "trace.load:truncate:1")
        cold = Runner(cache_dir=tmp_path / "c2",
                      trace_store=TraceStore(root=str(tmp_path / "traces"),
                                             remote=False))
        trace, _ = cold.trace_for("ar", "tiny", 4000)
        assert len(trace.kind) > 0
        assert faults.injected_counts()[("trace.load", "truncate")] >= 1
        assert faults.recovered_counts()["trace.load"] >= 1


# ----------------------------------------------------------------------
# Journals and `repro report` degradation
# ----------------------------------------------------------------------
class TestJournalDegradation:
    def test_interrupt_writes_interrupted_summary(self, tmp_path,
                                                  monkeypatch):
        jdir = tmp_path / "journals"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(jdir))
        import repro.core.runner as runner_mod

        calls = {"n": 0}

        def interrupt(trace, config, model="cycle", **kwargs):
            calls["n"] += 1
            raise KeyboardInterrupt

        # repro.core.runner binds `simulate` at import time.
        monkeypatch.setattr(runner_mod, "simulate", interrupt)
        jobs = [JobSpec("ar", gem5_baseline(), label="base", **_FAST)]
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs, workers=1,
                     runner=Runner(cache_dir=tmp_path / "cache"))
        assert calls["n"] == 1  # Ctrl-C is never retried
        records = telemetry.read_journal(telemetry.latest_journal(str(jdir)))
        assert records[-1]["type"] == "summary"
        assert records[-1]["status"] == "interrupted"
        assert telemetry.active_journal() is None

    def test_report_exits_zero_on_empty_journal(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 0
        assert "no parseable records" in capsys.readouterr().out

    def test_report_exits_zero_on_garbage_journal(self, tmp_path, capsys):
        from repro.__main__ import main

        torn = tmp_path / "torn.jsonl"
        # A torn line, a non-dict valid-JSON line: none are records.
        torn.write_text('{"type": "ru\n42\n')
        assert main(["report", str(torn)]) == 0
        assert "no parseable records" in capsys.readouterr().out

    def test_torn_journal_with_failures_still_reports(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main

        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            '{"type": "run", "label": "x", "utc": "t", "pid": 1}\n'
            '{"type": "failure", "workload": "ar", "label": "512", '
            '"model": "cycle", "error": "boom", "error_type": '
            '"RuntimeError", "attempts": 3}\n'
            '{"type": "job", "workload": "co", "label": "512", "model"')
        assert main(["report", str(torn)]) == 0
        out = capsys.readouterr().out
        assert "status=incomplete" in out
        assert "quarantined failures (1)" in out
