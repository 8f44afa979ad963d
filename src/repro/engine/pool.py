"""Job execution: one dispatcher, in-process or over supervised workers.

``run_jobs`` executes a list of :class:`~repro.engine.jobs.JobSpec`.
Cache hits are served from the result store in the parent up front,
so only misses are dispatched, over ``n = min(workers, misses)``
lanes.  Every attempt goes through one entry point (``_execute``:
the ``worker.exec`` fault site, then ``Runner.stats_for_job``) and
every failed attempt through one retry/quarantine decision
(``_charge``).

With ``n > 1``, traces are distributed zero-copy: before dispatch the
parent builds or mmap-loads every distinct trace the pending jobs
need into :data:`repro.core.runner.PREBUILT_TRACES`; forked workers
inherit the set through copy-on-write pages (mmap-backed file pages
when the trace came from the persistent store), so no worker ever
re-synthesizes a trace the parent already has.  Cold traces are
built through a temporary pool into the trace store first, keeping
cold-start builds parallel.  On spawn platforms the inherited set is
empty and workers fall back to mmap loads from the store.

Failure semantics (the coordinator dress rehearsal):

* With ``n > 1`` every job runs in its **own supervised process** (at
  most ``n`` concurrent), so a dead worker (segfault, ``os._exit``,
  SIGKILL, OOM) is attributed exactly: only the job whose process died
  is charged an attempt — other in-flight jobs, each in their own
  process, never even notice.  (A shared pool would break wholesale
  and charge every in-flight innocent, cascading one kill into many
  spurious quarantines.)
* Each failed job is retried up to ``REPRO_JOB_RETRIES`` times
  (default 2).  Retried cycle-tier jobs force the ``python`` backend —
  graceful degradation away from a possibly-crashing native kernel,
  bit-identical by the backend parity matrix.
* After retries exhaust, the job is **quarantined**: its slot in the
  returned list holds a :class:`~repro.engine.failures.JobFailure`
  instead of stats, a failure record lands in the run journal, and the
  sweep completes with ``n-k`` results instead of raising.
* ``REPRO_JOB_TIMEOUT`` (seconds; 0 = off) reaps jobs that hang: the
  hung job's process is killed and the job charged an attempt, without
  disturbing anything else in flight.
* ``KeyError``/``ValueError`` are deterministic configuration errors
  (unknown workload, impossible cache geometry) and still raise
  immediately — retrying cannot fix a caller bug.

Results always come back in input-job order regardless of worker
count.  ``n == 1`` — and a platform that refuses to start processes —
runs the misses in-process through the caller's runner, in input
order: same retry, quarantine and fault sites, but no timeout, and
fault death modes demoted to ``raise``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
from collections import deque
from multiprocessing.connection import wait as _sentinel_wait

from .. import faults, telemetry
from ..env import env_float, env_int, warn_once
from .failures import JobFailure
from .store import ResultStore

__all__ = ["prebuild_traces", "run_jobs", "resolve_workers"]

RETRIES_ENV = "REPRO_JOB_RETRIES"
_RETRIES_DEFAULT = 2
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

# How long the supervisor sleeps in wait() between liveness checks.
_POLL_SECONDS = 0.1

# Deterministic caller bugs: raised through, never retried/quarantined
# (the CLI turns them into its usual `error:` exits).
_FATAL = (KeyError, ValueError)

_RETRIES_TOTAL = telemetry.counter(
    "repro_pool_retries_total",
    help="Job attempts retried after a failure or worker death.")
_QUARANTINED_TOTAL = telemetry.counter(
    "repro_pool_quarantined_total",
    help="Jobs quarantined after exhausting retries.")
_WORKER_DEATHS_TOTAL = telemetry.counter(
    "repro_pool_worker_deaths_total",
    help="Pool rebuilds forced by a dead worker process.")
_TIMEOUTS_TOTAL = telemetry.counter(
    "repro_pool_job_timeouts_total",
    help="Jobs reaped by the REPRO_JOB_TIMEOUT wall-clock limit.")


def job_retries():
    """Retry budget per job (total attempts = retries + 1)."""
    return env_int(RETRIES_ENV, _RETRIES_DEFAULT, minimum=0)


def job_timeout():
    """Per-job wall-clock limit in seconds (0 = disabled)."""
    return env_float(TIMEOUT_ENV, 0.0, minimum=0.0)


def resolve_workers(workers=None):
    """Worker count: explicit value, else ``REPRO_WORKERS``, else 1.

    ``0`` (from either source) means "all available cores".  An
    unparsable ``REPRO_WORKERS`` warns once and falls back to serial;
    an unparsable explicit value is a caller bug and raises with a
    clear message instead of a deep ``int()`` traceback.
    """
    if workers is None:
        workers = env_int("REPRO_WORKERS", 1)
    try:
        workers = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"workers= must be an integer (0 = all cores), got "
            f"{workers!r}") from None
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _mp_context():
    # Fork is cheap and shares the warm trace memo, but CPython only
    # considers it safe on Linux (macOS made spawn the default after
    # fork-with-threads crashes in system libraries and BLAS).
    if (sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_runner(store_root):
    """A pool worker's runner: trace memo plus the shared result store.

    Workers never talk to the remote tier: they exit via os._exit
    (stranding async push queues), and the parent already resolved
    remote result hits and pulled remote traces into the local store
    before dispatch.  The parent pushes worker results back as it
    indexes them (ResultStore.index_deferred).
    """
    from ..core.runner import Runner
    from ..trace.store import TraceStore, store_enabled

    tstore = TraceStore(create=False, remote=False) if store_enabled() \
        else False
    store = ResultStore(store_root, remote=False) if store_root else None
    return Runner(cache_dir=store_root, use_disk_cache=store is not None,
                  store=store, trace_store=tstore)


def _execute(job, attempt, backend, runner, in_worker):
    """One attempt of *job*: the ``worker.exec`` fault site, then
    ``runner.stats_for_job`` (trace, simulate, deferred store put).

    Returns ``(stats, span_tree)``.  The span tree — the job's phase
    breakdown, recorded in whichever process ran the job — is a plain
    dict, so it travels back from a worker over the result pipe under
    fork and spawn alike; the parent merges it into the metrics
    registry and the run journal.

    ``attempt`` feeds the chaos harness token (each retry of a job gets
    an independent fault draw); ``backend`` overrides the cycle-tier
    execution backend on retries (graceful degradation to ``python``);
    ``in_worker=False`` demotes the fault site's death modes to
    ``raise``.
    """
    with telemetry.span("job", workload=job.workload, label=str(job.label),
                        model=job.model) as sp:
        faults.worker_exec(f"{job.key()}:{attempt}", in_worker=in_worker)
        stats = runner.stats_for_job(job, backend=backend)
    return stats, (sp.as_dict() if sp is not None else None)


def _build_one_trace(key):
    """Prebuild helper: synthesize one trace, persist it when the trace
    store allows, and ship its columns back to the parent.

    The child's trace store runs with the remote tier disabled —
    ``pool.terminate`` would strand its async push queue — so the
    parent pushes the freshly built archives after the map completes.
    """
    import numpy as np

    trace, _ = _worker_runner(None).trace_for(*key)
    columns = {
        c: np.ascontiguousarray(getattr(trace, c))
        for c in ("kind", "addr", "pc", "taken", "dep1", "dep2", "func")
    }
    return key, columns


def prebuild_traces(jobs, workers=1):
    """Build/load every distinct trace *jobs* need, in the parent.

    Populates :data:`repro.core.runner.PREBUILT_TRACES` so that pool
    workers forked afterwards inherit the traces copy-on-write.  Traces
    the parent cannot cheaply acquire (not memoized, not in the trace
    store) are synthesized through a temporary pool when ``workers``
    allows — synthesis is a full FEM solve and dominates cold-start
    time — and shipped back as arrays, so builds stay parallel even
    when the store is disabled or unwritable.  Returns the list of
    distinct trace keys.
    """
    from ..trace.ops import Trace  # local import: avoids cycle at load
    from ..core.runner import PREBUILT_TRACES, Runner

    keys = []
    seen = set()
    for job in jobs:
        key = job.trace_key
        if key not in seen:
            seen.add(key)
            keys.append(key)
    runner = Runner(use_disk_cache=False)
    missing = [k for k in keys if k not in PREBUILT_TRACES]
    tstore = runner.trace_store
    if workers > 1:
        # Cheap acquisition first: local archive, then a remote pull
        # (both leave an mmap-able file); only what neither tier has
        # goes to the synthesis pool.
        to_build = []
        for k in missing:
            if tstore is None or not (tstore.contains(*k)
                                      or tstore.pull(*k)):
                to_build.append(k)
        if len(to_build) > 1:
            pool = None
            try:
                ctx = _mp_context()
                pool = ctx.Pool(processes=min(workers, len(to_build)))
            except (OSError, ValueError, ImportError):
                pool = None
            if pool is not None:
                try:
                    for key, columns in pool.map(_build_one_trace,
                                                 to_build):
                        PREBUILT_TRACES[key] = (Trace(**columns), None)
                        if tstore is not None:
                            # The child persisted locally with remote
                            # off (it exits via terminate); push-back
                            # is the parent's job.
                            tstore.push_local(*key)
                finally:
                    pool.terminate()
                    pool.join()
    for key in missing:
        if key not in PREBUILT_TRACES:
            PREBUILT_TRACES[key] = runner.trace_for(*key)
    return keys


def _store_snapshot(store):
    """Trimmed store counters for a journal batch record (no raises)."""
    if store is None:
        return None
    try:
        s = store.stats()
    except OSError:
        return None
    return {k: s.get(k) for k in ("root", "entries", "hits", "misses",
                                  "remote_hits", "remote_misses")}


def _journal_job(journal, job, cached, tree):
    if journal is None:
        return
    if isinstance(tree, telemetry.Span):
        tree = tree.as_dict()
    seconds = tree.get("seconds", 0.0) if tree else 0.0
    journal.job(job.workload, job.label, job.model, cached, seconds,
                spans=tree)


def _error_text(exc):
    if isinstance(exc, BaseException):
        return str(exc) or exc.__class__.__name__
    return str(exc)


def _retry_backend(job):
    """Backend override for a retried job: cycle tier degrades to the
    reference ``python`` backend (bit-identical; immune to native
    crashes), other tiers keep their default."""
    return "python" if job.model == "cycle" else None


def _note_retry(journal, job, attempts, exc, total):
    """Account one failed-but-retryable attempt (visible, journaled)."""
    _RETRIES_TOTAL.inc()
    if journal is not None:
        journal.retry(job.workload, job.label, job.model, attempts,
                      _error_text(exc))
    warn_once(("job-retry", job.key(), attempts),
              f"job {job.describe()} attempt {attempts}/{total} failed "
              f"({_error_text(exc)}); retrying"
              + (" on the python backend" if job.model == "cycle" else ""))


def _quarantine(journal, job, exc, attempts, backend=None):
    """Build (and account) the failure record for an exhausted job."""
    failure = JobFailure.from_job(job, exc, attempts, backend=backend)
    _QUARANTINED_TOTAL.inc()
    warn_once(("job-quarantined", job.key()),
              f"job {job.describe()} quarantined after {attempts} "
              f"attempt(s): {failure.error_type}: {failure.error}")
    if journal is not None:
        journal.failure(job.workload, job.label, job.model, failure.error,
                        failure.error_type, attempts, backend=backend)
    return failure


def _charge(work, item, exc, journal, finish):
    """The one retry/quarantine decision for a failed attempt of *item*
    (a ``(slot, job, attempt, backend)`` work item): requeue it (cycle
    tier on the ``python`` backend) while retries remain, else
    quarantine it."""
    i, job, attempt, backend = item
    retries = job_retries()
    if attempt < retries:
        _note_retry(journal, job, attempt + 1, exc, retries + 1)
        work.append((i, job, attempt + 1, _retry_backend(job)))
    else:
        finish(item, _quarantine(journal, job, exc, attempt + 1,
                                 backend=backend))


def run_jobs(jobs, workers=None, runner=None, progress=None):
    """Execute *jobs*, returning results aligned with input order.

    Each slot holds the job's ``SimStats`` — or, when the job failed
    every attempt, a :class:`~repro.engine.failures.JobFailure` record
    (see the module docstring for the retry/quarantine semantics).

    *runner* (the ``default_runner`` when none is given) owns the one
    result store of the batch: ``runner.store`` when its disk cache is
    on, else none.  Hits are resolved against it up front.  With
    ``n = min(workers, misses)`` above one, the misses fan out over
    supervised worker processes that persist their results to the same
    store; otherwise they run in-process, in input order, through
    *runner*.

    Telemetry: every job is wrapped in a ``"job"`` span whose tree is
    merged into the process metrics registry and — when an enclosing
    :func:`repro.telemetry.scope` or ``REPRO_TELEMETRY_DIR`` provides a
    journal — written as one journal record per job, plus a batch
    record carrying wall clock, prebuild time, and store counters.
    The progress meter is always finished from a ``finally``, so an
    interrupted run leaves the terminal on a fresh line.
    """
    from ..core.runner import PREBUILT_TRACES, default_runner
    from ..uarch import SimStats

    jobs = list(jobs)
    workers = resolve_workers(workers)
    if progress is not None and getattr(progress, "total", 0) <= 0:
        progress.total = len(jobs)
    if runner is None:
        runner = default_runner()
    store = runner.store if runner.use_disk_cache else None

    t0 = time.perf_counter()
    prebuild_tree = None
    n = 1
    results = [None] * len(jobs)

    with telemetry.scope("run-jobs", jobs=len(jobs),
                         workers=workers) as journal:
        def finish(item, outcome, tree=None):
            i, job, attempt, _ = item
            results[i] = outcome
            if not isinstance(outcome, JobFailure):
                if attempt > 0:
                    faults.recovered("worker.exec")
                telemetry.record_tree(tree)
                _journal_job(journal, job, False, tree)
            if progress is not None:
                progress.step(job.describe(), cached=False)

        try:
            work = deque()
            for i, job in enumerate(jobs):
                if store is not None:
                    with telemetry.span("job", workload=job.workload,
                                        label=str(job.label),
                                        model=job.model, cached=True) as sp:
                        payload = store.get(job.key(), job.legacy_key())
                else:
                    payload, sp = None, None
                if payload is not None:
                    results[i] = SimStats.from_dict(payload)
                    telemetry.record_tree(sp)
                    _journal_job(journal, job, True, sp)
                    if progress is not None:
                        progress.step(job.describe(), cached=True)
                else:
                    # The lookup missed: its "job" span never became a
                    # job.  Keep the store/remote child phases in the
                    # registry but drop the phantom root (the executed
                    # attempt's tree is the job's record).
                    if sp is not None:
                        for child in sp.children:
                            telemetry.record_tree(child)
                    work.append((i, job, 0, None))

            n = max(1, min(workers, len(work)))
            if n == 1:
                _run_inline(work, runner, journal, finish)
            else:
                # Same trace key => contiguous submission order => warm
                # worker memos; input order within a trace.
                work = deque(sorted(work, key=lambda item: (
                    item[1].trace_key, item[0])))
                # Build/load every needed trace in the parent *before*
                # forking: workers then inherit the whole set zero-copy
                # instead of each paying synthesis or load again.
                with telemetry.span("prebuild") as psp:
                    prebuild_traces([item[1] for item in work], workers=n)
                prebuild_tree = psp
                telemetry.record_tree(psp)
                _dispatch_supervised(work, n, runner, store, journal,
                                     finish)
        finally:
            # The forked children hold their own (copy-on-write) views;
            # dropping the parent's set bounds its memory across studies.
            PREBUILT_TRACES.clear()
            if store is not None:
                store.flush()
            if progress is not None:
                progress.finish()
            if journal is not None:
                journal.batch(
                    time.perf_counter() - t0, workers=n,
                    prebuild_s=(prebuild_tree.seconds
                                if prebuild_tree is not None else 0.0),
                    store=_store_snapshot(store),
                    spans=(prebuild_tree.as_dict()
                           if prebuild_tree is not None else None))
    return results


def _run_inline(work, runner, journal, finish):
    """The in-process loop: attempts in queue order through the
    caller's runner, whose store receives each result directly.

    Same entry point and retry/quarantine as the supervised loop, but
    nothing can reap a hung parent (no timeout) and chaos must never
    kill it (fault death modes demote to ``raise``).
    """
    while work:
        item = work.popleft()
        try:
            stats, tree = _execute(*item[1:], runner, in_worker=False)
        except _FATAL:
            raise
        except Exception as exc:
            _charge(work, item, exc, journal, finish)
            continue
        finish(item, stats, tree)


# ----------------------------------------------------------------------
# Supervised dispatch
# ----------------------------------------------------------------------
class WorkerDied(RuntimeError):
    """A job's worker process exited without delivering a result."""


def _child_entry(conn, store_root, job, attempt, backend):
    """Per-job worker process body: execute, ship the outcome.

    The outcome travels over *conn* as ``("ok", payload, tree)`` or
    ``("err", exc)``; a process that dies before sending anything is
    recognized by the parent as a worker death (its pipe end arrives
    empty).  Exits via ``os._exit`` like the old pool workers did —
    a worker must never fold manifest state on the way out (the parent
    indexes deferred puts itself).
    """
    import pickle

    code = 0
    try:
        try:
            # Ctrl-C is the parent's to handle; it kills the workers.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except (ValueError, OSError):
            pass
        try:
            stats, tree = _execute(job, attempt, backend,
                                   _worker_runner(store_root),
                                   in_worker=True)
            outcome = ("ok", stats.as_dict(), tree)
        except BaseException as exc:  # serialized to the parent
            code = 1
            try:
                pickle.dumps(exc)
                outcome = ("err", exc)
            except Exception:
                # Unpicklable exception: ship a faithful stand-in.
                outcome = ("err", RuntimeError(
                    f"{exc.__class__.__name__}: {_error_text(exc)}"))
        conn.send(outcome)
        conn.close()
    except BaseException:  # repro: noqa[RPR006] worker last resort:
        # the pipe to the parent is gone, so a nonzero exit code is
        # the only signal left; the supervisor counts the death.
        code = 1
    os._exit(code)


class _Flight:
    """One in-flight job: its work item, process, and pipe."""

    __slots__ = ("item", "proc", "conn", "t0")

    def __init__(self, item, proc, conn):
        self.item = item
        self.proc = proc
        self.conn = conn
        self.t0 = time.monotonic()

    def discard(self, kill=False):
        if kill:
            try:
                self.proc.kill()
            except (OSError, AttributeError, ValueError):
                pass
        try:
            self.proc.join(timeout=1.0)
        except Exception:  # repro: noqa[RPR006] reaping a dying
            # worker must never raise: the flight is already counted
            # (retry or quarantine) by the caller.
            pass
        try:
            self.conn.close()
        except OSError:
            pass


def _dispatch_supervised(work, n, runner, store, journal, finish):
    """Dispatch loop that survives dead workers and hung jobs.

    One process per job, at most ``n`` in flight: spawn time is start
    time (the wall-clock timeout measures the job, not the queue), a
    death or a reaped hang charges exactly the job that suffered it,
    and a ``KeyboardInterrupt`` unwinds through the ``finally`` that
    kills whatever is still in flight — no half-dead pool survives the
    run.
    """
    from ..uarch import SimStats

    timeout = job_timeout()
    ctx = _mp_context()
    store_root = store.root if store is not None else None
    # Workers write payload files with deferred puts (they exit via
    # os._exit, skipping finalizers, so they can never be trusted to
    # fold their own manifest entries).  The parent indexes each
    # drained result instead and folds the whole batch in one locked
    # manifest write at the end.  Size-capped stores are excluded:
    # their workers index synchronously (put ignores defer), and a
    # parent-side entry could resurrect a key another worker's
    # eviction pass already deleted.
    index_in_parent = store is not None and store.max_bytes is None

    running = {}  # process sentinel -> _Flight
    try:
        while work or running:
            while work and len(running) < n:
                item = work.popleft()
                try:
                    recv, send = ctx.Pipe(duplex=False)
                    proc = ctx.Process(target=_child_entry,
                                       args=(send, store_root) + item[1:],
                                       daemon=True)
                    proc.start()
                except (OSError, ValueError, ImportError):
                    # The platform stopped giving us processes
                    # (EAGAIN, ENOMEM, sandboxed spawn): finish in
                    # process once the in-flight workers drain.
                    work.appendleft(item)
                    if not running:
                        _run_inline(work, runner, journal, finish)
                        return
                    break
                send.close()  # the child owns the write end now
                running[proc.sentinel] = _Flight(item, proc, recv)

            if not running:
                continue
            # A child sends its outcome and exits immediately, so the
            # process sentinel is the one wake-up signal for results,
            # errors, and deaths alike.
            ready = _sentinel_wait(list(running), timeout=_POLL_SECONDS)

            if not ready and timeout:
                now = time.monotonic()
                for sentinel, flight in list(running.items()):
                    if now - flight.t0 <= timeout:
                        continue
                    # Reap exactly the hung job; nothing else notices.
                    del running[sentinel]
                    _TIMEOUTS_TOTAL.inc()
                    flight.discard(kill=True)
                    _charge(work, flight.item, TimeoutError(
                        f"exceeded {TIMEOUT_ENV}={timeout:g}s"),
                        journal, finish)
                continue

            for sentinel in ready:
                flight = running.pop(sentinel, None)
                if flight is None:
                    continue
                job = flight.item[1]
                outcome = None
                try:
                    if flight.conn.poll():
                        outcome = flight.conn.recv()
                except (EOFError, OSError):
                    # Died mid-send: a torn pickle is a dead worker.
                    outcome = None
                flight.discard()
                if outcome is None:
                    _WORKER_DEATHS_TOTAL.inc()
                    code = flight.proc.exitcode
                    warn_once(("worker-died", job.key(), flight.item[2]),
                              f"worker running {job.describe()} "
                              f"died (exit code {code}); only that job "
                              f"is charged an attempt")
                    _charge(work, flight.item, WorkerDied(
                        f"worker process died (exit code {code})"),
                        journal, finish)
                    continue
                if outcome[0] == "err":
                    if isinstance(outcome[1], _FATAL):
                        raise outcome[1]
                    _charge(work, flight.item, outcome[1], journal, finish)
                    continue
                if index_in_parent:
                    store.index_deferred(job.key(), meta=job.meta())
                finish(flight.item, SimStats.from_dict(outcome[1]),
                       outcome[2])
    finally:
        for flight in running.values():
            flight.discard(kill=True)
        running.clear()
