"""Per-run JSONL journals: one span-tree per job plus a run summary.

With ``REPRO_TELEMETRY_DIR`` set, every engine run (``run_jobs`` /
``Study.run`` / the CLI commands built on them) appends records to one
``*.jsonl`` file in that directory:

* ``{"type": "run", ...}`` — one header line: label, UTC stamp, pid.
* ``{"type": "job", ...}`` — one line per job: workload, label, model,
  whether it was served from cache, wall seconds, and the full span
  tree (``spans``) recorded by whichever process executed it.
* ``{"type": "batch", ...}`` — one line per ``run_jobs`` call: job
  counts, wall clock, worker count, prebuild time, and a store-counter
  snapshot.
* ``{"type": "summary", ...}`` — one trailer line: totals, span
  coverage of wall time, remote push-queue depth, and status
  (``"error"`` when the run raised).

Each record is written and flushed as one complete line, so a run
killed mid-flight — or a worker dying mid-job — leaves a journal whose
every present line still parses; readers simply see fewer jobs and
possibly no summary.  ``repro report`` renders a journal into a phase
breakdown, tier mix, hit rates, and slowest-job table.

Journals nest by *scope*: the outermost :func:`scope` (a study, a CLI
command) owns the file, and inner ``run_jobs`` calls append to it
instead of opening their own.
"""

from __future__ import annotations

import json
import os
import re
import time

from ..env import env_dir
from .spans import enabled

__all__ = ["DIR_ENV", "RunJournal", "active_journal", "journal_dir",
           "latest_journal", "read_journal", "scope"]

DIR_ENV = "REPRO_TELEMETRY_DIR"

_ACTIVE = None
_SEQ = 0

_LABEL_RE = re.compile(r"[^A-Za-z0-9._-]+")


def journal_dir():
    """The journal directory, or None (unset dir or telemetry off)."""
    if not enabled():
        return None
    return env_dir(DIR_ENV)


def active_journal():
    """The journal owned by an enclosing scope, or None."""
    return _ACTIVE


class RunJournal:
    """An open JSONL run journal; accumulates run-level totals."""

    def __init__(self, path, label, meta=None):
        self.path = path
        self.label = label
        self.closed = False
        self._fh = open(path, "a")
        self._t0 = time.monotonic()
        self._totals = {"jobs": 0, "hits": 0, "runs": 0, "wall_s": 0.0,
                        "span_s": 0.0, "prebuild_s": 0.0,
                        "retries": 0, "failures": 0}
        self._stores = {}
        header = {"type": "run", "label": label, "pid": os.getpid(),
                  "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        if meta:
            header.update(meta)
        self._write(header)

    def _write(self, record):
        if self.closed:
            return
        try:
            self._fh.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")
            self._fh.flush()
        except (OSError, ValueError):  # full disk / closed fh: best effort
            pass

    # ------------------------------------------------------------------
    def job(self, workload, label, model, cached, seconds, spans=None):
        """Record one finished job and its span tree."""
        t = self._totals
        t["jobs"] += 1
        if cached:
            t["hits"] += 1
        elif cached is not None:
            t["runs"] += 1
        if seconds:
            t["span_s"] += seconds
        record = {"type": "job", "workload": workload, "label": str(label),
                  "model": model, "cached": cached,
                  "seconds": round(seconds, 6) if seconds else seconds}
        if spans is not None:
            record["spans"] = spans
        self._write(record)

    def retry(self, workload, label, model, attempt, error):
        """Record one failed-but-retried job attempt."""
        self._totals["retries"] += 1
        self._write({"type": "retry", "workload": workload,
                     "label": str(label), "model": model,
                     "attempt": attempt, "error": error})

    def failure(self, workload, label, model, error, error_type, attempts,
                backend=None):
        """Record one quarantined job (retries exhausted)."""
        self._totals["failures"] += 1
        record = {"type": "failure", "workload": workload,
                  "label": str(label), "model": model, "error": error,
                  "error_type": error_type, "attempts": attempts}
        if backend:
            record["backend"] = backend
        self._write(record)

    def batch(self, wall_s, workers=1, prebuild_s=0.0, store=None,
              label=None, spans=None):
        """Record one ``run_jobs`` call's wall clock and store state.

        ``spans`` carries batch-level (parent-side) work such as the
        trace prebuild tree; its time is accounted via ``prebuild_s``,
        the tree itself feeds the report's phase breakdown.
        """
        t = self._totals
        t["wall_s"] += wall_s
        t["prebuild_s"] += prebuild_s
        record = {"type": "batch", "wall_s": round(wall_s, 6),
                  "workers": workers}
        if label:
            record["label"] = label
        if prebuild_s:
            record["prebuild_s"] = round(prebuild_s, 6)
        if spans is not None:
            record["spans"] = spans
        if store:
            self._stores[store.get("root", "")] = store
            record["store"] = store
        self._write(record)

    def finish(self, status="ok", extra=None):
        """Write the summary trailer and close the file (idempotent)."""
        if self.closed:
            return
        t = self._totals
        wall = t["wall_s"] or (time.monotonic() - self._t0)
        accounted = t["span_s"] + t["prebuild_s"]
        summary = {"type": "summary", "status": status,
                   "jobs": t["jobs"], "hits": t["hits"], "runs": t["runs"],
                   "retries": t["retries"], "failures": t["failures"],
                   "wall_s": round(wall, 6),
                   "span_s": round(t["span_s"], 6),
                   "prebuild_s": round(t["prebuild_s"], 6),
                   "coverage": round(accounted / wall, 4) if wall else 0.0,
                   "push_queue_depth": _push_queue_depth()}
        if self._stores:
            summary["stores"] = list(self._stores.values())
        if extra:
            summary.update(extra)
        self._write(summary)
        self.closed = True
        try:
            self._fh.close()
        except OSError:
            pass


def _push_queue_depth():
    """Total artifacts waiting in this process's remote push queues."""
    try:
        from ..store.remote import queue_depths
    except ImportError:  # pragma: no cover - partial installs
        return 0
    return sum(queue_depths().values())


class scope:
    """Own a journal for the duration of a run, unless one is active.

    ``with journal.scope("study:l2") as j:`` yields the active journal
    when an outer scope already opened one (and leaves its lifecycle
    alone), a fresh :class:`RunJournal` when ``REPRO_TELEMETRY_DIR``
    is configured, or None when journaling is off.  The owning scope
    writes the summary trailer on exit — with ``status="error"`` when
    the body raised — so a crashed run still leaves a parseable,
    terminated journal.
    """

    def __init__(self, label, **meta):
        self.label = label
        self.meta = meta
        self._owned = None

    def __enter__(self):
        global _ACTIVE, _SEQ
        if _ACTIVE is not None:
            return _ACTIVE
        directory = journal_dir()
        if directory is None:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            _SEQ += 1
            stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
            name = (f"{_LABEL_RE.sub('-', self.label) or 'run'}-"
                    f"{stamp}-{os.getpid()}-{_SEQ}.jsonl")
            self._owned = RunJournal(os.path.join(directory, name),
                                     self.label, meta=self.meta)
        except OSError:  # unwritable journal dir: run un-journaled
            self._owned = None
            return None
        _ACTIVE = self._owned
        return self._owned

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        if self._owned is not None:
            if exc_type is None:
                status = "ok"
            elif issubclass(exc_type, KeyboardInterrupt):
                # Ctrl-C is a user decision, not a failure: the journal
                # stays parseable and says so.
                status = "interrupted"
            else:
                status = "error"
            self._owned.finish(status=status)
            if _ACTIVE is self._owned:
                _ACTIVE = None
            self._owned = None
        return False


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_journal(path):
    """Parse a journal's records, skipping any torn trailing line.

    Only dict records are kept: a torn line can still be valid JSON of
    the wrong shape (e.g. a bare number), and downstream readers index
    records by ``type``.
    """
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a killed writer
            if isinstance(record, dict):
                records.append(record)
    return records


def latest_journal(directory=None):
    """Newest ``*.jsonl`` in the journal directory, or None."""
    directory = directory or env_dir(DIR_ENV)
    if not directory or not os.path.isdir(directory):
        return None
    best = None
    best_mtime = -1.0
    for name in os.listdir(directory):
        if not name.endswith(".jsonl"):
            continue
        full = os.path.join(directory, name)
        try:
            mtime = os.path.getmtime(full)
        except OSError:
            continue
        if mtime > best_mtime:
            best, best_mtime = full, mtime
    return best
