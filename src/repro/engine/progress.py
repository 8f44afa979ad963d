"""Lightweight progress reporting for the execution engine and CLI."""

from __future__ import annotations

import sys
import time

__all__ = ["Progress"]


class Progress:
    """Line-oriented progress meter for a batch of jobs.

    Writes to stderr: carriage-return updates on a TTY, rate-limited
    plain lines otherwise (so CI logs stay readable).  Pass an instance
    as ``progress=`` to ``run_jobs`` or any sweep function.
    """

    def __init__(self, total, label="", stream=None, enabled=True,
                 min_interval=0.5):
        self.total = int(total)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self.hits = 0
        self.runs = 0
        self._started = time.monotonic()
        self._last_emit = -1e9
        self._use_cr = bool(getattr(self.stream, "isatty", lambda: False)())
        self.min_interval = 0.0 if self._use_cr else min_interval
        # State for finish(): the last step not yet shown (rate-limited
        # away), whether a CR line is awaiting its newline, and whether
        # finish() already ran (it must be idempotent — run_jobs calls
        # it from a finally and the CLI calls it again afterwards).
        self._pending = None
        self._cr_open = False
        self._finished = False

    def step(self, what="", cached=False):
        """Record one finished job (``cached=None`` means 'unknown')."""
        self.done += 1
        if cached:
            self.hits += 1
        elif cached is not None:
            self.runs += 1
        self._finished = False  # a new phase reopens a finished meter
        self._emit(what, cached)

    def finish(self):
        """Flush the final state and terminate the meter (idempotent).

        Rate limiting can swallow the last ``step`` of an unknown-total
        batch (``final`` is only computed for known totals); emitting
        the pending update here guarantees the ``[N/N]``-style closing
        line always appears.  A carriage-return meter also gets its
        terminating newline, whatever the total was.  ``run_jobs``
        calls this from a ``finally`` so an interrupted run still
        leaves the terminal on a fresh line.
        """
        if self._finished or not self.enabled:
            return
        self._finished = True
        if self._pending is not None:
            what, cached = self._pending
            self._emit(what, cached, force=True)
        if self._cr_open:
            self.stream.write("\n")
            self.stream.flush()
            self._cr_open = False

    @property
    def elapsed(self):
        return time.monotonic() - self._started

    def _emit(self, what, cached, force=False):
        if not self.enabled:
            return
        now = time.monotonic()
        final = self.total > 0 and self.done >= self.total
        if not (final or force) and now - self._last_emit < self.min_interval:
            self._pending = (what, cached)
            return
        self._pending = None
        self._last_emit = now
        tag = "hit" if cached else ("job" if cached is None else "run")
        head = f"{self.label}: " if self.label else ""
        total = str(self.total) if self.total > 0 else "?"
        line = (f"{head}[{self.done}/{total}] {what} ({tag}) "
                f"{self.elapsed:.1f}s")
        if self._use_cr:
            self.stream.write("\r" + line.ljust(79))
            self._cr_open = True
            if final:
                self.stream.write("\n")
                self._cr_open = False
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def summary(self):
        return (f"{self.done} jobs ({self.hits} cache hits, "
                f"{self.runs} simulated) in {self.elapsed:.1f}s")
