"""Sweep-execution engine: studies, job lists, process pool, store.

This subsystem separates *what to simulate* (declarative
:class:`Study` plans that compile to :class:`JobSpec` lists, or raw
lists built with :func:`expand_grid`) from *how it runs*
(:func:`run_jobs` in-process or across a supervised process pool, on
one fidelity tier per study) and *where results live*
(:class:`ResultStore`, an indexed, concurrency-safe on-disk cache).  ``core.sweeps`` expresses every paper sweep as a
study executed here; ``python -m repro`` drives the same machinery
from the shell.
"""

from .failures import JobFailure
from .jobs import JobSpec, config_fingerprint, expand_grid
from .pool import resolve_workers, run_jobs
from .progress import Progress
from .store import ResultStore
from .study import Axis, Study, StudyResult, axis, parse_axis

__all__ = [
    "Axis",
    "JobFailure",
    "JobSpec",
    "Progress",
    "ResultStore",
    "Study",
    "StudyResult",
    "axis",
    "config_fingerprint",
    "expand_grid",
    "parse_axis",
    "resolve_workers",
    "run_jobs",
]
