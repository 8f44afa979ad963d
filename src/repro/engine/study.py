"""Declarative sweep plans, run on one fidelity tier.

A :class:`Study` captures a sweep as data — workloads x config
:class:`Axis` values x (scale, budget) x a selection metric — instead
of as a hand-rolled loop at every call site.  It compiles to the same
:class:`~repro.engine.jobs.JobSpec` lists the engine already executes
and runs the whole grid on one tier of
:data:`~repro.uarch.core.MODELS`: ``"cycle"`` (bit-identical to the
pre-study sweep functions) or ``"interval"`` (the fast vectorized
estimate).

``core.sweeps``, the simulation-backed figure generators, and
``characterize()`` all express their grids as studies; ``repro study``
runs arbitrary user-defined grids from ``axis=values`` specs without
writing code.
"""

from __future__ import annotations

from .. import telemetry
from ..profiling import metric_set
from ..uarch.config import CacheConfig, gem5_baseline
from ..uarch.core import MODELS
from .failures import JobFailure
from .jobs import JobSpec, config_fingerprint
from .pool import run_jobs

__all__ = [
    "AXIS_BUILDERS",
    "Axis",
    "Study",
    "StudyCell",
    "StudyResult",
    "axis",
    "parse_axis",
]

# Selection metrics where larger is better; everything else (seconds,
# cpi, the MPKIs) improves downward.
_HIGHER_BETTER = frozenset({"ipc", "dram_gbps"})


class Axis:
    """One swept dimension: a name, its values, and how a value maps to
    ``CoreConfig`` overrides and a human label."""

    def __init__(self, name, values, overrides=None, label=None):
        self.name = name
        self.values = tuple(values)
        if not self.values:
            raise ValueError(f"axis {name!r} needs at least one value")
        self._overrides = overrides
        self._label = label

    def overrides_for(self, value):
        """``CoreConfig.with_changes`` kwargs for one axis value."""
        if self._overrides is not None:
            return self._overrides(value)
        return {self.name: value}

    def label_for(self, value):
        return self._label(value) if self._label is not None else value

    def __repr__(self):
        return f"Axis({self.name!r}, {self.values!r})"


def _pair(value, what):
    """Normalize a two-field axis value: (a, b) tuples or "a:b" text."""
    if isinstance(value, str):
        parts = value.replace(":", " ").replace("/", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{what} value {value!r} is not a pair "
                             f"like 72:56")
        return int(parts[0]), int(parts[1])
    a, b = value
    return int(a), int(b)


def _scalar_axis(field, conv):
    return lambda values: Axis(field, [conv(v) for v in values])


def _cache_axis(level, assoc, hit_latency):
    # Canonical sweep geometry per level — matches the paper's Fig. 9
    # grids, so CLI studies and core.sweeps produce identical configs.
    def build(values):
        return Axis(
            f"{level}_kb", [int(v) for v in values],
            overrides=lambda kb: {level: CacheConfig(kb, assoc,
                                                     hit_latency)},
        )
    return build


def _width_axis(values):
    return Axis("width", [int(v) for v in values],
                overrides=lambda w: {"dispatch_width": w,
                                     "issue_width": w})


def _lsq_axis(values):
    pairs = [_pair(v, "lsq") for v in values]
    return Axis("lsq", pairs,
                overrides=lambda p: {"lq_entries": p[0],
                                     "sq_entries": p[1]},
                label=lambda p: f"{p[0]}_{p[1]}")


def _rob_iq_axis(values):
    pairs = [_pair(v, "rob_iq") for v in values]
    return Axis("rob_iq", pairs,
                overrides=lambda p: {"rob_entries": p[0],
                                     "iq_entries": p[1]},
                label=lambda p: f"{p[0]}_{p[1]}")


#: Named axis constructors: every dimension the paper sweeps, usable
#: both from ``core.sweeps`` and from ``repro study axis=v1,v2,...``.
AXIS_BUILDERS = {
    "freq_ghz": _scalar_axis("freq_ghz", float),
    "fetch_width": _scalar_axis("fetch_width", int),
    "dispatch_width": _scalar_axis("dispatch_width", int),
    "issue_width": _scalar_axis("issue_width", int),
    "commit_width": _scalar_axis("commit_width", int),
    "rob_entries": _scalar_axis("rob_entries", int),
    "iq_entries": _scalar_axis("iq_entries", int),
    "lq_entries": _scalar_axis("lq_entries", int),
    "sq_entries": _scalar_axis("sq_entries", int),
    "mem_latency_ns": _scalar_axis("mem_latency_ns", float),
    "branch_predictor": _scalar_axis("branch_predictor", str),
    "width": _width_axis,
    "lsq": _lsq_axis,
    "rob_iq": _rob_iq_axis,
    "l1i_kb": _cache_axis("l1i", 8, 1),
    "l1d_kb": _cache_axis("l1d", 8, 4),
    "l2_kb": _cache_axis("l2", 16, 14),
}


def axis(name, values):
    """Build a named axis from :data:`AXIS_BUILDERS`."""
    try:
        builder = AXIS_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown axis {name!r}; known: {', '.join(sorted(AXIS_BUILDERS))}"
        ) from None
    return builder(values)


def parse_axis(spec):
    """Parse one CLI axis spec, ``name=v1,v2,...``."""
    name, sep, raw = spec.partition("=")
    name = name.strip()
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not sep or not name or not values:
        raise ValueError(f"axis spec {spec!r} is not name=v1,v2,...")
    return axis(name, values)


class StudyCell:
    """One (workload, grid point) result."""

    __slots__ = ("workload", "label", "stats", "metrics")

    def __init__(self, workload, label, stats, metrics):
        self.workload = workload
        self.label = label
        self.stats = stats
        self.metrics = metrics

    def __repr__(self):
        return f"StudyCell({self.workload!r}, {self.label!r})"


class StudyResult:
    """Result table of a study run.

    Cells are ordered workload-major in grid order — the same order the
    equivalent ``JobSpec`` list executes in.  ``table()`` reproduces the
    shape the pre-study sweep functions returned.

    Jobs quarantined by the supervised pool (retries exhausted) do not
    become cells; their :class:`~repro.engine.failures.JobFailure`
    records are collected on :attr:`failures`, so a degraded run keeps
    its ``n-k`` good cells *and* a visible account of the ``k``.
    """

    def __init__(self, study, policy, cells, failures=None):
        self.study = study
        #: The fidelity tier every cell ran on.
        self.policy = policy
        self.cells = list(cells)
        #: Quarantined jobs (:class:`JobFailure` records), if any.
        self.failures = list(failures or ())

    def table(self):
        """``{workload: {label: MetricSet}}`` in grid order."""
        out = {}
        for cell in self.cells:
            out.setdefault(cell.workload, {})[cell.label] = cell.metrics
        return out

    def best(self, metric=None):
        """Per-workload best label (first in grid order on exact ties)."""
        metric = metric or self.study.metric
        pick = max if metric in _HIGHER_BETTER else min
        return {w: pick(by_label,
                        key=lambda label: getattr(by_label[label], metric))
                for w, by_label in self.table().items()}


class Study:
    """A declarative sweep plan.

    Either build from ``axes`` (the cross product of
    :class:`Axis` values over a ``base`` config factory) or pass
    explicit ``points`` — an ordered list of ``(label, CoreConfig)``
    pairs, the shape every pre-study sweep produced.
    """

    def __init__(self, name, axes=(), workloads=(), base=gem5_baseline,
                 scale="default", budget=80_000, metric="seconds",
                 points=None):
        self.name = name
        self.axes = tuple(axes)
        self.workloads = tuple(workloads)
        if not self.workloads:
            raise ValueError("a study needs at least one workload")
        self.base = base
        self.scale = scale
        self.budget = int(budget)
        self.metric = metric
        self._points = list(points) if points is not None else None
        if self._points is None and not self.axes:
            # Zero axes: the single base-config point (suites like
            # characterize / fig7 are one-config studies).
            cfg = base() if callable(base) else base
            self._points = [(cfg.name, cfg)]

    @classmethod
    def from_jobs(cls, name, jobs, metric="seconds"):
        """Wrap an existing ``JobSpec`` list (one shared scale/budget,
        every workload visiting the same grid points, workload-major
        order) as a study."""
        jobs = list(jobs)
        if not jobs:
            raise ValueError("from_jobs needs at least one job")
        scales = {(j.scale, j.budget) for j in jobs}
        if len(scales) > 1:
            raise ValueError(f"jobs mix scales/budgets: {sorted(scales)}")
        per_workload = {}
        order = []
        for job in jobs:
            if job.workload not in per_workload:
                order.append(job.workload)
            per_workload.setdefault(job.workload, []).append(
                (job.label, job.config))
        first = per_workload[order[0]]
        signature = [(label, config_fingerprint(cfg)) for label, cfg in first]
        for w in order[1:]:
            sig = [(label, config_fingerprint(cfg))
                   for label, cfg in per_workload[w]]
            if sig != signature:
                raise ValueError(
                    f"workload {w!r} visits different grid points than "
                    f"{order[0]!r}; not a rectangular study")
        return cls(name, workloads=order, scale=jobs[0].scale,
                   budget=jobs[0].budget, metric=metric, points=first)

    def points(self):
        """Ordered ``(label, config)`` grid points."""
        if self._points is not None:
            return list(self._points)
        points = [((), {})]
        for ax in self.axes:
            points = [
                (labels + (ax.label_for(v),), {**ov, **ax.overrides_for(v)})
                for labels, ov in points
                for v in ax.values
            ]
        base = self.base
        out = []
        for labels, overrides in points:
            cfg = (base(**overrides) if callable(base)
                   else base.with_changes(**overrides))
            label = labels[0] if len(labels) == 1 else labels
            out.append((label, cfg))
        self._points = out
        return list(out)

    def jobs(self, model="cycle"):
        """Workload-major ``JobSpec`` list for one fidelity tier."""
        return [
            JobSpec(w, cfg, label=label, scale=self.scale,
                    budget=self.budget, model=model)
            for w in self.workloads
            for label, cfg in self.points()
        ]

    def describe(self):
        dims = " x ".join(
            f"{ax.name}[{len(ax.values)}]" for ax in self.axes
        ) or f"{len(self.points())} point(s)"
        return (f"{self.name}: {len(self.workloads)} workload(s) x {dims} "
                f"(scale={self.scale}, budget={self.budget})")

    # ------------------------------------------------------------------
    def run(self, policy="cycle", workers=None, runner=None, progress=None):
        """Execute the whole grid on one fidelity tier and return a
        :class:`StudyResult`.

        ``policy`` names the tier, one of
        :data:`~repro.uarch.core.MODELS` — what the sweep, figure and
        characterize functions call ``model=``.  The run shares one
        telemetry journal scope.
        """
        if policy not in MODELS:
            raise ValueError(f"unknown policy {policy!r}; expected one of "
                             f"{MODELS}")
        with telemetry.scope(f"study:{self.name}", policy=policy,
                             study=self.describe()):
            jobs = self.jobs(model=policy)
            stats_list = run_jobs(jobs, workers=workers, runner=runner,
                                  progress=progress)
            cells = []
            failures = []
            for job, stats in zip(jobs, stats_list):
                if isinstance(stats, JobFailure):
                    failures.append(stats)
                    continue
                cells.append(StudyCell(job.workload, job.label, stats,
                                       metric_set(stats, job.describe())))
            return StudyResult(self, policy, cells, failures=failures)
