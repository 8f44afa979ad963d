"""Microarchitectural sensitivity sweeps (the gem5 studies, Figs. 8-12).

Every sweep holds the Table II baseline fixed, varies one parameter, and
reports per-workload metrics.  Results are plain dicts:
``{workload: {param_value: MetricSet}}``.

All sweeps are declarative :class:`~repro.engine.study.Study` plans:
one named axis over the Table II baseline, executed through
``engine.run_jobs``.  Every sweep accepts ``workers=N`` (default: the
``REPRO_WORKERS`` env var, else serial) to fan the grid out over a
process pool, plus ``runner=``, ``progress=`` and ``model=``
passthroughs.  ``model`` is the fidelity tier the whole grid runs on:
``"cycle"`` (bit-identical to the pre-study sweeps) or ``"interval"``
(the cheaper vectorized estimate, within about 15% IPC of cycle).  Pass ``full_result=True`` to get the
:class:`~repro.engine.study.StudyResult` (cells, quarantined
failures, ``best()``) instead of the plain dict.
"""

from __future__ import annotations

from ..engine.study import Study, axis

__all__ = [
    "GEM5_WORKLOADS",
    "frequency_sweep",
    "l1i_sweep",
    "l1d_sweep",
    "l2_sweep",
    "width_sweep",
    "lsq_sweep",
    "branch_predictor_sweep",
    "rob_iq_sweep",
    "study_for",
]

GEM5_WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")

_SCALE = "default"
_BUDGET = 80_000

#: Sweep name -> (axis, default grid) — the single source of truth
#: for each sweep's grid (the sweep functions' ``None`` value defaults
#: resolve here, as does ``fig9_cache``'s progress-total arithmetic).
SWEEP_AXES = {
    "frequency": ("freq_ghz", (1.0, 2.0, 3.0, 4.0)),
    "l1i": ("l1i_kb", (8, 16, 32, 64)),
    "l1d": ("l1d_kb", (8, 16, 32, 64)),
    "l2": ("l2_kb", (256, 512, 1024, 2048)),
    "width": ("width", (2, 4, 6, 8)),
    "lsq": ("lsq", ((32, 24), (48, 40), (72, 56), (96, 72))),
    "branch": ("branch_predictor",
               ("local", "tournament", "ltage", "perceptron")),
    "rob_iq": ("rob_iq", ((128, 64), (224, 128), (320, 192))),
}


def study_for(name, workloads=GEM5_WORKLOADS, values=None, scale=_SCALE,
              budget=_BUDGET, metric="seconds"):
    """The :class:`Study` plan behind one named sweep.

    ``metric`` is the default for ``StudyResult.best()``.
    """
    axis_name, default_values = SWEEP_AXES[name]
    # `is None`, not truthiness: an explicitly empty grid must raise
    # Axis's clear error, not silently run the full default sweep.
    values = default_values if values is None else values
    return Study(
        name, axes=[axis(axis_name, values)],
        workloads=workloads, scale=scale, budget=budget, metric=metric,
    )


def _run(name, workloads, values, scale=_SCALE, budget=_BUDGET,
         runner=None, workers=None, progress=None, model="cycle",
         metric="seconds", full_result=False):
    study = study_for(name, workloads=workloads, values=values,
                      scale=scale, budget=budget, metric=metric)
    result = study.run(policy=model, workers=workers, runner=runner,
                       progress=progress)
    return result if full_result else result.table()


def frequency_sweep(workloads=GEM5_WORKLOADS, freqs=None, **kw):
    """Fig. 8: execution time and IPC vs core frequency."""
    return _run("frequency", workloads, freqs, **kw)


def l1i_sweep(workloads=GEM5_WORKLOADS, sizes_kb=None, **kw):
    """Fig. 9a/c: L1 instruction cache capacity."""
    return _run("l1i", workloads, sizes_kb, **kw)


def l1d_sweep(workloads=GEM5_WORKLOADS, sizes_kb=None, **kw):
    """Fig. 9b/c: L1 data cache capacity."""
    return _run("l1d", workloads, sizes_kb, **kw)


def l2_sweep(workloads=GEM5_WORKLOADS, sizes_kb=None, **kw):
    """Fig. 9d/e: L2 capacity."""
    return _run("l2", workloads, sizes_kb, **kw)


def width_sweep(workloads=GEM5_WORKLOADS, widths=None, **kw):
    """Fig. 10: core pipeline width (dispatch/issue scaled together).

    Fetch and commit stay at the Table II values: the paper's muted
    gains at width 8 imply the front end was not widened along with the
    issue path, and widening dispatch/issue isolates the ILP question
    the experiment asks.
    """
    return _run("width", workloads, widths, **kw)


def lsq_sweep(workloads=GEM5_WORKLOADS, depths=None, **kw):
    """Fig. 11: load/store queue depths."""
    return _run("lsq", workloads, depths, **kw)


def branch_predictor_sweep(workloads=GEM5_WORKLOADS, predictors=None, **kw):
    """Fig. 12: branch predictor design."""
    return _run("branch", workloads, predictors, **kw)


def rob_iq_sweep(workloads=GEM5_WORKLOADS, sizes=None, **kw):
    """Ablation the paper mentions in passing: ROB/IQ capacity."""
    return _run("rob_iq", workloads, sizes, **kw)
