"""Per-figure data generators.

One function per paper figure; each returns plain data (lists/dicts)
that the benchmark harness renders and EXPERIMENTS.md records.  The
functions only orchestrate — all analysis lives in
:mod:`repro.profiling` and :mod:`repro.core.sweeps`.

Every simulation-backed generator executes through the engine: the
figure's (workload x config) grid is a declarative
:class:`~repro.engine.study.Study` run via ``run_jobs``, so all of
them accept ``workers=N`` (process pool), ``progress=`` and ``model=``
(simulator fidelity tier) passthroughs.  ``fig5_scaling``
and ``fig6_cpu_time`` measure host wall-clock time and therefore stay
serial — timing under a process pool would measure contention, not the
solver.
"""

from __future__ import annotations

from ..engine.study import Study
from ..profiling import measure_workload
from ..uarch.config import gem5_baseline, host_i9
from ..workloads import REGISTRY, gem5_workloads, names
from ..workloads.registry import get as get_spec
from .characterize import (characterize_jobs, characterize_vtune_suite,
                           run_characterizations)
from . import sweeps

__all__ = [
    "fig2_topdown",
    "fig3_stall_split",
    "fig4_hotspots",
    "fig5_scaling",
    "fig6_cpu_time",
    "fig7_pipeline_stages",
    "fig8_frequency",
    "fig9_cache",
    "fig10_width",
    "fig11_lsq",
    "fig12_branch_predictor",
]

_FIG6_GROUPS = {
    "Biphasic Models": ("bp07", "bp08", "bp09"),
    "Fluid Models": ("fl33", "fl34"),
    "Material Models": ("ma26", "ma27", "ma28", "ma29", "ma30", "ma31"),
}


def fig2_topdown(scale="default", runner=None, workers=None, progress=None,
                 model="cycle"):
    """Fig. 2: top-down pipeline breakdown for the 12 VTune workloads."""
    chars = characterize_vtune_suite(scale=scale, runner=runner,
                                     workers=workers, progress=progress,
                                     model=model)
    return [c.topdown.row() for c in chars]


def fig3_stall_split(scale="default", runner=None, workers=None,
                     progress=None, model="cycle"):
    """Fig. 3: FE latency/bandwidth + BE core/memory split."""
    chars = characterize_vtune_suite(scale=scale, runner=runner,
                                     workers=workers, progress=progress,
                                     model=model)
    return [c.topdown.stall_row() for c in chars]


def fig4_hotspots(scale="tiny", runner=None, workload_names=None,
                  workers=None, progress=None, model="cycle"):
    """Fig. 4: hotspot-category prevalence per workload category.

    Uses one representative per category (plus eye); tiny scale keeps
    the full 20-category row affordable.
    """
    if workload_names is None:
        chosen = {}
        for n in names():
            spec = REGISTRY[n]
            chosen.setdefault(spec.category, spec.name)
        workload_names = list(chosen.values())
    jobs = characterize_jobs(workload_names, config=host_i9(), scale=scale,
                             budget=40_000, model=model)
    chars = run_characterizations(jobs, runner=runner, workers=workers,
                                  progress=progress)
    rows = []
    for c in chars:
        row = {"workload": c.workload,
               "category": REGISTRY[c.workload].category}
        row.update(c.hotspots.category_symbols())
        rows.append(row)
    return rows


def fig5_scaling(scale="tiny", include_eye=True):
    """Fig. 5: wall-clock solve time vs input size (log-log cloud)."""
    points = []
    for n in names():
        spec = REGISTRY[n]
        if spec.case_study and not include_eye:
            continue
        # The eye runs one scale up, mirroring its outlier role.
        s = "default" if spec.case_study and scale == "tiny" else scale
        points.append(measure_workload(spec, s).as_dict())
    return points


def fig6_cpu_time(scale="default"):
    """Fig. 6: CPU time by model group (biphasic vs fluid vs material)."""
    rows = []
    for group, members in _FIG6_GROUPS.items():
        for name in members:
            point = measure_workload(get_spec(name), scale)
            rows.append(
                {
                    "group": group,
                    "workload": name,
                    "seconds": point.seconds,
                    "neq": point.neq,
                }
            )
    return rows


def fig7_pipeline_stages(scale="default", runner=None, workers=None,
                         progress=None, model="cycle"):
    """Fig. 7: fetch / execute / commit stage breakdowns (gem5 set)."""
    study = Study("fig7", workloads=[spec.name for spec in gem5_workloads()],
                  base=gem5_baseline(), scale=scale)
    result = study.run(policy=model, workers=workers,
                       runner=runner, progress=progress)
    out = {"fetch": [], "execute": [], "commit": []}
    for cell in result.cells:
        stats = cell.stats
        fetch = {"workload": cell.workload}
        fetch.update(stats.fetch_profile())
        out["fetch"].append(fetch)
        mix = stats.kind_profile(committed=False)
        execute = {
            "workload": cell.workload,
            "numBranches": mix.get("branch", 0.0) + mix.get("pause", 0.0),
            "numFpInsts": mix.get("fp", 0.0),
            "numIntInsts": mix.get("int", 0.0),
            "numLoadInsts": mix.get("load", 0.0),
            "numStoreInsts": mix.get("store", 0.0),
        }
        out["execute"].append(execute)
        cmix = stats.kind_profile(committed=True)
        nonbranch = sum(
            cmix.get(k, 0.0) for k in ("fp", "int", "load", "store")
        ) or 1.0
        commit = {
            "workload": cell.workload,
            "numFpInsts": cmix.get("fp", 0.0) / nonbranch,
            "numIntInsts": cmix.get("int", 0.0) / nonbranch,
            "numLoadInsts": cmix.get("load", 0.0) / nonbranch,
            "numStoreInsts": cmix.get("store", 0.0) / nonbranch,
        }
        out["commit"].append(commit)
    return out


def fig8_frequency(runner=None, workers=None, progress=None, model="cycle"):
    """Fig. 8: execution time and IPC vs core frequency."""
    table = sweeps.frequency_sweep(runner=runner, workers=workers,
                                   progress=progress, model=model)
    rows = []
    for w, by_freq in table.items():
        base = by_freq[1.0].seconds
        for f, m in sorted(by_freq.items()):
            rows.append({
                "workload": w,
                "freq_ghz": f,
                "seconds": m.seconds,
                "ipc": m.ipc,
                "speedup_vs_1ghz": base / m.seconds if m.seconds else 0.0,
            })
    return rows


def fig9_cache(runner=None, workers=None, progress=None, model="cycle"):
    """Fig. 9: L1I/L1D/L2 MPKI and normalized execution time."""
    grids = (
        ("l1i", sweeps.l1i_sweep, "l1i_mpki"),
        ("l1d", sweeps.l1d_sweep, "l1d_mpki"),
        ("l2", sweeps.l2_sweep, "l2_mpki"),
    )
    if progress is not None and getattr(progress, "total", 0) <= 0:
        # Three sweep grids share one meter; run_jobs would otherwise
        # pin the total to the first grid's job count.  Grid sizes come
        # from the sweeps' single source of truth.
        progress.total = sum(
            len(sweeps.SWEEP_AXES[label][1]) for label, _, _ in grids
        ) * len(sweeps.GEM5_WORKLOADS)
    out = {}
    for label, sweep, mpki_key in grids:
        table = sweep(runner=runner, workers=workers, progress=progress,
                      model=model)
        rows = []
        for w, by_size in table.items():
            t_best = min(m.seconds for m in by_size.values())
            for size, m in sorted(by_size.items()):
                rows.append({
                    "workload": w,
                    "size_kb": size,
                    "mpki": getattr(m, mpki_key),
                    "seconds": m.seconds,
                    "norm_time": m.seconds / t_best if t_best else 0.0,
                })
        out[label] = rows
    return out


def _percent_diff_rows(table, baseline_key):
    rows = []
    for w, by_param in table.items():
        base = by_param[baseline_key].seconds
        for param, m in by_param.items():
            if param == baseline_key:
                continue
            rows.append({
                "workload": w,
                "param": param,
                "pct_diff": 100.0 * (m.seconds - base) / base
                if base else 0.0,
            })
    return rows


def fig10_width(runner=None, workers=None, progress=None, model="cycle"):
    """Fig. 10: exec-time % difference vs the width-6 baseline."""
    return _percent_diff_rows(
        sweeps.width_sweep(runner=runner, workers=workers,
                           progress=progress, model=model), 6)


def fig11_lsq(runner=None, workers=None, progress=None, model="cycle"):
    """Fig. 11: exec-time % difference vs the 72_56 LQ/SQ baseline."""
    return _percent_diff_rows(
        sweeps.lsq_sweep(runner=runner, workers=workers,
                         progress=progress, model=model), "72_56")


def fig12_branch_predictor(runner=None, workers=None, progress=None,
                           model="cycle"):
    """Fig. 12: exec-time % difference vs TournamentBP."""
    return _percent_diff_rows(
        sweeps.branch_predictor_sweep(runner=runner, workers=workers,
                                      progress=progress, model=model),
        "tournament"
    )
