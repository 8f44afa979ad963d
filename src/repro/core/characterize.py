"""End-to-end characterization: workload -> trace -> simulate -> analyze.

This is Belenos's primary contribution: one call produces the top-down
breakdown, stall split, hotspot report, and metric set for any workload
on either the host (VTune) or gem5-baseline configuration.

Characterization executes through :mod:`repro.engine` like the sweeps:
a suite is one ``JobSpec`` per workload (one config) run via
``run_jobs`` — so ``workers=N`` fans the workloads out over a process
pool, ``progress=`` reports completions, and ``model=`` picks the
simulator fidelity tier.  Results are identical to the serial path
regardless of worker count.
"""

from __future__ import annotations

from ..engine import run_jobs
from ..engine.failures import JobFailure
from ..engine.jobs import JobSpec
from ..engine.study import Study
from ..env import warn_once
from ..profiling import analyze, hotspot_report, metric_set
from ..uarch.config import gem5_baseline, host_i9
from ..workloads import vtune_workloads
from .runner import default_runner

__all__ = ["Characterization", "characterize", "characterize_jobs",
           "characterize_vtune_suite", "run_characterizations"]

_VTUNE_BUDGET = 80_000


class Characterization:
    """Bundle of every analysis view for one (workload, config) run."""

    def __init__(self, workload, stats):
        self.workload = workload
        self.stats = stats
        self.topdown = analyze(stats, workload)
        self.hotspots = hotspot_report(stats, workload)
        self.metrics = metric_set(stats, workload)

    def summary(self):
        row = self.topdown.row()
        row.update(
            {
                "ipc": self.metrics.ipc,
                "l1d_mpki": self.metrics.l1d_mpki,
                "l2_mpki": self.metrics.l2_mpki,
                "dram_gbps": self.metrics.dram_gbps,
            }
        )
        return row


def characterize_jobs(workloads, config=None, scale="default",
                      budget=_VTUNE_BUDGET, model="cycle"):
    """Expand a workload list into the suite's ``JobSpec`` list."""
    config = config or host_i9()
    return [
        JobSpec(w, config, label=config.name, scale=scale, budget=budget,
                model=model)
        for w in workloads
    ]


def run_characterizations(jobs, runner=None, workers=None, progress=None):
    """Execute a ``JobSpec`` list via the engine, one
    :class:`Characterization` per job (each on its own ``model`` tier),
    in input order.  Quarantined jobs are dropped with a warning."""
    jobs = list(jobs)
    stats_list = run_jobs(jobs, workers=workers, runner=runner,
                          progress=progress)
    out = []
    for job, stats in zip(jobs, stats_list):
        if isinstance(stats, JobFailure):
            warn_once(("characterize-failed", job.key()),
                      f"characterization of {stats.describe()} was "
                      f"quarantined after {stats.attempts} attempt(s) "
                      f"({stats.error_type}); dropping it from the suite")
            continue
        out.append(Characterization(job.workload, stats))
    return out


def characterize(workload, config=None, scale="default",
                 budget=_VTUNE_BUDGET, runner=None, model="cycle"):
    """Characterize one workload (host config by default)."""
    config = config or host_i9()
    study = Study(f"characterize:{workload}", workloads=(workload,),
                  base=config, scale=scale, budget=budget)
    result = study.run(policy=model, runner=runner or default_runner())
    return Characterization(workload, result.cells[0].stats)


def characterize_vtune_suite(scale="default", runner=None, config=None,
                             workers=None, progress=None, model="cycle",
                             budget=_VTUNE_BUDGET):
    """Figs. 2-3: characterize the 12 VTune workloads, paper order."""
    jobs = characterize_jobs(
        [spec.name for spec in vtune_workloads()], config=config,
        scale=scale, budget=budget, model=model)
    return run_characterizations(jobs, runner=runner, workers=workers,
                                 progress=progress)


def characterize_gem5_baseline(workload, scale="default", runner=None,
                               model="cycle"):
    """Characterize under the Table II baseline (Fig. 7 companion)."""
    return characterize(
        workload, gem5_baseline(), scale=scale, runner=runner, model=model
    )
