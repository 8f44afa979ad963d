"""The benchmark's workloads and the job lists a seed makes of them.

Each workload is a fixed set of grid cells from the paper's figures.
``plan()`` turns a workload name and a seed into the job list one run
executes.  The seed only permutes orders (workloads, sweeps, grid
values); results are keyed by cell, so every seed must reproduce the
same outputs.  Seed 0 is the canonical order.

Two input sizes exist.  ``default`` is what the benchmark measures;
``tiny`` (``ar``, ``co`` at ``tiny`` scale, budget 4,000) runs in
seconds and backs the harness tests.
"""

from __future__ import annotations

import random

GEM5_WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")
VTUNE_WORKLOADS = ("bp07", "bp08", "bp09", "fl33", "fl34", "ma26", "ma27",
                   "ma28", "ma29", "ma30", "ma31", "eye")
TINY_WORKLOADS = ("ar", "co")

# Sweep name -> grid values, mirroring repro.core.sweeps.SWEEP_AXES (kept
# literal so the benchmark's inputs cannot drift with the program).
SWEEPS = {
    "frequency": [1.0, 2.0, 3.0, 4.0],
    "l1i": [8, 16, 32, 64],
    "l1d": [8, 16, 32, 64],
    "l2": [256, 512, 1024, 2048],
    "width": [2, 4, 6, 8],
    "lsq": [[32, 24], [48, 40], [72, 56], [96, 72]],
    "branch": ["local", "tournament", "ltage", "perceptron"],
    "rob_iq": [[128, 64], [224, 128], [320, 192]],
}

# name -> (kind, sweeps or None, workers, starts from a primed trace
#          store, default-size (scale, budget)).
WORKLOADS = {
    "sweep-cold": ("sweeps", ["l2"], 1, False, ("default", 80_000)),
    "char-cold": ("characterize", None, 1, False, ("default", 80_000)),
    "figs-warm": ("sweeps", list(SWEEPS), 1, True, ("default", 80_000)),
    "figs-warm-w2": ("sweeps", list(SWEEPS), 2, True, ("default", 80_000)),
}


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def plan(name, seed=0, tiny=False):
    """The job list of one run of workload *name*, as plain JSON data.

    Seed 0 keeps every list in canonical order; any other seed
    shuffles the sweeps and each sweep's grid values, and on the warm
    workloads the order of the FE models too.  The cold workloads keep
    the paper's model order: the runner's trace memo holds every
    model solved so far, so the order sets the run's peak memory
    (95-131 MB across orders on the cold workloads), and a memory
    metric that moved with the seed could not bound a regression.
    """
    kind, sweeps, workers, prime, (scale, budget) = WORKLOADS[name]
    if tiny:
        scale, budget = "tiny", 4_000
    rng = random.Random(seed)

    def order(items):
        return list(items) if seed == 0 else _shuffled(items, rng)

    if kind == "characterize":
        workloads = TINY_WORKLOADS if tiny else VTUNE_WORKLOADS
    else:
        workloads = TINY_WORKLOADS if tiny else GEM5_WORKLOADS
    models = order if prime else list
    out = {"workload": name, "kind": kind, "scale": scale,
           "budget": budget, "workers": workers,
           "prime": models(workloads) if prime else []}
    if kind == "characterize":
        out["characterize"] = models(workloads)
    else:
        out["sweeps"] = [{"name": s, "workloads": models(workloads),
                          "values": order(SWEEPS[s])}
                         for s in order(sweeps)]
    return out


def cell_count(p):
    """Grid cells one run of plan *p* delivers (store hits included)."""
    if p["kind"] == "characterize":
        return len(p["characterize"])
    return sum(len(s["workloads"]) * len(s["values"]) for s in p["sweeps"])
