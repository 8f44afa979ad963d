"""Shared golden-fixture state for the simulator test modules.

A plain helper module (not a conftest: the benchmark harness already
owns the bare ``conftest`` import name) with process-wide memoization —
the six default-scale gem5 traces are built once no matter how many
test modules use them.
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_golden = None
_matrix = None
_traces = None


def _cell(preset, workload, mode, **overrides):
    return (preset, overrides, workload, mode == "warm")


#: The cycle-tier sensitivity cells pinned by ``cycle_matrix.json``:
#: cell id -> (config preset, preset overrides, workload, warm).  Each
#: runs on the :func:`gem5_traces` grid and covers machinery the
#: gem5-baseline seed fixtures do not: the L3 + LTAGE host, every
#: registered branch predictor, heavy L2 interference, and the
#: frequency-scaled ITLB penalty.
CYCLE_CELLS = {
    **{f"host_i9-{w}-{m}": _cell("host_i9", w, m)
       for w in ("ar", "ma") for m in ("warm", "cold")},
    **{f"bp_{bp}-{w}-warm": _cell("gem5_baseline", w, "warm",
                                  branch_predictor=bp)
       for bp in ("local", "perceptron", "tournament", "ltage")
       for w in ("ar", "tu")},
    "l2_interference_7-tu-warm": _cell("gem5_baseline", "tu", "warm",
                                       l2_interference_period=7),
    **{f"freq_{f}-ar-warm": _cell("gem5_baseline", "ar", "warm",
                                  freq_ghz=f)
       for f in (2.0, 4.0)},
}


def cell_config(cell):
    """The ``CoreConfig`` of a :data:`CYCLE_CELLS` entry."""
    from repro import uarch

    preset, overrides, _, _ = CYCLE_CELLS[cell]
    return getattr(uarch, preset)(**overrides)


def _int_clockticks(stats):
    # JSON round-trips func_clockticks keys as strings.
    stats["func_clockticks"] = {
        int(k): v for k, v in stats["func_clockticks"].items()
    }
    return stats


def gem5_golden():
    """Committed seed-simulator SimStats for the six gem5 workloads."""
    global _golden
    if _golden is None:
        with open(os.path.join(GOLDEN_DIR, "gem5_simstats.json")) as fh:
            fixtures = json.load(fh)
        for fx in fixtures.values():
            for mode in fx.values():
                _int_clockticks(mode)
        _golden = fixtures
    return _golden


def cycle_matrix():
    """Committed cycle-tier SimStats per :data:`CYCLE_CELLS` entry."""
    global _matrix
    if _matrix is None:
        with open(os.path.join(GOLDEN_DIR, "cycle_matrix.json")) as fh:
            fixtures = json.load(fh)
        fixtures.pop("comment")
        _matrix = {cell: _int_clockticks(st)
                   for cell, st in fixtures.items()}
    return _matrix


def gem5_traces():
    """One default-scale, 80k-budget trace per gem5 workload (the grid
    the golden fixtures were recorded on), built once per process."""
    global _traces
    if _traces is None:
        from repro.core.runner import Runner

        runner = Runner(use_disk_cache=False)
        _traces = {
            w: runner.trace_for(w, "default", 80_000)[0]
            for w in gem5_golden()
        }
    return _traces
