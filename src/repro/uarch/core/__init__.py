"""Out-of-order core model with selectable fidelity tiers.

Two tiers share one entry point:

* ``model="cycle"`` — the cycle-accurate pipeline (:class:`CycleCore`):
  commit, issue, dispatch and fetch stepped each cycle over a shared
  :class:`CoreState` by an execution backend — the reference Python
  loop or its compiled C transcription (:mod:`.backends`) — with TMA
  slot accounting and hotspot sampling as pluggable :class:`Observer`
  instances.  Bit-identical to the pre-split monolithic simulator.
* ``model="interval"`` — a vectorized interval model
  (:func:`simulate_interval`): batched cache/TLB/branch estimation
  over NumPy arrays plus an analytical cycle estimate.  Roughly an
  order of magnitude faster; use it to trade fidelity for sweep-grid
  size.
"""

from __future__ import annotations

from .cycle import CycleCore
from .interval import INTERVAL_VERSION, simulate_interval
from .observers import HotspotSampler, Observer, TMASlotClassifier
from .state import CoreState

__all__ = [
    "CoreState",
    "CycleCore",
    "HotspotSampler",
    "MODELS",
    "Observer",
    "TMASlotClassifier",
    "simulate",
    "simulate_interval",
]

MODELS = ("cycle", "interval")

# Store-key version per fidelity tier.  The cycle tier is pinned by
# golden-fixture bit-parity, so its keys never change; approximate
# tiers version their keys so recalibration invalidates old caches.
MODEL_VERSIONS = {"cycle": 0, "interval": INTERVAL_VERSION}


def simulate(trace, config, max_cycles=None, warm=True, model="cycle",
             observers=None, backend=None):
    """Run ``trace`` through a core configured by ``config``.

    ``model`` selects the fidelity tier: ``"cycle"`` (default) steps
    the pipeline cycle by cycle; ``"interval"`` runs the
    vectorized analytical model (``max_cycles`` and ``observers`` do
    not apply).  ``warm=True`` performs a functional warmup pass first
    so counters reflect steady-state behavior rather than cold-start
    compulsory misses.  ``backend`` picks the cycle-loop execution
    backend (default: ``REPRO_CYCLE_BACKEND``, then ``python``); both
    backends are bit-identical, so results are backend-independent.
    Returns a fully populated :class:`~repro.uarch.stats.SimStats`.
    """
    from ... import telemetry

    if model == "interval":
        with telemetry.span("simulate:interval"):
            return simulate_interval(trace, config, warm=warm)
    if model != "cycle":
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{MODELS}")
    with telemetry.span("simulate:cycle") as sp:
        core = CycleCore(trace, config, max_cycles=max_cycles, warm=warm,
                         observers=observers, backend=backend)
        if sp is not None:
            sp.attrs["backend"] = core.backend
        telemetry.counter(
            "repro_cycle_backend_runs_total",
            help="Cycle-tier runs by execution backend.",
            backend=core.backend).inc()
        return core.run()
