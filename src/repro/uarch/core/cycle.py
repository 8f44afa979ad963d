"""The cycle-accurate tier: out-of-order core driver.

``CycleCore`` builds one :class:`~repro.uarch.core.state.CoreState`
over the precomputed front-end streams (:mod:`.streams`) and hands the
cycle loop to a selectable execution backend (:mod:`.backends`):
``python`` — the golden-reference fused loop — or ``native`` — its
on-demand-compiled C transcription.  Both step the same state in the
same retire-to-fetch order (commit, issue, dispatch, fetch) and are
bit-identical to the seed simulator — verified against committed
golden fixtures for every gem5 workload and the sensitivity cells —
which is why the backend choice never appears in result-store keys.
"""

from __future__ import annotations

from ..stats import SimStats
from . import backends as cycle_backends
from .observers import HotspotSampler, TMASlotClassifier
from .state import CoreState
from .streams import get_streams

__all__ = ["CycleCore"]


class CycleCore:
    """An out-of-order core over one trace + config pair.

    The timing-independent I-side machinery outcomes are precomputed
    once per (trace, I-side fingerprint) by :func:`get_streams`; a
    config that pass cannot handle (e.g. an unknown branch predictor)
    raises from here.

    ``backend`` selects the cycle-loop implementation (default: the
    ``REPRO_CYCLE_BACKEND`` environment knob, then ``python``).  The
    compiled kernel folds the default observers into counters, so a
    run with custom observers routes to ``python`` with a one-line
    warning; ``self.backend`` names the implementation that actually
    runs.
    """

    def __init__(self, trace, config, max_cycles=None, warm=True,
                 observers=None, backend=None):
        self.config = config
        self.stats = SimStats(config.name, config.freq_ghz)
        self.stats.instructions = len(trace)
        self.stats.dispatch_width = config.dispatch_width
        if len(trace) == 0:
            self.state = None
        else:
            self.state = CoreState(trace, config, self.stats,
                                   get_streams(trace, config, warm=warm),
                                   max_cycles=max_cycles, warm=warm)
        self.observers = (list(observers) if observers is not None
                          else [TMASlotClassifier(), HotspotSampler()])
        requested = backend or cycle_backends.backend_from_env()
        self._backend, self.backend, self.backend_fallback = \
            cycle_backends.select_backend(requested, observers is None)

    def run(self):
        """Step the pipeline to completion; returns populated stats."""
        s = self.state
        if s is None:  # empty trace
            return self.stats
        dispatch_hooks = [ob.on_dispatch for ob in self.observers]
        cycle_end_hooks = [ob.on_cycle_end for ob in self.observers]
        self._backend.run(s, dispatch_hooks, cycle_end_hooks)
        if s.committed < s.n:
            raise RuntimeError(
                f"simulation did not finish: {s.committed}/{s.n} ops in "
                f"{s.cycle} cycles (deadlock or max_cycles too small)"
            )
        return self._finalize()

    def _finalize(self):
        s = self.state
        stats = self.stats
        stats.cycles = s.cycle
        stats.issued_by_kind = dict(s.issued_by_kind)
        stats.committed_by_kind = dict(s.committed_by_kind)
        hier = s.hier
        streams = s.streams
        # The run fetched the whole trace, so the precomputed I-side
        # totals are exactly what live ITLB/L1I/predictor objects would
        # have counted.
        stats.branches = streams.bp_lookups
        stats.branch_mispredicts = streams.bp_mispredicts
        stats.cache = {
            "l1i": {"accesses": streams.l1i_accesses,
                    "misses": streams.l1i_misses},
            "l1d": {"accesses": hier.l1d.accesses, "misses": hier.l1d.misses},
            "l2": {"accesses": hier.l2.accesses, "misses": hier.l2.misses},
        }
        if hier.l3 is not None:
            stats.cache["l3"] = {
                "accesses": hier.l3.accesses, "misses": hier.l3.misses,
            }
        stats.dram_accesses = hier.dram_accesses
        stats.dram_bytes = hier.dram_bytes
        if not self._backend.owns_observer_stats:
            for ob in self.observers:
                ob.finalize(s)
        return stats
