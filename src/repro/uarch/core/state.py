"""Shared core state of one cycle-tier simulation.

``CoreState`` is the single mutable object a cycle backend steps: the
decoded trace (plain Python lists — the cycle loop's hot path), the
microarchitectural structures (ROB, IQ, fetch buffer, LSQ occupancy),
the live memory hierarchy plus the precomputed front-end streams that
stand in for the I-side machinery, and the per-cycle fields the loop
publishes for observers (``dispatched``, ``block_reason``,
``fetched``).

Keeping every field on one ``__slots__`` object is what lets a backend
hand observers, and the caller after the run, exactly the state the
reference loop leaves.
"""

from __future__ import annotations

from collections import deque

from ...trace.ops import BRANCH, FP_ADD, FP_DIV, FP_MUL, INT_ALU
from ..hierarchy import MemoryHierarchy

# Execution-unit class per kind code, indexable by the (dense, small)
# kind constants — a C-speed list lookup on the issue/commit hot path.
KIND_KEY_LIST = ["int", "fp", "fp", "fp", "load", "store", "branch",
                 "pause"]

__all__ = ["CoreState", "KIND_KEY_LIST"]


class CoreState:
    """Every mutable datum of one in-flight simulation."""

    __slots__ = (
        # decoded trace (lists: ~2x faster element access than ndarrays)
        "n", "kinds", "addrs", "pcs", "dep1s", "dep2s", "funcs",
        # configuration and derived constants (hoisted off `config`:
        # per-op attribute chains are measurable at this loop's scale)
        "config", "lat_table", "l1d_hit_lat", "mshrs", "window", "width",
        "limit", "fbuf_cap", "rob_cap", "iq_cap", "lq_cap", "sq_cap",
        "fetch_width", "issue_width", "commit_width",
        "mispredict_penalty", "pause_latency", "itlb_penalty",
        # live memory hierarchy + precomputed I-side outcomes
        "hier", "streams",
        # microarchitectural structures
        "completion", "ready_after", "rob", "iq", "fbuf", "iq_branches",
        "fetch_idx", "committed", "lq_used", "sq_used", "cycle",
        "last_fetch_line", "fetch_stall_until", "fetch_stall_kind",
        "redirect_branch", "serialize_until", "outstanding_misses",
        # per-cycle fields published for observers
        "dispatched", "block_reason", "fetched",
        # per-kind issue/retire counters
        "issued_by_kind", "committed_by_kind",
        # the stats object the loop and observers write into
        "stats",
    )

    def __init__(self, trace, config, stats, streams, max_cycles=None,
                 warm=True):
        n = len(trace)
        self.n = n
        self.kinds = trace.kind.tolist()
        self.addrs = trace.addr.tolist()
        self.pcs = trace.pc.tolist()
        self.dep1s = trace.dep1.tolist()
        self.dep2s = trace.dep2.tolist()
        self.funcs = trace.func.tolist()

        self.config = config
        self.stats = stats
        self.streams = streams

        # L1I/ITLB/predictor outcomes are precomputed per op, so only
        # the shared hierarchy is live; warm state is restored from
        # snapshots + an L2 replay.
        self.hier = MemoryHierarchy(config)
        if warm:
            streams.apply_warm(self.hier)

        self.rob_cap = config.rob_entries
        self.iq_cap = config.iq_entries
        self.lq_cap = config.lq_entries
        self.sq_cap = config.sq_entries
        self.fetch_width = config.fetch_width
        self.issue_width = config.issue_width
        self.commit_width = config.commit_width
        self.mispredict_penalty = config.mispredict_penalty
        self.pause_latency = config.pause_latency
        self.itlb_penalty = max(
            int(round(config.itlb_miss_penalty_ns * config.freq_ghz)), 1)
        self.lat_table = {
            INT_ALU: config.int_latency,
            FP_ADD: config.fp_add_latency,
            FP_MUL: config.fp_mul_latency,
            FP_DIV: config.fp_div_latency,
            BRANCH: config.int_latency,
        }
        self.l1d_hit_lat = config.l1d.hit_latency
        self.mshrs = config.l1d.mshrs
        self.window = config.scheduler_window
        self.width = config.dispatch_width
        self.limit = (max_cycles if max_cycles is not None
                      else 400 * n + 10_000)
        self.fbuf_cap = 8 * config.fetch_width  # decoupled front end

        self.completion = [-1] * n  # -1 = not issued yet
        self.ready_after = [0] * n  # issue-scan skip bound (see _run_fused)
        self.rob = deque()
        self.iq = []
        self.iq_branches = 0  # branches currently in the IQ
        self.fbuf = deque()

        self.fetch_idx = 0
        self.committed = 0
        self.lq_used = 0
        self.sq_used = 0
        self.cycle = 0
        self.last_fetch_line = -1
        self.fetch_stall_until = 0
        self.fetch_stall_kind = None  # "icache" | "tlb"
        self.redirect_branch = -1     # index of unresolved mispredicted br
        self.serialize_until = 0
        self.outstanding_misses = []  # completion cycles of L1D misses

        self.dispatched = 0
        self.block_reason = None
        self.fetched = 0

        zero = {"int": 0, "fp": 0, "load": 0, "store": 0, "branch": 0,
                "pause": 0}
        self.issued_by_kind = dict(zero)
        self.committed_by_kind = dict(zero)
