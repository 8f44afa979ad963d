"""The fast tier: a vectorized interval model of the OoO core.

Instead of stepping cycles, this tier makes one batched NumPy pass over
the trace:

* **caches / TLB** — reuse-gap analysis: for every access the distance
  (in stream positions) since the previous access to the same line or
  page approximates its LRU stack distance, so each level hits when the
  gap is below its (associativity-discounted) capacity.  ``warm=True``
  wraps first-touch gaps through a virtual warmup replica of the
  stream, mirroring the cycle tier's functional warmup; ``warm=False``
  makes first touches compulsory misses.  A next-line heuristic mirrors
  the L1I prefetcher.
* **branches** — per-static-branch outcome statistics (bias and
  direction transitions) scaled by a predictor-quality factor.
* **cycles** — an interval-style analytical estimate in the Karkhanis &
  Smith mold: a width-limited base term, a dependence-chain term (each
  op with a producer at distance ``d`` adds ``latency / d`` — exact for
  ``d`` interleaved chains), and additive penalty terms for mispredict
  recovery, front-end misses, MSHR-overlapped memory stalls, and PAUSE
  serialization.

The model is ~10-40x faster than the cycle tier and tracks its IPC
within ~15% on the gem5 workload set; use it to trade fidelity for
sweep-grid size.  All constants below were calibrated against the
cycle tier on the six gem5 workloads (budget 80k).
"""

from __future__ import annotations

import numpy as np

from ...trace.ops import (
    BRANCH, FP_ADD, FP_DIV, FP_MUL, INT_ALU, LOAD, PAUSE, STORE,
)
from ..branch import PREDICTORS
from ..stats import SimStats

__all__ = ["INTERVAL_IPC_ENVELOPE", "INTERVAL_VERSION", "simulate_interval"]

# Bump whenever the estimator or its calibration constants change:
# the version is folded into interval-tier store keys, so cached
# results from an older model can never be served for the new one.
INTERVAL_VERSION = 2

# Calibration envelope: measured worst-case relative IPC error of this
# tier against the cycle simulator on the gem5 grid (warm and cold).
INTERVAL_IPC_ENVELOPE = 0.15

_LINE_SHIFT = 6
_PAGE_SHIFT = 12
# Gaps at or above this are compulsory (never-seen) misses.
_COMPULSORY = np.iinfo(np.int64).max // 8

# ---------------------------------------------------------------------
# Calibrated constants (fit against the cycle tier, gem5 six, 80k ops).
# ---------------------------------------------------------------------
# Associativity/conflict discount on reuse-gap capacity thresholds.
_CAP_FACTOR = 1.0
# Capacity discount per foreign line installed every N accesses by the
# second simulated core (l2_interference_period).
_INTERFERENCE_DISCOUNT = 0.5
# Foreign-line installs only cause misses once the level is loaded:
# below the onset occupancy (footprint / capacity) they evict dead
# lines; above it, each install cascades into ~AMP x (ratio - onset)
# evictions of live lines (fit to the cycle tier's rj@256kB point).
_INTERFERENCE_ONSET = 0.3
_INTERFERENCE_AMP = 5.2
# Interference misses hit scattered, mostly-serialized reuses.
_INTERFERENCE_MLP = 1.4
# Weight of the dependence-chain bound relative to pure dataflow; the
# OoO window hides most producer latency, so the chain term only takes
# over for genuinely serial traces.
_CHAIN_WEIGHT = 0.15
# Fraction of a far (beyond-L2) miss's latency that escapes MSHR/ROB
# overlap.
_MEM_STALL_WEIGHT = 0.5
# Near misses (L1D miss, on-chip hit) are short enough that the OoO
# window hides them at a roughly constant overlap, independent of how
# densely they cluster — which also keeps the cycle estimate monotone
# under L1 capacity sweeps.
_NEAR_MLP = 15.0
# Mispredict recovery: redirect penalty plus mean resolution depth.
_BAD_SPEC_EXTRA = 4.0
# ROB drain cycles appended to each PAUSE's serialization window (the
# cycle tier measures 16 cycles per PAUSE at pause_latency=10).
_PAUSE_DRAIN = 6.0
# Fraction of an I-side miss's latency the decoupled fetch buffer
# hides.  Compulsory (cold) misses drain the buffer and hide nothing.
_FE_HIDE = 0.3
# MLP cap for compulsory misses: cold first-touch streams are demand
# chains, not bursts, so they overlap far less than capacity misses.
_COLD_MLP = 4.0
# Predictor-quality factor: mispredicts per unit of static-branch
# unpredictability (bias/flip-weighted); median of the cycle tier's
# measured ratio across the gem5 six, per predictor.
_PREDICTOR_QUALITY = {
    "local": 0.12,
    "tournament": 0.07,
    "perceptron": 0.08,
    "ltage": 0.05,
}


def _reuse_gaps(ids, warm):
    """Per-access reuse gap (stream positions since the previous access
    to the same id).  First occurrences wrap through a virtual warmup
    replica of the stream when ``warm``, else get an effectively
    infinite gap (compulsory miss)."""
    m = ids.size
    gaps = np.full(m, np.iinfo(np.int64).max // 4, dtype=np.int64)
    if m == 0:
        return gaps
    order = np.argsort(ids, kind="stable").astype(np.int64)
    xs = ids[order]
    same = xs[1:] == xs[:-1]
    gaps[order[1:][same]] = order[1:][same] - order[:-1][same]
    if warm:
        start = np.concatenate(([True], ~same))
        end = np.concatenate((~same, [True]))
        first_pos = order[start]
        last_pos = order[end]
        gaps[first_pos] = first_pos + (m - last_pos)
    return gaps


def _capacity_lines(cache_cfg, interference_period=0):
    """Effective reuse-gap threshold of one cache level, in lines."""
    lines = cache_cfg.size_kb * 1024 // cache_cfg.line
    cap = lines * _CAP_FACTOR
    if interference_period:
        # A foreign line every N accesses steals part of every set.
        cap *= 1.0 - _INTERFERENCE_DISCOUNT / max(interference_period, 1)
    return cap


def _branch_mispredicts(pcs, takens, predictor, warm):
    """Estimate mispredicts from per-static-branch outcome statistics."""
    if pcs.size == 0:
        return 0
    uniq, inv = np.unique(pcs, return_inverse=True)
    n_pc = np.bincount(inv)
    k_pc = np.bincount(inv, weights=takens).astype(np.int64)
    bias = np.minimum(k_pc, n_pc - k_pc)
    # Direction transitions per static branch: a counter-style
    # predictor pays ~1 mispredict per flip, capped by the bias count
    # (a perfectly alternating branch flips n times but mispredicts at
    # most ~n/2 once the pattern is phase-locked).
    order = np.argsort(inv, kind="stable")
    ts = takens[order]
    same_pc = inv[order][1:] == inv[order][:-1]
    flips_stream = same_pc & (ts[1:] != ts[:-1])
    flips = np.bincount(inv[order][1:][flips_stream],
                        minlength=uniq.size)
    unpredictability = np.minimum(np.maximum(bias, flips // 2), n_pc // 2)
    q = _PREDICTOR_QUALITY.get(predictor, 1.0)
    mis = q * float(unpredictability.sum())
    if not warm:
        mis += 0.5 * uniq.size  # cold predictor tables
    return int(round(mis))


def simulate_interval(trace, config, warm=True):
    """One vectorized pass; returns an approximate ``SimStats``."""
    if config.branch_predictor not in PREDICTORS:
        # Same contract as the cycle tier's make_predictor().
        raise KeyError(f"unknown branch predictor "
                       f"{config.branch_predictor!r}")
    n = len(trace)
    stats = SimStats(config.name, config.freq_ghz)
    stats.instructions = n
    stats.dispatch_width = config.dispatch_width
    if n == 0:
        return stats

    kind = trace.kind
    freq = config.freq_ghz
    l2_lat = config.l2.hit_latency_at(freq)
    l3_lat = (config.l3.hit_latency_at(freq)
              if config.l3 is not None else None)
    dram_lat = config.dram_latency_cycles

    # ------------------------------------------------ data-side caches
    # Each level's reuse gaps are measured on the miss stream of the
    # level above (the stream the level actually sees): an L1 miss is
    # roughly one distinct-line fetch, so gaps in that substream track
    # LRU stack distance far better than raw access counts do.
    is_mem = (kind == LOAD) | (kind == STORE)
    mem_idx = np.flatnonzero(is_mem)
    dlines = trace.addr[mem_idx] >> _LINE_SHIFT
    dgaps = _reuse_gaps(dlines, warm)
    l1d_cap = _capacity_lines(config.l1d)
    l2_cap = _capacity_lines(
        config.l2, getattr(config, "l2_interference_period", 0))
    l1d_miss = dgaps >= l1d_cap
    sub_pos = np.flatnonzero(l1d_miss)
    sub_gaps = _reuse_gaps(dlines[sub_pos], warm)
    l2_miss_d = np.zeros(dlines.size, dtype=bool)
    l2_miss_d[sub_pos] = sub_gaps >= l2_cap
    compulsory_d = np.zeros(dlines.size, dtype=bool)
    compulsory_d[sub_pos] = sub_gaps >= _COMPULSORY
    if config.l3 is not None:
        l3_cap = _capacity_lines(config.l3)
        sub3_pos = sub_pos[sub_gaps >= l2_cap]
        sub3_gaps = _reuse_gaps(dlines[sub3_pos], warm)
        l3_miss_d = np.zeros(dlines.size, dtype=bool)
        l3_miss_d[sub3_pos] = sub3_gaps >= l3_cap
    else:
        l3_miss_d = l2_miss_d

    # Per-memory-op latency from the level it hits.
    mem_lat = np.full(mem_idx.size, config.l1d.hit_latency, dtype=np.float64)
    mem_lat[l1d_miss] = l2_lat
    if config.l3 is not None:
        mem_lat[l2_miss_d] = l3_lat
        mem_lat[l3_miss_d] = dram_lat
    else:
        mem_lat[l2_miss_d] = dram_lat

    # ------------------------------------------- instruction-side path
    all_lines = trace.pc >> _LINE_SHIFT
    new_line = np.empty(n, dtype=bool)
    new_line[0] = True
    np.not_equal(all_lines[1:], all_lines[:-1], out=new_line[1:])
    iidx = np.flatnonzero(new_line)
    ilines = all_lines[iidx]
    igaps = _reuse_gaps(ilines, warm)
    l1i_cap = _capacity_lines(config.l1i)
    l1i_miss = igaps >= l1i_cap
    # Next-line prefetcher: sequential new lines are covered.
    seq = np.empty(ilines.size, dtype=bool)
    seq[0] = False
    np.equal(ilines[1:], ilines[:-1] + 1, out=seq[1:])
    l1i_miss &= ~seq
    isub_pos = np.flatnonzero(l1i_miss)
    isub_gaps = _reuse_gaps(ilines[isub_pos], warm)
    l2_miss_i = np.zeros(ilines.size, dtype=bool)
    l2_miss_i[isub_pos] = isub_gaps >= l2_cap
    if config.l3 is not None:
        isub3_pos = isub_pos[isub_gaps >= l2_cap]
        isub3_gaps = _reuse_gaps(ilines[isub3_pos], warm)
        l3_miss_i = np.zeros(ilines.size, dtype=bool)
        l3_miss_i[isub3_pos] = isub3_gaps >= l3_cap
    else:
        l3_miss_i = l2_miss_i
    ilat = np.zeros(ilines.size, dtype=np.float64)
    ilat[l1i_miss] = l2_lat
    if config.l3 is not None:
        ilat[l2_miss_i] = l3_lat
        ilat[l3_miss_i] = dram_lat
    else:
        ilat[l2_miss_i] = dram_lat

    # ITLB on the page-transition stream.
    pages = trace.pc[iidx] >> _PAGE_SHIFT
    new_page = np.empty(pages.size, dtype=bool)
    new_page[0] = True
    np.not_equal(pages[1:], pages[:-1], out=new_page[1:])
    pstream = pages[new_page]
    pgaps = _reuse_gaps(pstream, warm)
    itlb_miss = int(np.count_nonzero(pgaps >= config.itlb_entries))
    itlb_penalty = max(
        int(round(config.itlb_miss_penalty_ns * freq)), 1)

    # Shared-L2 interference from the second simulated core: misses
    # the capacity model cannot see, scaled by how loaded the L2 is.
    interference = getattr(config, "l2_interference_period", 0)
    noise_misses = 0
    if interference:
        n_l2_acc = (int(np.count_nonzero(l1d_miss))
                    + int(np.count_nonzero(l1i_miss)))
        footprint = (np.unique(dlines[l1d_miss]).size
                     + np.unique(ilines[l1i_miss]).size)
        amp = max(0.0, footprint / l2_cap - _INTERFERENCE_ONSET) \
            * _INTERFERENCE_AMP
        noise_misses = int(round(n_l2_acc / interference * amp))

    # ------------------------------------------------------- branches
    is_branch = kind == BRANCH
    bidx = np.flatnonzero(is_branch)
    branches = int(bidx.size)
    mispredicts = _branch_mispredicts(
        trace.pc[bidx], trace.taken[bidx].astype(np.int64),
        config.branch_predictor, warm)
    mispredicts = min(mispredicts, branches)

    # --------------------------------------------- per-op latency map
    # int_latency is the default: it covers INT_ALU and (as in the
    # cycle tier's lat_table) BRANCH; every other kind overrides it.
    lat = np.full(n, float(config.int_latency))
    lat[kind == FP_ADD] = config.fp_add_latency
    lat[kind == FP_MUL] = config.fp_mul_latency
    lat[kind == FP_DIV] = config.fp_div_latency
    lat[kind == PAUSE] = config.pause_latency
    lat[mem_idx[kind[mem_idx] == STORE]] = 1.0
    loads_mask = kind[mem_idx] == LOAD
    lat[mem_idx[loads_mask]] = mem_lat[loads_mask]

    # Dependence-chain bound: an op with a producer at distance d adds
    # lat/d (exact for d interleaved chains of equal work).
    dep1 = trace.dep1
    dep2 = trace.dep2
    both = (dep1 > 0) & (dep2 > 0)
    d_eff = np.where(both, np.minimum(dep1, dep2),
                     np.maximum(dep1, dep2)).astype(np.float64)
    has_dep = d_eff > 0
    chain_cycles = float((lat[has_dep] / d_eff[has_dep]).sum())

    # Memory stall: miss latencies discounted by the memory-level
    # parallelism available inside the ROB (capped by L1D MSHRs).
    load_miss = loads_mask & l1d_miss
    far_miss = load_miss & l2_miss_d
    near_count = int(np.count_nonzero(load_miss & ~l2_miss_d))
    mem_stall = (_MEM_STALL_WEIGHT * (l2_lat - config.l1d.hit_latency)
                 * near_count / _NEAR_MLP)
    far_pos = mem_idx[far_miss]
    if far_pos.size:
        far_lat = lat[far_pos] - config.l1d.hit_latency
        lo = np.searchsorted(far_pos, far_pos - config.rob_entries, "left")
        hi = np.searchsorted(far_pos, far_pos + config.rob_entries,
                             "right")
        mlp = np.clip(hi - lo, 1, config.l1d.mshrs).astype(np.float64)
        cold = compulsory_d[far_miss]
        np.minimum(mlp, _COLD_MLP, where=cold, out=mlp)
        mem_stall += _MEM_STALL_WEIGHT * float((far_lat / mlp).sum())
    if noise_misses:
        noise_lat = (l3_lat if l3_lat is not None else dram_lat) - l2_lat
        mem_stall += (_MEM_STALL_WEIGHT * noise_misses * noise_lat
                      / _INTERFERENCE_MLP)

    # ------------------------------------------------- cycle estimate
    width_eff = min(config.fetch_width, config.dispatch_width,
                    config.issue_width, config.commit_width)
    base = n / width_eff
    chain = _CHAIN_WEIGHT * chain_cycles
    bad_spec = mispredicts * (config.mispredict_penalty + _BAD_SPEC_EXTRA)
    cold_i = igaps >= _COMPULSORY
    fe_stall = ((1.0 - _FE_HIDE) * (float(ilat[~cold_i].sum())
                                    + itlb_miss * itlb_penalty)
                + float(ilat[cold_i].sum()))
    pause_count = int(trace.kind_histogram()[PAUSE])
    serialize = pause_count * (config.pause_latency + _PAUSE_DRAIN)
    cycles = max(base, chain) + bad_spec + fe_stall + mem_stall + serialize
    cycles = int(round(max(cycles, base + 1)))
    stats.cycles = cycles

    # ------------------------------------------------ stats assembly
    counts = trace.kind_histogram()
    by_kind = {
        "int": int(counts[INT_ALU]),
        "fp": int(counts[FP_ADD] + counts[FP_MUL] + counts[FP_DIV]),
        "load": int(counts[LOAD]),
        "store": int(counts[STORE]),
        "branch": int(counts[BRANCH]),
        "pause": int(counts[PAUSE]),
    }
    stats.issued_by_kind = dict(by_kind)
    stats.committed_by_kind = dict(by_kind)
    stats.branches = branches
    stats.branch_mispredicts = mispredicts
    stats.pause_ops = pause_count
    stats.serialize_stall_cycles = int(round(serialize))

    # Slot accounting: retiring is exact; stall components are scaled
    # so the TMA identity (sum == dispatch_width * cycles) holds.
    total_slots = stats.dispatch_width * cycles
    stall_slots = max(total_slots - n, 0)
    raw = {
        "bad_spec": bad_spec,
        "fe_latency": fe_stall,
        "fe_bandwidth": 0.15 * base,  # taken-branch / fill limits
        "be_memory": mem_stall + 0.5 * max(chain - base, 0.0),
        "be_core": serialize + 0.5 * max(chain - base, 0.0),
    }
    raw_total = sum(raw.values()) or 1.0
    scale = stall_slots / raw_total
    stats.slots_retiring = n
    stats.slots_bad_spec = int(round(raw["bad_spec"] * scale))
    stats.slots_fe_latency = int(round(raw["fe_latency"] * scale))
    stats.slots_fe_bandwidth = int(round(raw["fe_bandwidth"] * scale))
    stats.slots_be_memory = int(round(raw["be_memory"] * scale))
    stats.slots_be_core = (stall_slots - stats.slots_bad_spec
                           - stats.slots_fe_latency
                           - stats.slots_fe_bandwidth
                           - stats.slots_be_memory)

    # Fetch-stage profile (Fig. 7a analog).
    active = min(int(np.ceil(n / config.fetch_width)), cycles)
    icache_cycles = int(round((1.0 - _FE_HIDE) * float(ilat.sum())))
    tlb_cycles = int(round((1.0 - _FE_HIDE) * itlb_miss * itlb_penalty))
    squash = int(round(bad_spec))
    used = active + icache_cycles + tlb_cycles + squash
    if used > cycles:
        over = used / cycles
        active = int(active / over)
        icache_cycles = int(icache_cycles / over)
        tlb_cycles = int(tlb_cycles / over)
        squash = int(squash / over)
        used = active + icache_cycles + tlb_cycles + squash
    stats.fetch_active_cycles = active
    stats.fetch_icache_stall_cycles = icache_cycles
    stats.fetch_tlb_cycles = tlb_cycles
    stats.fetch_squash_cycles = squash
    stats.fetch_misc_stall_cycles = cycles - used

    # Cache counters mirror the cycle tier's access points: L1I once
    # per line transition, L1D once per memory op, L2 on L1 misses.
    l1i_misses = int(np.count_nonzero(l1i_miss))
    l1d_misses = int(np.count_nonzero(l1d_miss))
    l2_accesses = l1i_misses + l1d_misses
    l2_misses = (int(np.count_nonzero(l2_miss_i))
                 + int(np.count_nonzero(l2_miss_d & l1d_miss))
                 + noise_misses)
    stats.cache = {
        "l1i": {"accesses": int(iidx.size), "misses": l1i_misses},
        "l1d": {"accesses": int(mem_idx.size), "misses": l1d_misses},
        "l2": {"accesses": l2_accesses, "misses": l2_misses},
    }
    if config.l3 is not None:
        l3_misses = (int(np.count_nonzero(l3_miss_i))
                     + int(np.count_nonzero(l3_miss_d & l1d_miss)))
        stats.cache["l3"] = {"accesses": l2_misses, "misses": l3_misses}
        final_misses = l3_misses
    else:
        final_misses = l2_misses
    stats.dram_accesses = final_misses
    stats.dram_bytes = final_misses * config.l1d.line

    # Hotspots: distribute clockticks by per-function latency mass.
    func = trace.func.astype(np.int64)
    weights = np.bincount(func, weights=lat)
    nz = np.flatnonzero(weights)
    share = weights[nz] / weights[nz].sum()
    ticks = np.floor(share * cycles).astype(np.int64)
    stats.func_clockticks = {
        int(f): int(t) for f, t in zip(nz, ticks) if t > 0
    }
    return stats
