"""The ``python`` cycle backend: the golden-reference fused loop.

:func:`_run_fused` is the cycle tier's one readable statement of the
per-op state transition: commit, issue, dispatch and fetch, in that
retire-to-fetch order, written as a single flat loop because at ~40k
cycles per job per-stage calls and attribute loads would be a
double-digit share of runtime.  Fetch consumes the precomputed
front-end streams of :mod:`..streams`.  The committed golden fixtures
pin it bit for bit against the seed simulator, and the ``native``
kernel (``_cycle_kernel.c``) is a line-for-line C transcription of it.

Observer-visible fields (cycle, dispatched, block_reason, fetch state)
are published to the ``CoreState`` before each hook point, and all
mutated registers are written back on exit — normal or exceptional —
so callers see the state the loop leaves.
"""

from __future__ import annotations

from ....trace.ops import BRANCH, LOAD, PAUSE, STORE
from ..state import KIND_KEY_LIST

__all__ = ["PythonBackend", "_run_fused"]


def _run_fused(s, dispatch_hooks, cycle_end_hooks):
    """One flat cycle loop for the stream-backed path."""
    kinds = s.kinds
    addrs = s.addrs
    pcs = s.pcs
    dep1s = s.dep1s
    dep2s = s.dep2s
    completion = s.completion
    ready_after = s.ready_after
    rob = s.rob
    iq = s.iq
    fbuf = s.fbuf
    lat_table = s.lat_table
    issued_counts = s.issued_by_kind
    committed_counts = s.committed_by_kind
    kind_keys = KIND_KEY_LIST
    access_data = s.hier.access_data
    inst_miss_walk = s.hier.inst_miss_walk
    st = s.streams
    itlb_miss = st.itlb_miss
    l1i_hit = st.l1i_hit
    pf_l2 = st.pf_l2
    bp_wrong = st.bp_wrong
    itlb_penalty = s.itlb_penalty
    stats = s.stats
    window = s.window
    width = s.width
    rob_cap = s.rob_cap
    iq_cap = s.iq_cap
    lq_cap = s.lq_cap
    sq_cap = s.sq_cap
    fetch_width = s.fetch_width
    issue_width = s.issue_width
    commit_width = s.commit_width
    mispredict_penalty = s.mispredict_penalty
    pause_latency = s.pause_latency
    l1d_hit_lat = s.l1d_hit_lat
    mshrs = s.mshrs
    fbuf_cap = s.fbuf_cap
    n = s.n
    limit = s.limit
    branch_lat = lat_table[BRANCH]
    rob_popleft = rob.popleft
    rob_append = rob.append
    fbuf_append = fbuf.append
    fbuf_popleft = fbuf.popleft
    iq_append = iq.append
    iq_pop = iq.pop

    cycle = s.cycle
    committed = s.committed
    fetch_idx = s.fetch_idx
    lq_used = s.lq_used
    sq_used = s.sq_used
    serialize_until = s.serialize_until
    last_fetch_line = s.last_fetch_line
    fetch_stall_until = s.fetch_stall_until
    fetch_stall_kind = s.fetch_stall_kind
    redirect_branch = s.redirect_branch
    iq_branches = s.iq_branches
    outstanding = s.outstanding_misses
    try:
        while committed < n and cycle < limit:
            # ---- commit ----
            # Per-kind retirement is tallied here, where an op actually
            # leaves the machine, not copied from dispatch-time counts.
            if rob:
                c = 0
                while rob and c < commit_width:
                    head = rob[0]
                    t = completion[head]
                    if t < 0 or t > cycle:
                        break
                    rob_popleft()
                    committed += 1
                    c += 1
                    k = kinds[head]
                    if k == LOAD:
                        lq_used -= 1
                    elif k == STORE:
                        sq_used -= 1
                    committed_counts[kind_keys[k]] += 1
            # ---- issue ----
            if outstanding:
                outstanding = [t for t in outstanding if t > cycle]
            issued = 0
            iq_len = len(iq)
            # Branches resolve early: real cores prioritize branch
            # resolution to cut recovery time, so ready branches in the
            # window issue first, on two resolution ports.  The scan can
            # only do anything when the window holds a branch, so an
            # exact occupancy count gates it.
            if iq_branches:
                i = 0
                while i < iq_len and i < window:
                    idx = iq[i]
                    if kinds[idx] == BRANCH:
                        d1 = dep1s[idx]
                        t = completion[idx - d1] if d1 else 0
                        if 0 <= t <= cycle:
                            completion[idx] = cycle + branch_lat
                            iq_pop(i)
                            iq_len -= 1
                            issued += 1
                            issued_counts["branch"] += 1
                            iq_branches -= 1
                            if issued >= 2:  # branch-resolution ports
                                break
                            continue
                    i += 1
            i = 0
            while issued < issue_width and i < iq_len and i < window:
                idx = iq[i]
                # Completion times are write-once, so an op whose operand
                # was seen completing at cycle t cannot become ready
                # earlier: skip its dependency re-checks until then.  The
                # scan still walks (and counts) the op, so issue order is
                # untouched.
                if ready_after[idx] > cycle:
                    i += 1
                    continue
                d1 = dep1s[idx]
                ready = True
                if d1:
                    t = completion[idx - d1]
                    if t < 0 or t > cycle:
                        ready = False
                        if t > 0:
                            ready_after[idx] = t
                if ready:
                    d2 = dep2s[idx]
                    if d2:
                        t = completion[idx - d2]
                        if t < 0 or t > cycle:
                            ready = False
                            if t > 0:
                                ready_after[idx] = t
                k = kinds[idx]
                # Loads are gated by L1D MSHR occupancy, so a burst of
                # misses throttles further memory issue.
                if ready and k == LOAD and len(outstanding) >= mshrs:
                    ready = False
                if ready:
                    if k == LOAD:
                        lat = access_data(addrs[idx])
                        if lat > l1d_hit_lat:
                            outstanding.append(cycle + lat)
                    elif k == STORE:
                        access_data(addrs[idx])
                        lat = 1
                    elif k == PAUSE:
                        lat = pause_latency
                    else:
                        lat = lat_table[k]
                        if k == BRANCH:
                            iq_branches -= 1
                    completion[idx] = cycle + lat
                    iq_pop(i)
                    iq_len -= 1
                    issued += 1
                    issued_counts[kind_keys[k]] += 1
                else:
                    i += 1
            # ---- dispatch ----
            # In-order ROB/IQ insertion under ROB/IQ/LQ/SQ limits; a
            # PAUSE drains the ROB and then blocks dispatch for
            # pause_latency cycles.  block_reason records the first
            # resource that stopped a partial dispatch, for the TMA
            # slot classifier.
            dispatched = 0
            block_reason = None
            while dispatched < width:
                if not fbuf:
                    block_reason = "frontend"
                    break
                if cycle < serialize_until:
                    block_reason = "serialize"
                    break
                idx = fbuf[0]
                k = kinds[idx]
                if k == PAUSE and rob:
                    block_reason = "serialize"
                    break
                if len(rob) >= rob_cap:
                    block_reason = "rob"
                    break
                if len(iq) >= iq_cap:
                    block_reason = "iq"
                    break
                if k == LOAD and lq_used >= lq_cap:
                    block_reason = "lq"
                    break
                if k == STORE and sq_used >= sq_cap:
                    block_reason = "sq"
                    break
                fbuf_popleft()
                rob_append(idx)
                iq_append(idx)
                if k == LOAD:
                    lq_used += 1
                elif k == STORE:
                    sq_used += 1
                elif k == PAUSE:
                    serialize_until = cycle + pause_latency
                    stats.pause_ops += 1
                elif k == BRANCH:
                    iq_branches += 1
                dispatched += 1
            if dispatch_hooks:
                s.cycle = cycle
                s.dispatched = dispatched
                s.block_reason = block_reason
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in dispatch_hooks:
                    hook(s)
            # ---- fetch ----
            # Stream lookups replace the ITLB/L1I/predictor calls; only
            # an L1I miss still walks the live hierarchy
            # (inst_miss_walk), so the shared L2/L3 see the access
            # sequence per-op machinery would produce.
            fetched = 0
            squash_pending = redirect_branch >= 0
            if squash_pending:
                t = completion[redirect_branch]
                if 0 <= t and cycle >= t + mispredict_penalty:
                    redirect_branch = -1
                    squash_pending = False
            if not squash_pending and cycle >= fetch_stall_until:
                fetch_stall_kind = None
                while (fetched < fetch_width and fetch_idx < n
                       and len(fbuf) < fbuf_cap):
                    idx = fetch_idx
                    pc = pcs[idx]
                    line = pc >> 6
                    if line != last_fetch_line:
                        tlb_lat = itlb_penalty if itlb_miss[idx] else 0
                        ic_lat = (0 if l1i_hit[idx]
                                  else inst_miss_walk(pc, pf_l2[idx]))
                        last_fetch_line = line
                        if tlb_lat or ic_lat:
                            fetch_stall_until = cycle + tlb_lat + ic_lat
                            fetch_stall_kind = (
                                "tlb" if tlb_lat >= ic_lat else "icache"
                            )
                            break
                    k = kinds[idx]
                    if k == BRANCH:
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
                        if bp_wrong[idx]:
                            redirect_branch = idx
                            break
                        # Correctly predicted taken branches redirect
                        # within the cycle (BTB hit); fetch continues at
                        # the target, whose line is checked next op.
                    else:
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
            # Fetch-stage cycle classification (Fig. 7a).
            if fetched > 0:
                stats.fetch_active_cycles += 1
            elif redirect_branch >= 0:
                stats.fetch_squash_cycles += 1
            elif fetch_stall_kind == "icache":
                stats.fetch_icache_stall_cycles += 1
            elif fetch_stall_kind == "tlb":
                stats.fetch_tlb_cycles += 1
            else:
                stats.fetch_misc_stall_cycles += 1
            if cycle_end_hooks:
                s.fetched = fetched
                s.fetch_idx = fetch_idx
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in cycle_end_hooks:
                    hook(s)
            cycle += 1
    finally:
        s.cycle = cycle
        s.committed = committed
        s.fetch_idx = fetch_idx
        s.lq_used = lq_used
        s.sq_used = sq_used
        s.serialize_until = serialize_until
        s.last_fetch_line = last_fetch_line
        s.fetch_stall_until = fetch_stall_until
        s.fetch_stall_kind = fetch_stall_kind
        s.redirect_branch = redirect_branch
        s.iq_branches = iq_branches
        s.outstanding_misses = outstanding


class PythonBackend:
    """The reference backend: the interpreted fused loop."""

    name = "python"
    # The reference loop drives observer hooks itself; observer
    # finalization stays with CycleCore.
    owns_observer_stats = False

    @staticmethod
    def available():
        return True

    @staticmethod
    def supports(default_observers):
        return True, None

    run = staticmethod(_run_fused)


from . import register  # noqa: E402

register(PythonBackend())
