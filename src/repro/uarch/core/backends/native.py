"""The ``native`` cycle backend: the fused loop compiled as C.

``_cycle_kernel.c`` is a line-for-line transcription of the reference
fused stream loop (``python_ref._run_fused``) over a contiguous-range
state representation — the ROB is ``[committed, disp_next)`` and the
fetch buffer ``[disp_next, fetch_idx)`` — with the default observers
(TMA slot classification, hotspot clockticks) folded into plain
counters.  It is compiled on demand with whatever C compiler the host
already has (``cc``/``gcc``/``clang`` — no build-time dependency) into
a content-addressed shared object under a small on-disk cache, and
loaded through :mod:`ctypes`.

The memory machinery stays in Python: the kernel calls back into the
live :class:`~repro.uarch.hierarchy.MemoryHierarchy` for every
load/store (``access_data``) and every L1I-miss line walk
(``inst_miss_walk``), so cache/LRU/DRAM state evolves under the very
same code the reference runs — the D-side and shared levels are
bit-exact by construction, not by reimplementation.  Only the pipeline
arithmetic (commit/issue/dispatch/fetch bookkeeping) crosses into C.

Hosts without a working toolchain simply never have this backend
available; selection falls back to ``python`` with a one-line warning
(see :func:`..select_backend`), as does a run with custom observers,
which need the reference loop's per-cycle hook points.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import deque
from ctypes import c_longlong, c_void_p

from ....env import env_dir
from ....trace.ops import BRANCH, LOAD, PAUSE, STORE
from ..state import KIND_KEY_LIST

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a core dependency
    np = None

__all__ = ["NativeBackend"]

_KERNEL_SRC = os.path.join(os.path.dirname(__file__), "_cycle_kernel.c")
_NKINDS = len(KIND_KEY_LIST)

# Kernel codes for the fetch-stall kind and the dispatch block reason;
# index = code.
_FS_NAMES = (None, "icache", "tlb")
_BLOCK_NAMES = (None, "frontend", "serialize", "rob", "iq", "lq", "sq")

# Params-array layout; must match the enum in _cycle_kernel.c.
(P_N, P_LIMIT, P_WINDOW, P_WIDTH,
 P_ROB_CAP, P_IQ_CAP, P_LQ_CAP, P_SQ_CAP,
 P_FETCH_W, P_ISSUE_W, P_COMMIT_W,
 P_MISP_PEN, P_PAUSE_LAT, P_ITLB_PEN,
 P_L1D_HIT, P_MSHRS, P_FBUF_CAP,
 P_KLOAD, P_KSTORE, P_KPAUSE, P_KBRANCH,
 P_CYCLE, P_COMMITTED, P_FETCH_IDX, P_LQ_USED, P_SQ_USED,
 P_SER_UNTIL, P_LAST_LINE, P_FSTALL_UNTIL,
 P_FS_KIND, P_REDIRECT,
 P_SL_RET, P_SL_BAD, P_SL_FEL, P_SL_FEB, P_SL_MEM, P_SL_CORE,
 P_SER_STALL, P_PAUSE_OPS,
 P_F_ACTIVE, P_F_SQUASH, P_F_ICACHE, P_F_TLB, P_F_MISC,
 P_DISP_NEXT, P_IQ_LEN, P_IQ_BRANCHES,
 P_DISPATCHED, P_BLOCK, P_FETCHED,
 P_N_OUT, P_TICKS) = range(52)
_NPARAMS = 52

_ACCESS_CB = ctypes.CFUNCTYPE(c_longlong, c_longlong)
_WALK_CB = ctypes.CFUNCTYPE(c_longlong, c_longlong, c_longlong)

_lib = None
_build_error = None


def _find_compiler():
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir():
    explicit = env_dir("REPRO_NATIVE_CACHE_DIR")
    if explicit:
        return explicit
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _load_library():
    """Compile (once, content-addressed) and load the kernel; or None.

    Any failure — no compiler, compile error, unloadable object — is
    remembered in ``_build_error`` so availability is probed exactly
    once per process and the selection layer can fall back cleanly.
    """
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    if np is None:
        _build_error = "numpy unavailable"
        return None
    try:
        src = open(_KERNEL_SRC, "rb").read()
    except OSError as exc:
        _build_error = f"kernel source unreadable: {exc}"
        return None
    cc = _find_compiler()
    if cc is None:
        _build_error = "no C compiler (cc/gcc/clang) on PATH"
        return None
    tag = hashlib.sha256(src).hexdigest()[:16]
    cache_dir = _cache_dir()
    so_path = os.path.join(cache_dir, f"cycle_kernel_{tag}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
            os.close(fd)
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _KERNEL_SRC],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                os.unlink(tmp)
                tail = (proc.stderr or "").strip().splitlines()
                _build_error = "compile failed: " + (
                    tail[-1] if tail else f"exit {proc.returncode}")
                return None
            os.replace(tmp, so_path)  # atomic under concurrent builders
        except Exception as exc:  # repro: noqa[RPR006] not silent:
            # the failure is recorded in _build_error and surfaced by
            # select_backend's warn_once when the backend is requested.
            _build_error = f"compile failed: {exc}"
            return None
    try:
        lib = ctypes.CDLL(so_path)
        lib.run_kernel.restype = None
        lib.run_kernel.argtypes = [c_void_p] * 21 + [_ACCESS_CB, _WALK_CB]
    except (OSError, AttributeError) as exc:
        _build_error = f"kernel load failed: {exc}"
        return None
    _lib = lib
    return lib


def build_error():
    """Why the kernel is unavailable (None when fine / not yet probed)."""
    return _build_error


def _marshal_arrays(s):
    """Trace columns as C-ready arrays, cached on the streams object."""
    st = s.streams
    cache = st.kernel
    if cache is None:
        cache = st.kernel = {}
    arrays = cache.get("native")
    if arrays is None:
        funcs = np.asarray(s.funcs, dtype=np.int32)
        arrays = {
            "kinds": np.asarray(s.kinds, dtype=np.int32),
            "addrs": np.asarray(s.addrs, dtype=np.int64),
            "pcs": np.asarray(s.pcs, dtype=np.int64),
            "dep1": np.asarray(s.dep1s, dtype=np.int32),
            "dep2": np.asarray(s.dep2s, dtype=np.int32),
            "funcs": funcs,
            "itlb": np.frombuffer(st.itlb_miss, dtype=np.uint8),
            "l1i": np.frombuffer(st.l1i_hit, dtype=np.uint8),
            "pf": np.frombuffer(st.pf_l2, dtype=np.uint8),
            "bpw": np.frombuffer(st.bp_wrong, dtype=np.uint8),
            "max_fid": int(funcs.max(initial=0)),
        }
        cache["native"] = arrays
    return arrays


def _run_kernel(lib, s):
    """Marshal state, run the C loop, write every result back."""
    n = s.n
    arrays = _marshal_arrays(s)
    lat_tab = np.zeros(_NKINDS, dtype=np.int64)
    for k, v in s.lat_table.items():
        lat_tab[k] = v
    completion = np.full(n, -1, dtype=np.int64)
    ready_after = np.zeros(n, dtype=np.int64)
    iq = np.zeros(max(s.iq_cap, 1), dtype=np.int64)
    outstanding = np.zeros(max(s.mshrs, 1), dtype=np.int64)
    ic = np.zeros(_NKINDS, dtype=np.int64)
    cc = np.zeros(_NKINDS, dtype=np.int64)
    nfid = arrays["max_fid"] + 1
    tick_fid = np.zeros(nfid, dtype=np.int64)
    tick_val = np.zeros(nfid, dtype=np.int64)
    fid_pos = np.full(nfid, -1, dtype=np.int64)

    P = np.zeros(_NPARAMS, dtype=np.int64)
    P[P_N] = n
    P[P_LIMIT] = s.limit
    P[P_WINDOW] = s.window
    P[P_WIDTH] = s.width
    P[P_ROB_CAP] = s.rob_cap
    P[P_IQ_CAP] = s.iq_cap
    P[P_LQ_CAP] = s.lq_cap
    P[P_SQ_CAP] = s.sq_cap
    P[P_FETCH_W] = s.fetch_width
    P[P_ISSUE_W] = s.issue_width
    P[P_COMMIT_W] = s.commit_width
    P[P_MISP_PEN] = s.mispredict_penalty
    P[P_PAUSE_LAT] = s.pause_latency
    P[P_ITLB_PEN] = s.itlb_penalty
    P[P_L1D_HIT] = s.l1d_hit_lat
    P[P_MSHRS] = s.mshrs
    P[P_FBUF_CAP] = s.fbuf_cap
    P[P_KLOAD] = LOAD
    P[P_KSTORE] = STORE
    P[P_KPAUSE] = PAUSE
    P[P_KBRANCH] = BRANCH
    P[P_CYCLE] = s.cycle
    P[P_SER_UNTIL] = s.serialize_until
    P[P_LAST_LINE] = s.last_fetch_line
    P[P_FSTALL_UNTIL] = s.fetch_stall_until
    P[P_REDIRECT] = s.redirect_branch
    P[P_IQ_BRANCHES] = s.iq_branches
    start_cycle = s.cycle

    access_cb = _ACCESS_CB(s.hier.access_data)
    walk_cb = _WALK_CB(s.hier.inst_miss_walk)
    ptr = lambda a: a.ctypes.data  # noqa: E731
    lib.run_kernel(
        ptr(P),
        ptr(arrays["kinds"]), ptr(arrays["addrs"]), ptr(arrays["pcs"]),
        ptr(arrays["dep1"]), ptr(arrays["dep2"]), ptr(arrays["funcs"]),
        ptr(arrays["itlb"]), ptr(arrays["l1i"]),
        ptr(arrays["pf"]), ptr(arrays["bpw"]),
        ptr(lat_tab),
        ptr(completion), ptr(ready_after),
        ptr(iq), ptr(outstanding),
        ptr(ic), ptr(cc),
        ptr(tick_fid), ptr(tick_val), ptr(fid_pos),
        access_cb, walk_cb)

    committed = int(P[P_COMMITTED])
    disp_next = int(P[P_DISP_NEXT])
    fetch_idx = int(P[P_FETCH_IDX])
    cycle = int(P[P_CYCLE])
    s.cycle = cycle
    s.committed = committed
    s.fetch_idx = fetch_idx
    s.lq_used = int(P[P_LQ_USED])
    s.sq_used = int(P[P_SQ_USED])
    s.serialize_until = int(P[P_SER_UNTIL])
    s.last_fetch_line = int(P[P_LAST_LINE])
    s.fetch_stall_until = int(P[P_FSTALL_UNTIL])
    s.fetch_stall_kind = _FS_NAMES[int(P[P_FS_KIND])]
    s.redirect_branch = int(P[P_REDIRECT])
    s.iq_branches = int(P[P_IQ_BRANCHES])
    s.completion = completion.tolist()
    s.ready_after = ready_after.tolist()
    s.iq = iq[:int(P[P_IQ_LEN])].tolist()
    s.outstanding_misses = outstanding[:int(P[P_N_OUT])].tolist()
    s.rob = deque(range(committed, disp_next))
    s.fbuf = deque(range(disp_next, fetch_idx))
    s.dispatched = int(P[P_DISPATCHED])
    s.block_reason = _BLOCK_NAMES[int(P[P_BLOCK])]
    s.fetched = int(P[P_FETCHED])
    issued_counts = s.issued_by_kind
    committed_counts = s.committed_by_kind
    for k in range(_NKINDS):
        if ic[k]:
            issued_counts[KIND_KEY_LIST[k]] += int(ic[k])
        if cc[k]:
            committed_counts[KIND_KEY_LIST[k]] += int(cc[k])
    stats = s.stats
    stats.slots_retiring += int(P[P_SL_RET])
    stats.slots_bad_spec += int(P[P_SL_BAD])
    stats.slots_fe_latency += int(P[P_SL_FEL])
    stats.slots_fe_bandwidth += int(P[P_SL_FEB])
    stats.slots_be_memory += int(P[P_SL_MEM])
    stats.slots_be_core += int(P[P_SL_CORE])
    stats.serialize_stall_cycles += int(P[P_SER_STALL])
    stats.pause_ops += int(P[P_PAUSE_OPS])
    stats.fetch_active_cycles += int(P[P_F_ACTIVE])
    stats.fetch_squash_cycles += int(P[P_F_SQUASH])
    stats.fetch_icache_stall_cycles += int(P[P_F_ICACHE])
    stats.fetch_tlb_cycles += int(P[P_F_TLB])
    stats.fetch_misc_stall_cycles += int(P[P_F_MISC])
    # Published only when this call drove the trace to completion,
    # matching the reference path (HotspotSampler.finalize never runs
    # on an aborted or already-finished simulation).
    if committed >= n and cycle > start_cycle:
        stats.func_clockticks = {
            int(tick_fid[j]): int(tick_val[j])
            for j in range(int(P[P_TICKS]))
        }


class NativeBackend:
    """C transcription of the fused loop, compiled on demand."""

    name = "native"
    # The kernel folds the default observers into its own counters;
    # CycleCore must not run their finalize pass on top.
    owns_observer_stats = True

    @staticmethod
    def available():
        return _load_library() is not None

    @staticmethod
    def supports(default_observers):
        if not default_observers:
            return False, "custom observers need per-cycle hook points"
        return True, None

    @staticmethod
    def run(s, dispatch_hooks, cycle_end_hooks):
        # Only selected once available(), so the library is loaded.
        _run_kernel(_load_library(), s)


from . import register  # noqa: E402

register(NativeBackend())
