"""Declarative job descriptions for the sweep-execution engine.

A :class:`JobSpec` captures everything needed to reproduce one
(workload x config) simulation: the workload name, trace scale and
budget, and the full core configuration.  Job identity is a content
hash over the canonical configuration dict, so two configs that differ
in *any* field — including ones the short ``CoreConfig.digest()``
string omits, like memory latency — never collide in the result store.
"""

from __future__ import annotations

import hashlib
import json
import re

__all__ = ["JobSpec", "config_fingerprint", "digest_faithful",
           "expand_grid"]

# Default object reprs embed the instance address ("<Foo object at
# 0x7f...>"), which differs per process and would make fingerprints
# non-deterministic; canonicalization scrubs exactly that form — bare
# hex literals a repr uses for real state (flags, masks) are kept.
_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _slot_names(obj):
    """All ``__slots__`` names declared across the type's MRO."""
    names = []
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return names


def _canonical(obj):
    """Recursively convert config objects to JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    slots = _slot_names(obj)
    if hasattr(obj, "__dict__") or slots:
        fields = dict(getattr(obj, "__dict__", ()) or ())
        for name in slots:
            if name not in fields and hasattr(obj, name):
                fields[name] = getattr(obj, name)
        return {k: _canonical(v) for k, v in sorted(fields.items())}
    # Last resort: a repr, with any embedded memory address scrubbed so
    # the fingerprint stays identical across processes — the one
    # sanctioned repr() in the fingerprint closure.
    return (f"{type(obj).__qualname__}:"
            f"{_ADDR_RE.sub(' at 0x0', repr(obj))}")  # repro: noqa[RPR003] address-scrubbed


def config_fingerprint(config):
    """Short content hash covering every field of a configuration."""
    blob = json.dumps(_canonical(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _transplant_cache(base_cache, actual_cache):
    """*base_cache* resized to *actual_cache*'s capacity (digest shows
    only the size; every other field must come from the preset)."""
    from ..uarch.config import CacheConfig

    return CacheConfig(
        actual_cache.size_kb, base_cache.assoc, base_cache.hit_latency,
        line=base_cache.line, mshrs=base_cache.mshrs,
        uncore_ns=base_cache.uncore_ns,
    )


def digest_faithful(config):
    """True when ``config.digest()`` identifies *config* unambiguously.

    The short digest only captures a preset name plus the fields the
    sweeps vary.  A config is *digest-faithful* when it equals its
    named preset with only digest-visible fields changed — for those,
    the pre-engine digest-keyed cache files are safe to reuse.  Configs
    that tweak a digest-omitted field (memory latency, cache hit
    latencies, FU timings, ...) collide with other configs under the
    same digest and must not touch legacy entries.
    """
    from ..uarch.config import gem5_baseline, host_i9

    preset = {"gem5-baseline": gem5_baseline,
              "host-i9": host_i9}.get(config.name)
    if preset is None:
        return False
    base = preset()
    if (base.l3 is None) != (config.l3 is None):
        return False
    try:
        rebuilt = base.with_changes(
            freq_ghz=config.freq_ghz,
            fetch_width=config.fetch_width,
            dispatch_width=config.dispatch_width,
            issue_width=config.issue_width,
            commit_width=config.commit_width,
            rob_entries=config.rob_entries,
            iq_entries=config.iq_entries,
            lq_entries=config.lq_entries,
            sq_entries=config.sq_entries,
            branch_predictor=config.branch_predictor,
            l1i=_transplant_cache(base.l1i, config.l1i),
            l1d=_transplant_cache(base.l1d, config.l1d),
            l2=_transplant_cache(base.l2, config.l2),
            l3=(_transplant_cache(base.l3, config.l3)
                if base.l3 is not None else None),
        )
    except ValueError:  # transplanted geometry is invalid: not faithful
        return False
    return config_fingerprint(rebuilt) == config_fingerprint(config)


class JobSpec:
    """One (workload, scale, budget, config, model) simulation to run.

    ``model`` selects the simulator fidelity tier (``"cycle"`` |
    ``"interval"``); tiers cache under distinct store keys, and the
    default ``"cycle"`` keeps the pre-tier key format so committed warm
    caches stay valid.
    """

    __slots__ = ("workload", "config", "label", "scale", "budget", "model")

    def __init__(self, workload, config, label=None, scale="default",
                 budget=80_000, model="cycle"):
        self.workload = workload
        self.config = config
        self.label = label if label is not None else config.digest()
        self.scale = scale
        self.budget = int(budget)
        self.model = model

    @property
    def trace_key(self):
        """Grouping key: jobs sharing it reuse one memoized trace."""
        return (self.workload, self.scale, self.budget)

    def key(self):
        """Content-hash store key (human-readable prefix + config hash).

        Non-cycle tiers append ``_<model>-v<N>`` where N is the tier's
        model version, so recalibrating an approximate tier can never
        be served stale results from an older calibration.
        """
        if self.model == "cycle":
            tier = ""
        else:
            from ..uarch.core import MODEL_VERSIONS

            tier = f"_{self.model}-v{MODEL_VERSIONS.get(self.model, 0)}"
        return (f"{self.workload}_{self.scale}_{self.budget}_"
                f"{config_fingerprint(self.config)}{tier}")

    def legacy_key(self):
        """Pre-engine cache filename stem, or None when unsafe.

        Legacy files are keyed by the short digest, which conflates
        configs differing only in digest-omitted fields; the fallback
        is offered only for digest-faithful cycle-tier configs (see
        :func:`digest_faithful`).
        """
        if self.model != "cycle" or not digest_faithful(self.config):
            return None
        return (f"{self.workload}_{self.scale}_{self.budget}_"
                f"{self.config.digest()}")

    def meta(self):
        """Manifest metadata describing this job."""
        return {
            "workload": self.workload,
            "label": str(self.label),
            "scale": self.scale,
            "budget": self.budget,
            "config": self.config.digest(),
            "model": self.model,
        }

    def describe(self):
        """Human-readable job tag; non-cycle tiers are marked so an
        interval-tier job never reads as a cycle-accurate one."""
        tier = "" if self.model == "cycle" else f" [{self.model}]"
        return f"{self.workload}@{self.label}{tier}"

    def __repr__(self):
        return (f"JobSpec({self.workload!r}, {self.label!r}, "
                f"scale={self.scale!r}, budget={self.budget}, "
                f"model={self.model!r})")


def expand_grid(workloads, configs, scale="default", budget=80_000,
                model="cycle"):
    """Expand a sweep definition into an ordered job list.

    ``configs`` is a sequence of ``(label, CoreConfig)`` pairs — the
    shape every ``core.sweeps`` function produces.  Order is
    workload-major, matching the serial execution order.
    """
    return [
        JobSpec(w, cfg, label=label, scale=scale, budget=budget,
                model=model)
        for w in workloads
        for label, cfg in configs
    ]
