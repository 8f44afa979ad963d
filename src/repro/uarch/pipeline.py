"""Compatibility shim for the pre-refactor monolithic simulator.

The cycle-level model now lives in :mod:`repro.uarch.core` — one fused
reference loop (plus its compiled transcription) over a shared
``CoreState``, with TMA slot accounting and hotspot sampling as
pluggable observers, plus a vectorized interval tier.  This module
keeps the old ``repro.uarch.pipeline.simulate`` import path working:
the tiered entry point, whose ``model="cycle"`` reproduces the old
function bit for bit.
"""

from __future__ import annotations

from .core import simulate

__all__ = ["simulate"]
