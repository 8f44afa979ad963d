"""Selectable cycle-tier execution backends.

The cycle tier's per-op state transition runs under one of two
implementations.  ``python`` is the golden reference — the fused
stream loop whose outputs are pinned bit-for-bit by the committed
golden fixtures.  ``native`` is a straight C transcription of that
loop, compiled on demand with the system C compiler into a
content-addressed shared object and driven through ``ctypes``; the
D-side hierarchy stays in Python behind two callbacks, so the memory
model is bit-exact by construction.

Selection is environment-driven (``REPRO_CYCLE_BACKEND``) or explicit
(``CycleCore(..., backend=...)``, ``simulate(..., backend=...)``,
``repro ... --cycle-backend``).  Because both backends are
bit-identical on the runs they accept, the backend is **not** part of
the result-store key: a run the kernel cannot represent exactly
(custom observers, missing toolchain) routes to ``python`` with a
one-line warning instead of producing different bits under the same
key.
"""

from __future__ import annotations

from ....env import env_str, warn_once

__all__ = ["BACKEND_ENV", "BACKEND_NAMES", "DEFAULT_BACKEND",
           "available_backends", "backend_from_env", "best_backend",
           "get_backend", "select_backend"]

BACKEND_ENV = "REPRO_CYCLE_BACKEND"
DEFAULT_BACKEND = "python"

_REGISTRY = {}


def register(backend):
    """Add *backend* to the registry (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name):
    """The backend registered under *name*; raises on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown cycle backend {name!r}; expected one of "
            f"{tuple(sorted(_REGISTRY))}"
        ) from None


def available_backends():
    """Names of backends whose dependencies are importable."""
    return tuple(name for name in sorted(_REGISTRY)
                 if _REGISTRY[name].available())


def backend_from_env():
    """The ``REPRO_CYCLE_BACKEND`` selection, defaulting to ``python``.

    An unknown value warns once and falls back to the default, matching
    the forgiving contract of every other ``REPRO_*`` knob.
    """
    raw = env_str(BACKEND_ENV).strip().lower()
    if not raw:
        return DEFAULT_BACKEND
    if raw not in _REGISTRY:
        warn_once(("env", BACKEND_ENV, raw),
                  f"ignoring invalid {BACKEND_ENV}={raw!r} (expected one "
                  f"of {'|'.join(sorted(_REGISTRY))}); using "
                  f"{DEFAULT_BACKEND}")
        return DEFAULT_BACKEND
    return raw


def select_backend(requested, default_observers):
    """Resolve *requested* against what the run can represent exactly.

    Returns ``(backend, effective_name, fallback_reason)``.  A backend
    that cannot reproduce this observer set bit-exactly routes to
    ``python`` — with a one-line warning naming the reason — because
    bit-exactness, not speed, is the contract that keeps the backend
    out of the result-store key.
    """
    backend = get_backend(requested)
    if not backend.available():
        reason = f"backend {requested!r} unavailable (missing dependency)"
        warn_once(("backend", requested, "unavailable"),
                  f"{reason}; falling back to python")
        return _REGISTRY[DEFAULT_BACKEND], DEFAULT_BACKEND, reason
    ok, reason = backend.supports(default_observers)
    if ok:
        return backend, requested, None
    warn_once(("backend", requested, reason),
              f"cycle backend {requested!r} cannot run this config "
              f"bit-exactly ({reason}); falling back to python")
    return _REGISTRY[DEFAULT_BACKEND], DEFAULT_BACKEND, reason


BACKEND_NAMES = ("python", "native")


def best_backend():
    """``native`` when it is available on this host, else ``python``.

    Correctness is identical either way, so "best" is purely speed;
    ``python`` is dependency-free, so this never returns None.
    """
    return "native" if _REGISTRY["native"].available() else DEFAULT_BACKEND


# Import order matters only for registration; python is the reference
# and the fallback, so it registers first.
from . import python_ref  # noqa: E402,F401
from . import native  # noqa: E402,F401
