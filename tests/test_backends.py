"""Cycle-backend matrix: golden parity, capability fallback, store keys.

Every registered backend must produce bit-identical ``SimStats`` — the
contract that keeps ``REPRO_CYCLE_BACKEND`` out of the result-store
key.  The matrix pins each backend against the committed seed golden
fixtures (six gem5 workloads, warm and cold) and against the committed
sensitivity cells (``cycle_matrix.json``: L3 + LTAGE, every branch
predictor, L2 interference, frequency scaling); a run the compiled
kernel cannot represent (custom observers, missing toolchain) must
route to ``python`` with a one-line warning rather than diverge.
"""

import pytest

from gem5_golden import (CYCLE_CELLS, cell_config, cycle_matrix,
                         gem5_golden, gem5_traces)
from repro.engine.jobs import JobSpec
from repro.uarch import CycleCore, gem5_baseline, simulate
from repro.uarch.core import backends as cycle_backends

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")


def _require(backend):
    if not cycle_backends.get_backend(backend).available():
        pytest.skip(f"backend {backend!r} unavailable on this host")


# ----------------------------------------------------------------------
# Golden-fixture bit-parity, every backend x workload x warm/cold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", cycle_backends.BACKEND_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", ("warm", "cold"))
def test_backend_matches_seed_golden(backend, workload, mode):
    _require(backend)
    trace = gem5_traces()[workload]
    stats = simulate(trace, gem5_baseline(), warm=(mode == "warm"),
                     backend=backend)
    got = stats.as_dict()
    want = gem5_golden()[workload][mode]
    mismatched = [k for k in want if got[k] != want[k]]
    assert got == want, f"{backend}/{workload}/{mode} diverges in {mismatched}"


@pytest.mark.parametrize("cell", tuple(CYCLE_CELLS))
@pytest.mark.parametrize("backend", cycle_backends.BACKEND_NAMES)
def test_backend_matches_cycle_matrix(backend, cell):
    # The sensitivity cells the seed fixtures leave out: L3 + LTAGE,
    # every registered predictor, L2 interference, frequency scaling.
    _require(backend)
    _, _, workload, warm = CYCLE_CELLS[cell]
    core = CycleCore(gem5_traces()[workload], cell_config(cell), warm=warm,
                     backend=backend)
    assert core.backend == backend
    got = core.run().as_dict()
    want = cycle_matrix()[cell]
    mismatched = [k for k in want if got[k] != want[k]]
    assert got == want, f"{backend}/{cell} diverges in {mismatched}"


def test_cycle_matrix_covers_every_cell():
    assert set(cycle_matrix()) == set(CYCLE_CELLS)


# ----------------------------------------------------------------------
# Capability fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_custom_observers_route_to_python(self):
        _require("native")
        from repro.uarch.core.observers import Observer

        class Probe(Observer):
            def on_cycle_end(self, s):
                pass

        trace = gem5_traces()["ar"]
        core = CycleCore(trace, gem5_baseline(), observers=[Probe()],
                         backend="native")
        assert core.backend == "python"
        assert "observers" in core.backend_fallback

    def test_fallback_warns_once(self, monkeypatch, capsys):
        _require("native")
        from repro import env as env_mod

        monkeypatch.setattr(env_mod, "_WARNED", set())
        _, name, reason = cycle_backends.select_backend(
            "native", default_observers=False)
        assert name == "python"
        assert reason is not None
        err = capsys.readouterr().err
        assert "falling back to python" in err
        # Same condition again: warn_once stays quiet.
        cycle_backends.select_backend("native", default_observers=False)
        assert "falling back" not in capsys.readouterr().err

    def test_invalid_env_value_uses_default(self, monkeypatch):
        from repro import env as env_mod

        monkeypatch.setattr(env_mod, "_WARNED", set())
        monkeypatch.setenv(cycle_backends.BACKEND_ENV, "fortran")
        assert cycle_backends.backend_from_env() == \
            cycle_backends.DEFAULT_BACKEND

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cycle backend"):
            cycle_backends.get_backend("fortran")


# ----------------------------------------------------------------------
# Selection plumbing
# ----------------------------------------------------------------------
class TestSelection:
    def test_env_knob_selects_backend(self, monkeypatch):
        _require("native")
        monkeypatch.setenv(cycle_backends.BACKEND_ENV, "native")
        trace = gem5_traces()["ar"]
        core = CycleCore(trace, gem5_baseline())
        assert core.backend == "native"

    def test_python_always_available(self):
        assert "python" in cycle_backends.available_backends()

    def test_best_backend_is_available(self):
        best = cycle_backends.best_backend()
        assert best in cycle_backends.available_backends()
        native_ok = cycle_backends.get_backend("native").available()
        assert best == ("native" if native_ok else "python")

    def test_backend_never_in_store_key(self, monkeypatch):
        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        base = JobSpec("ar", gem5_baseline()).key()
        for name in cycle_backends.BACKEND_NAMES:
            monkeypatch.setenv(cycle_backends.BACKEND_ENV, name)
            assert JobSpec("ar", gem5_baseline()).key() == base

    def test_simulate_records_backend_span(self):
        from repro import telemetry

        trace = gem5_traces()["ar"]
        with telemetry.span("test-root") as root:
            simulate(trace, gem5_baseline(), backend="python")
        spans = [s for s in root.children if s.name == "simulate:cycle"]
        assert spans and spans[0].attrs.get("backend") == "python"
