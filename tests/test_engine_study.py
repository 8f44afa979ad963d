"""Declarative studies: axes, plans, the tier knob, golden parity.

The golden fixture ``tests/golden/study_parity.json`` was captured at
commit 6c4622c (PR 2 head), immediately *before* the Study refactor:
each sweep on (ar, co) at tiny/4000 through a cache-free Runner, fig7 /
fig4 / fig2 / fig3 at their small scales, and fig8-fig12 at the default
scale through the committed ``benchmarks/_results`` cache.  The tests
here assert the refactored call sites still produce byte-identical
output on the cycle tier.
"""

import json
import os

import pytest

from repro.core import figures, sweeps
from repro.core.characterize import characterize_vtune_suite
from repro.core.runner import Runner
from repro.engine.study import (
    Axis,
    Study,
    axis,
    parse_axis,
)
from repro.engine.jobs import config_fingerprint
from repro.uarch.config import CacheConfig, gem5_baseline

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "study_parity.json")

_FAST = dict(scale="tiny", budget=4000)


def _fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _no_cache_runner():
    return Runner(use_disk_cache=False)


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------
def test_named_axes_match_sweep_configs():
    """CLI axes build the exact configs the paper sweeps build."""
    ax = axis("l2_kb", (256, 2048))
    cfgs = [gem5_baseline(**ax.overrides_for(v)) for v in ax.values]
    expected = [gem5_baseline(l2=CacheConfig(kb, 16, 14))
                for kb in (256, 2048)]
    assert ([config_fingerprint(c) for c in cfgs]
            == [config_fingerprint(c) for c in expected])

    ax = axis("width", (2, 8))
    assert ax.overrides_for(2) == {"dispatch_width": 2, "issue_width": 2}

    ax = axis("lsq", ("72:56", (96, 72)))
    assert ax.label_for(ax.values[0]) == "72_56"
    assert ax.overrides_for(ax.values[1]) == {"lq_entries": 96,
                                              "sq_entries": 72}


def test_parse_axis_specs():
    ax = parse_axis("freq_ghz=1,2.5")
    assert ax.values == (1.0, 2.5)
    with pytest.raises(ValueError, match="unknown axis"):
        parse_axis("nope=1")
    with pytest.raises(ValueError, match="name=v1,v2"):
        parse_axis("freq_ghz")
    with pytest.raises(ValueError, match="at least one value"):
        Axis("freq_ghz", ())


def test_study_points_cross_product_and_labels():
    study = Study("s", axes=[axis("l2_kb", (256, 512)),
                             axis("freq_ghz", (2, 3))],
                  workloads=("ar",), **_FAST)
    labels = [label for label, _ in study.points()]
    assert labels == [(256, 2.0), (256, 3.0), (512, 2.0), (512, 3.0)]
    jobs = study.jobs(model="interval")
    assert len(jobs) == 4 and all(j.model == "interval" for j in jobs)

    single = Study("one", workloads=("ar",), base=gem5_baseline(), **_FAST)
    assert [label for label, _ in single.points()] == ["gem5-baseline"]


def test_study_from_jobs_roundtrip():
    study = sweeps.study_for("l2", workloads=("ar", "co"), **_FAST)
    jobs = study.jobs()
    rebuilt = Study.from_jobs("l2", jobs)
    assert [j.key() for j in rebuilt.jobs()] == [j.key() for j in jobs]
    with pytest.raises(ValueError, match="rectangular"):
        Study.from_jobs("bad", jobs[:-1])  # co misses the 2048 point


# ----------------------------------------------------------------------
# The tier knob
# ----------------------------------------------------------------------
def test_interval_policy_equals_interval_model():
    # Study.run(policy=) and the sweeps' model= name the same tier.
    r = _no_cache_runner()
    study = sweeps.study_for("l2", workloads=("ar",), **_FAST)
    via_policy = study.run(policy="interval", runner=r).table()
    via_model = sweeps.l2_sweep(workloads=("ar",), runner=r,
                                model="interval", **_FAST)
    assert {k: m.as_dict() for k, m in via_policy["ar"].items()} == \
        {k: m.as_dict() for k, m in via_model["ar"].items()}


@pytest.mark.parametrize("policy", ["psychic", "adaptive"])
def test_unknown_policy_rejected(policy):
    study = sweeps.study_for("l2", workloads=("ar",), **_FAST)
    with pytest.raises(ValueError, match="unknown policy"):
        study.run(policy=policy)


# ----------------------------------------------------------------------
# Golden parity with the pre-refactor call sites (cycle tier)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,fn", [
    ("frequency", sweeps.frequency_sweep),
    ("l1i", sweeps.l1i_sweep),
    ("l1d", sweeps.l1d_sweep),
    ("l2", sweeps.l2_sweep),
    ("width", sweeps.width_sweep),
    ("lsq", sweeps.lsq_sweep),
    ("branch", sweeps.branch_predictor_sweep),
    ("rob_iq", sweeps.rob_iq_sweep),
])
def test_sweep_golden_parity_cycle_tier(name, fn):
    data = fn(workloads=("ar", "co"), runner=_no_cache_runner(), **_FAST)
    got = {w: {str(k): m.as_dict() for k, m in d.items()}
           for w, d in data.items()}
    assert got == _fixture()["sweeps_tiny"][name]


def test_fig7_golden_parity_cycle_tier():
    got = figures.fig7_pipeline_stages(scale="tiny",
                                       runner=_no_cache_runner())
    assert got == _fixture()["fig7_tiny"]


def test_fig4_and_vtune_suite_golden_parity():
    fx = _fixture()
    runner = _no_cache_runner()
    assert figures.fig4_hotspots(scale="tiny", runner=runner) \
        == fx["fig4_tiny"]
    chars = characterize_vtune_suite(scale="tiny", budget=2000,
                                     runner=runner)
    assert [c.topdown.row() for c in chars] == fx["fig2_tiny"]
    assert [c.topdown.stall_row() for c in chars] == fx["fig3_tiny"]


@pytest.mark.parametrize("name,fn", [
    ("fig8", figures.fig8_frequency),
    ("fig9", figures.fig9_cache),
    ("fig10", figures.fig10_width),
    ("fig11", figures.fig11_lsq),
    ("fig12", figures.fig12_branch_predictor),
])
def test_figure_golden_parity_default_scale(name, fn):
    # Through the committed cache, like the fixture capture: a parity
    # check on the full default-scale grids at lookup cost.
    got = json.loads(json.dumps(fn(runner=Runner()), default=str))
    assert got == _fixture()[name + "_default"]


def test_empty_sweep_grid_is_an_error_not_the_default_grid():
    # Regression guard for `values or default`: an explicitly empty
    # grid must fail loudly, never silently run the full default sweep.
    with pytest.raises(ValueError, match="at least one value"):
        sweeps.l2_sweep(workloads=("ar",), sizes_kb=(), **_FAST)


def test_sweep_metric_threads_into_best(tmp_path):
    study = sweeps.study_for("l2", metric="ipc")
    assert study.metric == "ipc"
    result = sweeps.l2_sweep(workloads=("ar",), metric="ipc",
                             full_result=True,
                             runner=Runner(cache_dir=str(tmp_path)),
                             **_FAST)
    # best() defaults to the study's metric and ranks every cell.
    by_size = result.table()["ar"]
    assert result.best()["ar"] == max(by_size,
                                      key=lambda kb: by_size[kb].ipc)
    assert result.best("seconds")["ar"] == min(
        by_size, key=lambda kb: by_size[kb].seconds)


def test_run_characterizations_tolerates_repeated_workloads(tmp_path):
    from repro.core.characterize import (characterize_jobs,
                                         run_characterizations)

    jobs = characterize_jobs(["ar", "co", "ar"], **_FAST)
    chars = run_characterizations(jobs,
                                  runner=Runner(cache_dir=str(tmp_path)))
    assert [c.workload for c in chars] == ["ar", "co", "ar"]
    assert chars[0].metrics.as_dict() == chars[2].metrics.as_dict()


def test_sweep_function_grids_come_from_sweep_axes():
    # Single source of truth: the functions' None defaults resolve to
    # the SWEEP_AXES grid, so editing one place changes both paths.
    for name in sweeps.SWEEP_AXES:
        study = sweeps.study_for(name, workloads=("ar",))
        assert len(study.points()) == len(sweeps.SWEEP_AXES[name][1])
