"""Strategy factory and selectivity binning."""
from __future__ import annotations

import pytest

from dgquery.baseline import RescanEngine
from dgquery.bench import STRATEGIES, bin_reports, make_engine, run_sweep
from dgquery.engine import Engine
from dgquery.errors import ContractError
from dgquery.planner import plan_query
from dgquery.stats import collect_stats

from conftest import gate_sets, path_query, raw


def _workload():
    query = path_query(["e", "f"], vertex_label="A")
    records = [raw(i, f"v{i % 4}", "ef"[i % 2], f"v{(i + 1) % 4}") for i in range(24)]
    return query, records, collect_stats(records)


# ------------------------------------------------------------------ factory

def gated_cuts(eng):
    """Per leaf, the cut qvertices its gates hold allowed sets for."""
    return [tuple(cuts) for cuts in gate_sets(eng)]


def planned_cuts(tree):
    """Per leaf, the cut qvertices a lazy engine gates it at: none at leaf
    0, the parent's cut at every later leaf."""
    return [tree.nodes[leaf.parent].cut_verts if leaf.leaf_index else () for leaf in tree.leaves()]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_engine_builds_every_strategy(strategy):
    query, records, table = _workload()
    eng, plan, name = make_engine(strategy, query, 5, table)
    assert name == strategy
    if strategy == "vf2":
        assert isinstance(eng, RescanEngine) and plan is None
    else:
        assert isinstance(eng, Engine) and eng.tree is plan.tree
        assert plan.catalog_mode == strategy.removesuffix("lazy")
        # lazy: every leaf after leaf 0 whose parent's cut is not empty is
        # gated at its cut qvertices; eager: every leaf always on
        eager = [()] * len(plan.tree.leaves())
        assert gated_cuts(eng) == (planned_cuts(plan.tree) if strategy.endswith("lazy") else eager)


def test_make_engine_auto_resolves_to_the_planned_strategy():
    query, records, table = _workload()
    eng, plan, name = make_engine("auto", query, 5, table)
    assert plan.catalog_mode == "auto"
    assert name == plan.strategy.lower() and name in STRATEGIES
    assert gated_cuts(eng) == planned_cuts(plan.tree)  # the planner only recommends lazy strategies


def test_make_engine_rejects_unknown_strategy():
    query, _, table = _workload()
    with pytest.raises(ContractError):
        make_engine("warp", query, 5, table)


def test_run_sweep_reports_in_order_and_agrees():
    query, records, table = _workload()
    reports = run_sweep(query, records, 5, STRATEGIES, table)
    assert [r.strategy for r in reports] == list(STRATEGIES)
    assert len({r.emitted for r in reports}) == 1 and reports[0].emitted > 0
    assert reports[-1].match_calls is None and reports[-1].relative_selectivity is None
    assert all(r.match_calls is not None for r in reports[:-1])


def test_run_sweep_reports_the_auto_plans_xi_on_every_planned_row():
    # ξ belongs to the query: a single-mode plan's own is 1 by definition,
    # so every planned row, single or path, reports the auto plan's, and a
    # sweep with no planned row reports none
    query, records, table = _workload()
    xi = plan_query(query, table, mode="auto").relative
    assert xi != 1.0
    reports = run_sweep(query, records, 5, STRATEGIES, table)
    assert [r.relative_selectivity for r in reports] == [xi] * 4 + [None]
    assert run_sweep(query, records, 5, ["vf2"], table)[0].relative_selectivity is None


def test_run_sweep_needs_a_strategy():
    query, records, table = _workload()
    with pytest.raises(ContractError, match="no strategy given"):
        run_sweep(query, records, 5, [], table)


# ------------------------------------------------------------------ binning

def test_bin_reports_log_spaced():
    # 1e-4 .. 1 spans four decades; four bins give one decade each
    assert bin_reports([1e-4, 1e-3, 1e-2, 1e-1, 1.0], 4) == [0, 1, 2, 3, 3]
    assert bin_reports([1e-4, 2e-4, 0.5, 1.0], 2) == [0, 0, 1, 1]


def test_bin_reports_zero_goes_to_bin_zero():
    assert bin_reports([0.0, 1e-3, 1.0], 3) == [0, 0, 2]
    assert bin_reports([0.0, 0.0], 3) == [0, 0]


def test_bin_reports_all_equal_go_to_last_bin():
    assert bin_reports([0.25, 0.25, 0.25], 5) == [4, 4, 4]
    assert bin_reports([0.25], 1) == [0]
    assert bin_reports([], 3) == []


@pytest.mark.parametrize("bins", [0, -1])
def test_bin_reports_needs_a_bin(bins):
    with pytest.raises(ContractError):
        bin_reports([0.5], bins)
