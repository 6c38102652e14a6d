"""Planner: primitive catalogs, greedy tree build, strategy choice."""
from __future__ import annotations

import json
import math
from random import Random

import pytest

from dgquery.generate import generate_stream, random_query, random_schema, social_schema
from dgquery.planner import (
    STRATEGY_THRESHOLD,
    PrimitiveCatalog,
    build_sj_tree,
    choose_strategy,
    decomposition_advisories,
    expected_selectivity,
    plan_query,
    relative_selectivity,
)
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable, collect_stats, primitive_key

from conftest import path_query, q, table_for


def skewed_table():
    """Hand-built table: label 'r' rare, 's' common, one observed pair."""
    t = SelectivityTable(sample_size=100)
    t.arity1 = {("A", "r", "A"): 2, ("A", "s", "A"): 98}
    t.arity2 = {
        ("A", ("r", "A", "in"), ("s", "A", "out")): 1,
        ("A", ("s", "A", "in"), ("s", "A", "out")): 40,
    }
    return t


# -------------------------------------------------------------------- catalog

def test_catalog_single_mode_orders_by_selectivity():
    query = path_query(["s", "r", "s"], vertex_label="A")
    cat = PrimitiveCatalog.from_query(query, skewed_table(), "single")
    assert [c.arity for c in cat.entries] == [1, 1]
    assert cat.entries[0].key == ("A", "r", "A")
    assert cat.entries[0].selectivity < cat.entries[1].selectivity
    assert cat.unseen == []


def test_catalog_path_mode_tiers_pairs_first():
    query = path_query(["r", "s"], vertex_label="A")
    cat = PrimitiveCatalog.from_query(query, skewed_table(), "path")
    assert cat.entries[0].arity == 2
    assert cat.entries[-1].arity == 1
    aritys = [c.arity for c in cat.entries]
    assert aritys == sorted(aritys, reverse=True)  # every pair before any single


def test_catalog_flags_unseen_primitives():
    query = path_query(["r", "zz"], vertex_label="A")
    cat = PrimitiveCatalog.from_query(query, skewed_table(), "single")
    assert [c.key for c in cat.unseen] == [("A", "zz", "A")]
    # unseen entries sort first: zero frequency is the global minimum
    assert cat.entries[0].key == ("A", "zz", "A")


def test_catalog_rejects_bad_mode():
    with pytest.raises(ValueError):
        PrimitiveCatalog("auto", [], [])


# ------------------------------------------------------------------ tree build

def test_build_prefers_rare_leaf_zero():
    query = path_query(["s", "r", "s"], vertex_label="A")
    plan = plan_query(query, skewed_table(), mode="single")
    leaf0 = plan.tree.leaves()[0]
    assert leaf0.piece.edges == frozenset({1})  # the rare label


def test_build_extends_along_the_frontier():
    # leaf 1 must touch leaf 0's vertices even when a rarer edge sits farther
    # away: on r . s . s . t the planner takes r first (freq 2), then an 's'
    # neighbor (98) rather than the rarer but disconnected 't' (40)
    table = skewed_table()
    table.arity1[("A", "t", "A")] = 40
    query = path_query(["r", "s", "s", "t"], vertex_label="A")
    tree = plan_query(query, table, mode="single").tree
    pieces = [leaf.piece.edges for leaf in tree.leaves()]
    # 't' (freq 40) is rarer than 's' (98) but only becomes adjacent to the
    # covered region after both 's' edges, so it is scheduled last
    assert pieces == [{0}, {1}, {2}, {3}]


def test_build_is_deterministic():
    rng = Random(3)
    schema = social_schema()
    records = generate_stream(schema, 800, rng)
    table = collect_stats(records)
    for trial in range(10):
        query = random_query(schema, rng.randint(1, 5), rng)
        a = plan_query(query, table, mode="path").tree.serialize()
        b = plan_query(query, table, mode="path").tree.serialize()
        assert a == b, f"trial {trial}"


def test_planner_trees_validate_and_round_trip(rng):
    for trial in range(30):
        schema = random_schema(rng)
        records = generate_stream(schema, 400, rng)
        table = collect_stats(records)
        query = random_query(schema, rng.randint(1, 5), rng)
        for mode in ("single", "path"):
            tree = plan_query(query, table, mode=mode).tree
            # partition of the query edges
            seen: set[int] = set()
            for leaf in tree.leaves():
                assert not (leaf.piece.edges & seen)
                seen |= leaf.piece.edges
            assert seen == set(range(query.n_edges))
            # deserialize re-validates the full structure (left-deep included)
            text = tree.serialize()
            assert SJTree.deserialize(text, query).serialize() == text


def test_single_mode_leaf_zero_is_globally_rarest(rng):
    for trial in range(30):
        schema = random_schema(rng)
        records = generate_stream(schema, 400, rng)
        table = collect_stats(records)
        query = random_query(schema, rng.randint(1, 5), rng)
        tree = plan_query(query, table, mode="single").tree
        leaf0 = tree.leaves()[0]
        freq0 = table.frequency(*primitive_key(query, leaf0.piece.edges))
        best = min(
            table.frequency(*primitive_key(query, [qe]))
            for qe in range(query.n_edges)
        )
        assert freq0 == best, f"trial {trial}"


# ---------------------------------------------------------------- selectivity

def test_expected_selectivity_is_leaf_product():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    tree = plan_query(query, table, mode="single").tree
    prod = 1.0
    for leaf in tree.leaves():
        prod *= table.subgraph_selectivity(query, leaf.piece.edges)
    assert expected_selectivity(tree, table) == pytest.approx(prod)
    assert prod == pytest.approx(0.02 * 0.98)


def test_relative_selectivity_ratio_and_zero_baseline():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    single = plan_query(query, table, mode="single").tree
    path = plan_query(query, table, mode="path").tree
    xi = relative_selectivity(path, single, table)
    assert xi == pytest.approx((1 / 41) / (0.02 * 0.98))
    # a never-observed single edge zeroes the baseline -> neutral ratio
    empty = SelectivityTable(sample_size=0)
    s0 = plan_query(query, empty, mode="single").tree
    p0 = plan_query(query, empty, mode="path").tree
    assert relative_selectivity(p0, s0, empty) == 1.0


def test_choose_strategy_threshold_boundary():
    eps = math.nextafter(STRATEGY_THRESHOLD, 0.0)
    assert choose_strategy(eps) == "PathLazy"
    assert choose_strategy(STRATEGY_THRESHOLD) == "SingleLazy"
    assert choose_strategy(1.0) == "SingleLazy"
    assert choose_strategy(0.0) == "PathLazy"
    with pytest.raises(ValueError):
        choose_strategy(float("nan"))
    with pytest.raises(ValueError):
        choose_strategy(-0.5)


# ----------------------------------------------------------------------- plan

def test_plan_auto_picks_single_on_neutral_ratio():
    query = path_query(["r", "s"], vertex_label="A")
    plan = plan_query(query, skewed_table(), mode="auto")
    assert plan.strategy == choose_strategy(plan.relative)
    assert set(plan.candidates) == {"single", "path"}
    assert plan.candidates["single"]["relative_selectivity"] == 1.0


def test_plan_forced_modes():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    single = plan_query(query, table, mode="single")
    assert single.strategy == "SingleLazy"
    assert single.relative == 1.0
    path = plan_query(query, table, mode="path")
    assert path.strategy == "PathLazy"
    assert len(path.tree.leaves()) == 1  # one 2-edge leaf covers the query
    with pytest.raises(ValueError):
        plan_query(query, table, mode="greedy")


def test_plan_warns_on_unseen_primitives():
    query = path_query(["r", "zz"], vertex_label="A")
    plan = plan_query(query, skewed_table(), mode="auto")
    assert any("never observed" in w for w in plan.warnings)


def test_sidecar_json_round_trip():
    query = path_query(["r", "s"], vertex_label="A")
    plan = plan_query(query, skewed_table(), mode="auto")
    doc = json.loads(plan.sidecar_json())
    assert doc["strategy"] == plan.strategy
    assert doc["expected_selectivity"] == pytest.approx(plan.expected)
    assert doc["relative_selectivity"] == pytest.approx(plan.relative)
    assert doc["catalog_mode"] == "auto"
    assert set(doc["candidates"]) == {"single", "path"}


def test_decomposition_advisories_flag_common_constituents():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    tree = plan_query(query, table, mode="path").tree
    # mean degree 1: the ('s') edge count 98 exceeds pair_freq / (1 * 3)
    notes = decomposition_advisories(tree, table, mean_degree=1.0)
    assert notes and all("sub-primitive" in n for n in notes)
    assert decomposition_advisories(tree, table, mean_degree=None) == []
    single_tree = plan_query(query, table, mode="single").tree
    assert decomposition_advisories(single_tree, table, mean_degree=1.0) == []
