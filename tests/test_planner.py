"""Planner: ranked primitive instances, greedy leaf set, cost-based leaf order, strategy choice."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from random import Random

import pytest

from dgquery import stats
from dgquery.generate import generate_stream, random_query, random_schema, social_schema
from dgquery.planner import (
    DP_MAX_LEAVES,
    STRATEGY_THRESHOLD,
    choose_strategy,
    decomposition_advisories,
    plan_query,
)
from dgquery.planner import (
    _adjacent_pairs,
    _expected_selectivity,
    _greedy_pieces,
    _ranked,
    _SpineCost,
)
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable, collect_stats, primitive_key

from conftest import path_query, plan_facts, q


def skewed_table(extra1=None):
    """Hand-built table: label 'r' rare, 's' common, one observed pair;
    ``extra1`` adds edge counts."""
    return SelectivityTable(
        sample_size=100,
        arity1={("A", "r", "A"): 2, ("A", "s", "A"): 98, **(extra1 or {})},
        arity2={
            ("A", ("r", "A", "in"), ("s", "A", "out")): 1,
            ("A", ("s", "A", "in"), ("s", "A", "out")): 40,
        },
    )


# ------------------------------------------------------------- ranked lists

def singles(query):
    return [(qe,) for qe in range(query.n_edges)]


def test_catalog_single_mode_orders_by_selectivity():
    query = path_query(["s", "r", "s"], vertex_label="A")
    table = skewed_table()
    ranked = _ranked(query, table, singles(query))
    assert [qedges for _, _, qedges, _ in ranked] == [(1,), (0,), (2,)]
    assert ranked[0][3] == ("A", "r", "A")
    sels = [sel for sel, *_ in ranked]
    assert sels == sorted(sels) and sels[0] < sels[1]
    assert plan_query(query, table, mode="single").warnings == []  # every edge seen
    # pairs rank by selectivity too; the unseen s.r pair ranks first
    pairs = _ranked(query, table, _adjacent_pairs(query))
    assert [(qedges, sel) for sel, _, qedges, _ in pairs] == [((0, 1), 0.0), ((1, 2), 1 / 41)]
    # a tie on selectivity and key falls to the qedges
    query = path_query(["s", "s", "s"], vertex_label="A")
    pairs = _ranked(query, table, _adjacent_pairs(query)[::-1])
    assert [qedges for _, _, qedges, _ in pairs] == [(0, 1), (1, 2)]
    assert pairs[0][:2] == pairs[1][:2]


def test_catalog_path_mode_tiers_pairs_first():
    # the 'r' edge (0.02) is rarer than the r.s pair (1/41), yet the pair is
    # leaf 0; the edge no pair can take is left to a 1-edge fallback leaf
    table = skewed_table()
    query = path_query(["r", "s"], vertex_label="A")
    assert table.selectivity(1, ("A", "r", "A")) < 1 / 41
    plan = plan_query(query, table, mode="path")
    assert [leaf.piece.edges for leaf in plan.tree.leaves()] == [{0, 1}]
    query = path_query(["r", "s", "s"], vertex_label="A")
    plan = plan_query(query, table, mode="path")
    assert sorted(len(leaf.piece.edges) for leaf in plan.tree.leaves()) == [1, 2]
    assert len(plan.tree.leaves()[0].piece.edges) == 2


def test_catalog_flags_unseen_primitives():
    query = path_query(["r", "zz"], vertex_label="A")
    plan = plan_query(query, skewed_table(), mode="single")
    assert plan.warnings == ["primitive ('A', 'zz', 'A') was never observed in the sample"]
    # the unseen edge is leaf 0: zero frequency is the global minimum
    assert plan.tree.leaves()[0].piece.edges == {1}


def test_plan_warns_once_per_unseen_primitive():
    # the unseen edge ranks in the 1-edge list and again as the path list's
    # fallback; it is named once, and the unseen pair after it
    query = path_query(["r", "zz"], vertex_label="A")
    for mode in ("path", "auto"):
        plan = plan_query(query, skewed_table(), mode=mode)
        assert plan.warnings == [
            "primitive ('A', 'zz', 'A') was never observed in the sample",
            "primitive ('A', ('r', 'A', 'in'), ('zz', 'A', 'out')) was never observed in the sample",
        ], mode


def test_catalog_rejects_bad_mode():
    query = path_query(["r", "s"], vertex_label="A")
    for mode in ("greedy", "SINGLE", "", None):
        with pytest.raises(ValueError):
            plan_query(query, skewed_table(), mode=mode)


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
    table = skewed_table({("A", "t", "A"): 40})
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


# ------------------------------------------------------------------ leaf order

def counted_table(query, counts1, counts2):
    """A table holding ``counts1[qe]`` per query edge and ``counts2[(a, b)]``
    per adjacent query-edge pair, keyed as the planner looks them up."""
    return SelectivityTable(
        sample_size=sum(counts1.values()),
        arity1={primitive_key(query, [qe])[1]: c for qe, c in counts1.items()},
        arity2={primitive_key(query, pair)[1]: c for pair, c in counts2.items()},
    )


def test_order_takes_the_cross_join_when_both_ends_are_rare():
    # a . b . c . d with rare ends and a huge b.c middle: greedy walks the
    # frontier (0,1,2,3) and stores 2 * 50/2 * 100000/100 = 50,000 (a,b,c)
    # prefixes; taking the other rare end as a cross join stores 108 in all
    query = path_query(["a", "b", "c", "d"], vertex_label="A")
    table = counted_table(
        query,
        {0: 2, 1: 100, 2: 100, 3: 3},
        {(0, 1): 50, (1, 2): 100_000, (2, 3): 50},
    )
    plan = plan_query(query, table, mode="single")
    assert [leaf.piece.edges for leaf in plan.tree.leaves()] == [{0}, {3}, {2}, {1}]
    # leaf 0 (2), x 3 as a cross join, x 50/3 along c.d, then b closes the
    # path at two vertices and takes the lesser ratio: 50/2 along a.b
    assert plan.estimated_sizes == pytest.approx([2, 6, 100, 2_500])
    assert plan.tree.nodes[plan.tree.leaves()[1].parent].cut_verts == ()


@pytest.mark.parametrize("pairs", [(50, 100, 200), (60, 60, 60)])
def test_order_keeps_the_ascending_star(pairs):
    # three edges out of one centre, counts ascending; ab <= ac so the greedy
    # order costs no more than any other, and a tie keeps it too
    query = q("node 0 A\nnode 1 A\nnode 2 A\nnode 3 A\n"
              "edge 0 0 1 a\nedge 1 0 2 b\nedge 2 0 3 c\n")
    ab, ac, bc = pairs
    table = counted_table(query, {0: 5, 1: 10, 2: 20}, {(0, 1): ab, (0, 2): ac, (1, 2): bc})
    plan = plan_query(query, table, mode="single")
    assert [leaf.piece.edges for leaf in plan.tree.leaves()] == [{0}, {1}, {2}]
    assert plan.estimated_sizes[:2] == pytest.approx([5, ab])


def test_order_floors_an_unseen_2path():
    # a.b never seen: its count floors at 1 instead of zeroing every later
    # estimate, which would make the rest of any order look free
    query = path_query(["a", "b", "c"], vertex_label="A")
    table = counted_table(query, {0: 4, 1: 10, 2: 10}, {(1, 2): 100})
    plan = plan_query(query, table, mode="single")
    assert [leaf.piece.edges for leaf in plan.tree.leaves()] == [{0}, {1}, {2}]
    assert plan.estimated_sizes == pytest.approx([4, 4 * 1 / 4, 1 * 100 / 10])
    assert min(plan.estimated_sizes) > 0


def test_order_past_the_dp_cap_keeps_the_greedy_order():
    # the cross-join table of the 4-edge case, stretched to a path with one
    # leaf more than the DP takes: the greedy order stands, estimated as is
    labels = ["a"] + ["b"] * (DP_MAX_LEAVES - 1) + ["d"]
    query = path_query(labels, vertex_label="A")
    last = len(labels) - 1
    table = counted_table(
        query,
        {qe: 100 for qe in range(len(labels))} | {0: 2, last: 3},
        {(qe, qe + 1): 100_000 for qe in range(last)},
    )
    plan = plan_query(query, table, mode="single")
    assert [leaf.piece.edges for leaf in plan.tree.leaves()] == [{qe} for qe in range(len(labels))]
    assert len(plan.estimated_sizes) == len(labels)


def test_order_only_reorders_and_is_the_cheapest(rng):
    """Random queries, both families: the plan keeps the greedy leaf set,
    leaf 0 and every selectivity, and its cost equals a brute-force minimum
    over all orders that keep leaf 0."""
    reordered = 0
    for trial in range(40):
        schema = random_schema(rng)
        table = collect_stats(generate_stream(schema, 400, rng))
        query = random_query(schema, rng.randint(1, 6), rng)
        single = _ranked(query, table, singles(query))
        greedy = {
            "single": _greedy_pieces(query, single),
            "path": _greedy_pieces(query, _ranked(query, table, _adjacent_pairs(query)) + single),
        }
        expected = {mode: _expected_selectivity(query, pieces, table) for mode, pieces in greedy.items()}
        xi = expected["path"] / expected["single"] if expected["single"] else 1.0
        for mode in ("single", "path"):
            plan = plan_query(query, table, mode=mode)
            pieces = greedy[mode]
            planned = [leaf.piece.edges for leaf in plan.tree.leaves()]
            assert planned[0] == pieces[0].edges, f"trial {trial} {mode}"
            assert sorted(map(sorted, planned)) == sorted(sorted(p.edges) for p in pieces)
            assert plan.expected == expected[mode]
            assert plan.relative == (xi if mode == "path" else 1.0)
            spine = _SpineCost(query, pieces, table)
            best = min(
                sum(spine.sizes([0, *perm])[:-1])
                for perm in itertools.permutations(range(1, len(pieces)))
            )
            assert sum(plan.estimated_sizes[:-1]) == pytest.approx(best, rel=1e-9), (
                f"trial {trial} {mode}"
            )
            index = {p.edges: i for i, p in enumerate(pieces)}
            order = [index[e] for e in planned]
            assert plan.estimated_sizes == spine.sizes(order)
            reordered += order != sorted(order)
        auto = plan_query(query, table, mode="auto")
        assert auto.strategy == choose_strategy(xi)
        assert auto.expected == expected["path" if auto.strategy == "PathLazy" else "single"]
    assert reordered, "no random query exercised a reorder"


def test_plan_builds_one_tree(monkeypatch, rng):
    built = []
    from_leaf_pieces = SJTree.from_leaf_pieces

    def counted(query, pieces):
        built.append(query)
        return from_leaf_pieces(query, pieces)

    monkeypatch.setattr(SJTree, "from_leaf_pieces", counted)
    for trial in range(20):
        schema = random_schema(rng)
        table = collect_stats(generate_stream(schema, 400, rng))
        query = random_query(schema, rng.randint(1, 6), rng)
        for mode in ("single", "path", "auto"):
            built.clear()
            plan_query(query, table, mode=mode)
            assert len(built) == 1, f"trial {trial} {mode}"


# ---------------------------------------------------------------- selectivity

def test_expected_selectivity_is_leaf_product():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    plan = plan_query(query, table, mode="single")
    prod = 1.0
    for leaf in plan.tree.leaves():
        prod *= table.selectivity(*primitive_key(query, leaf.piece.edges))
    assert plan.expected == pytest.approx(prod)
    assert plan.candidates["single"]["expected_selectivity"] == plan.expected
    assert prod == pytest.approx(0.02 * 0.98)
    # one 2-edge leaf in path mode: the pair's own selectivity
    assert plan_query(query, table, mode="path").expected == pytest.approx(1 / 41)


def test_relative_selectivity_ratio_and_zero_baseline():
    query = path_query(["r", "s"], vertex_label="A")
    table = skewed_table()
    plan = plan_query(query, table, mode="path")
    assert plan.relative == pytest.approx((1 / 41) / (0.02 * 0.98))
    assert plan.candidates["path"]["relative_selectivity"] == plan.relative
    # a never-observed single edge zeroes the baseline -> neutral ratio
    empty = SelectivityTable(sample_size=0)
    for mode in ("path", "auto"):
        assert plan_query(query, empty, mode=mode).relative == 1.0


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
    assert doc["estimated_sizes"] == plan.estimated_sizes
    assert len(plan.estimated_sizes) == len(plan.tree.leaves())


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


def test_planning_reads_path_keys_without_the_pair_sum(monkeypatch, rng):
    """plan_query and decomposition_advisories read a collect_stats table's
    path keys one at a time: the sum of every path key never runs, and the
    plans and notes equal those from the full table."""
    def refuse(tallies):
        raise AssertionError("planning summed every path key")

    path_leaves = 0
    for trial in range(30):
        schema = random_schema(rng)
        records = generate_stream(schema, 400, rng)
        query = random_query(schema, rng.randint(1, 6), rng)
        full = SelectivityTable.from_json(collect_stats(records).to_json())
        with monkeypatch.context() as patched:
            patched.setattr(stats, "_sum_pairs", refuse)
            table = collect_stats(records)
            for mode in ("single", "path", "auto"):
                plan = plan_query(query, table, mode=mode)
                assert plan_facts(plan) == plan_facts(plan_query(query, full, mode)), f"trial {trial} {mode}"
                notes = decomposition_advisories(plan.tree, table, mean_degree=1.0)
                assert notes == decomposition_advisories(plan.tree, full, mean_degree=1.0)
                path_leaves += sum(len(leaf.piece.edges) == 2 for leaf in plan.tree.leaves())
        assert table == full
    assert path_leaves > 0


# ----------------------------------------------------------------- plan pin

# blake2b-64 of the plan facts of every ``pinned_cases`` case in every mode,
# warnings de-duplicated in first-seen order
PINNED_PLANS_DIGEST = "3a2b1af96a2f196e"


def pinned_cases():
    """300 seeded (query, table) cases: random and social schemas, samples of
    30, 400 and 2000 edges, 1- to 8-edge queries."""
    for seed in range(300):
        rng = Random(seed)
        schema = random_schema(rng) if seed % 2 else social_schema()
        table = collect_stats(generate_stream(schema, (30, 400, 2000)[seed % 3], rng))
        yield random_query(schema, rng.randint(1, 8), rng), table


def test_plans_equal_the_pinned_plans():
    digest = hashlib.blake2b(digest_size=8)
    for query, table in pinned_cases():
        for mode in ("single", "path", "auto"):
            *facts, warnings, sizes = plan_facts(plan_query(query, table, mode))
            facts += [list(dict.fromkeys(warnings)), sizes]
            digest.update(repr(facts).encode())
    assert digest.hexdigest() == PINNED_PLANS_DIGEST
