"""Engines: primitive search, per-edge deltas, lazy gating."""
from __future__ import annotations

import gc
import itertools
import math
import platform
from collections import Counter
from random import Random

import pytest

from dgquery import engine
from dgquery import graph as graph_module
from dgquery.baseline import RescanEngine
from dgquery.engine import Engine, match_primitive, search_plan
from dgquery.errors import LabelConflictError, UnsupportedPrimitiveError
from dgquery.generate import (
    generate_stream,
    kpartite_query,
    kpartite_schema,
    random_query,
    random_schema,
    social_schema,
)
from dgquery.graph import DynamicGraph, format_edge_line, parse_edge_line
from dgquery.planner import plan_query
from dgquery.query import Match, QueryEdge, QueryGraph, QueryPiece
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable, collect_stats

from conftest import (
    cross_check,
    engines_for,
    path_query,
    q,
    raw,
    signatures,
    stored_form,
    watch_searches,
)


def rare_first_table():
    return SelectivityTable(sample_size=100, arity1={("A", "r", "A"): 1, ("A", "s", "A"): 99})


# ----------------------------------------------------------- match_primitive

def anchored(graph, query, piece, anchor):
    """``match_primitive`` with the searches ``piece``'s plan holds for the
    anchor's label, as the engine passes them."""
    return match_primitive(graph, search_plan(query, piece).get(anchor[5], ()), anchor)


def test_match_primitive_single_edge():
    query = path_query(["e"], vertex_label="A")
    g = DynamicGraph()
    rec = g.add_edge(raw(0, "a", "e", "b"))
    piece = QueryPiece.from_edges(query, [0])
    got = anchored(g, query, piece, rec)
    assert got == [stored_form(Match.of(query, [(0, 0, 0)], {0: "a", 1: "b"}))]
    # label-incompatible anchors match nothing
    other = g.add_edge(raw(1, "a", "f", "b"))
    assert anchored(g, query, piece, other) == []


def test_match_primitive_two_edge_extension():
    query = path_query(["e", "f"], vertex_label="A")
    piece = QueryPiece.from_edges(query, [0, 1])
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    rec = g.add_edge(raw(1, "b", "f", "c"))
    got = anchored(g, query, piece, rec)
    assert got == [stored_form(Match.of(query, [(0, 0, 0), (1, 1, 1)], {0: "a", 1: "b", 2: "c"}))]


def test_match_primitive_automorphic_roles():
    # two parallel same-label qedges: the anchor serves either role
    query = q("node 0 A\nnode 1 A\nedge 0 0 1 e\nedge 1 0 1 e")
    piece = QueryPiece.from_edges(query, [0, 1])
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    rec = g.add_edge(raw(1, "a", "e", "b"))
    got = anchored(g, query, piece, rec)
    bind = {0: "a", 1: "b"}
    assert sorted(got) == sorted([
        stored_form(Match.of(query, [(0, 0, 0), (1, 1, 1)], bind)),
        stored_form(Match.of(query, [(0, 1, 1), (1, 0, 0)], bind)),
    ])


def test_match_primitive_injectivity():
    # v0 -> v1 -> v2 must not reuse one data vertex for v0 and v2
    query = path_query(["e", "e"], vertex_label="A")
    piece = QueryPiece.from_edges(query, [0, 1])
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    rec = g.add_edge(raw(1, "b", "e", "a"))
    assert anchored(g, query, piece, rec) == []
    rec2 = g.add_edge(raw(2, "b", "e", "c"))
    got = anchored(g, query, piece, rec2)
    assert got == [stored_form(Match.of(query, [(0, 0, 0), (1, 2, 2)], {0: "a", 1: "b", 2: "c"}))]


def test_match_primitive_self_loops():
    loop_q = q("node 0 A\nedge 0 0 0 e")
    piece = QueryPiece.from_edges(loop_q, [0])
    g = DynamicGraph()
    plain = g.add_edge(raw(0, "a", "e", "b"))
    assert anchored(g, loop_q, piece, plain) == []
    looped = g.add_edge(raw(1, "c", "e", "c"))
    got = anchored(g, loop_q, piece, looped)
    assert got == [stored_form(Match.of(loop_q, [(0, 1, 1)], {0: "c"}))]
    # conversely a data loop cannot serve a two-vertex qedge
    path_q = path_query(["e"], vertex_label="A")
    ppiece = QueryPiece.from_edges(path_q, [0])
    assert anchored(g, path_q, ppiece, looped) == []


def _connected_shapes(max_edges: int) -> list[tuple[tuple[int, int], ...]]:
    """Every connected directed multigraph of 1 to ``max_edges`` edges, loops
    allowed, up to renaming its vertices, as (src, dst) pairs over dense
    vertex ids."""
    shapes = set()
    for n_edges in range(1, max_edges + 1):
        for n_verts in range(1, n_edges + 2):
            pairs = list(itertools.product(range(n_verts), repeat=2))
            for edges in itertools.product(pairs, repeat=n_edges):
                if {v for e in edges for v in e} != set(range(n_verts)):
                    continue
                reach, grew = {0}, True
                while grew:
                    grew = False
                    for s, d in edges:
                        if (s in reach) != (d in reach):
                            reach.update((s, d))
                            grew = True
                if len(reach) < n_verts:
                    continue
                shapes.add(min(
                    tuple(sorted((p[s], p[d]) for s, d in edges))
                    for p in itertools.permutations(range(n_verts))
                ))
    return sorted(shapes, key=lambda s: (len(s), s))


PIECE_SHAPES = _connected_shapes(3)


def _brute_force_bindings(query, piece_edges, records):
    """Every injective binding of ``piece_edges`` to the edge ``records``,
    as the flat tuple ``match_primitive`` returns, by trying every
    combination of edges whose labels fit."""
    qes = sorted(piece_edges)
    labels = query.vertex_labels
    cands = [
        [r for r in records if (r[5], r[3], r[4]) == (e.label, labels[e.src], labels[e.dst])]
        for e in (query.edges[qe] for qe in qes)
    ]
    found = []
    for combo in itertools.product(*cands):
        ids = [r[0] for r in combo]
        if len(set(ids)) < len(ids):
            continue
        verts: dict[int, str] = {}
        if any(
            verts.setdefault(qv, dv) != dv
            for qe, r in zip(qes, combo)
            for qv, dv in ((query.edges[qe].src, r[1]), (query.edges[qe].dst, r[2]))
        ):
            continue
        if len(set(verts.values())) < len(verts):
            continue
        edges = [None] * query.n_edges
        for qe, eid in zip(qes, ids):
            edges[qe] = eid
        flat_verts = [verts.get(qv) for qv in range(query.n_vertices)]
        found.append((min(r[6] for r in combo), *edges, *flat_verts))
    return found


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_match_primitive_equals_brute_force_on_every_small_piece(seed):
    # the shapes include paths in each orientation, in- and out-stars, both
    # triangle orientations, parallel and antiparallel pairs, and loops alone
    # and with a neighbour
    assert {
        ((0, 1), (1, 2)), ((0, 1), (2, 1)), ((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (3, 2)),
        ((0, 1), (0, 2), (0, 3)), ((0, 1), (2, 1), (3, 1)), ((0, 1), (1, 2), (2, 0)), ((0, 1), (0, 2), (1, 2)),
        ((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 0),), ((0, 0), (0, 1)), ((0, 0), (1, 0)),
    } <= set(PIECE_SHAPES)
    rng = Random(seed)
    # a small multigraph with parallel edges, antiparallel edges and loops,
    # on mostly one vertex type so that automorphic roles come up often
    kinds = {"a": "A", "b": "A", "c": "A", "d": "A", "x": "B"}
    records = []
    for ts in range(40):
        src = rng.choice(sorted(kinds))
        dst = src if rng.random() < 0.15 else rng.choice(sorted(kinds))
        records.append(raw(ts // 2, src, rng.choice("ef"), dst, kinds[src], kinds[dst]))
    records.append(raw(20, "a", "e", "b"))
    records.append(raw(20, "a", "e", "b"))  # a parallel pair, same label
    graph = DynamicGraph(window=16)  # the oldest edges leave
    for r in records:
        graph.add_edge(r)
    live = list(graph.live_edges())
    assert any(r[1] == r[2] for r in live)
    # anchors no list holds, at u and w (live only by unindexed edges, so
    # their lists are ()) and at zz (not in the table): a search reads both
    # kinds of vertex as having no edges, so each such anchor finds what a
    # brute force over the live edges plus that anchor finds
    kinds.update(u="A", w="B", zz="A")
    graph.add_edge(raw(20, "u", "g", "w", "A", "B"), False)
    graph.add_edge(raw(20, "a", "g", "u"), False)
    assert graph.vertex_table["u"].outgoing == graph.vertex_table["w"].incoming == ()
    assert "zz" not in graph.vertex_table
    ends = [("zz", "a"), ("a", "zz"), ("zz", "zz"), ("u", "a"), ("a", "u"), ("u", "u"), ("u", "zz"), ("w", "u"), ("x", "w")]
    unlisted = [
        (1000 + i, s, d, kinds[s], kinds[d], label, 20)
        for i, ((s, d), label) in enumerate(itertools.product(ends, "ef"))
    ]
    unlisted_ids = {r[0] for r in unlisted}
    checked = unlisted_checked = 0
    for shape in PIECE_SHAPES:
        n_verts = 1 + max(v for e in shape for v in e)
        for uniform in (True, False):
            # the piece's qedges take shuffled ids in a query with one more
            # qedge and qvertex, so results keep unbound slots
            vlabels = ["A"] * n_verts if uniform else [rng.choice("AAB") for _ in range(n_verts)]
            qedges = [QueryEdge(s, d, "e" if uniform else rng.choice("ef")) for s, d in shape]
            qedges.append(QueryEdge(0, n_verts, "f"))
            rng.shuffle(qedges)
            query = QueryGraph(vlabels + ["A"], qedges)
            piece = [i for i, e in enumerate(qedges) if e.dst != n_verts]
            plan = search_plan(query, QueryPiece.from_edges(query, piece))
            # no search calls a graph method: each reads the vertex table
            for searches in plan.values():
                for search in searches:
                    assert not {"out_edges", "in_edges"} & set(search.__code__.co_names)
            every = _brute_force_bindings(query, piece, live + unlisted)
            for anchor in live + unlisted:
                got = match_primitive(graph, plan.get(anchor[5], ()), anchor)
                want = [
                    m for m in every
                    if anchor[0] in m[1:1 + query.n_edges]
                    and not unlisted_ids.intersection(m[1:1 + query.n_edges]) - {anchor[0]}
                ]
                assert Counter(got) == Counter(want), (shape, qedges, anchor)
                checked += len(want)
                if anchor[0] in unlisted_ids:
                    unlisted_checked += len(want)
    assert checked > 0 and unlisted_checked > 0


def test_match_primitive_guards():
    # an empty, oversized or disconnected piece has no search plan
    query = path_query(["e", "e", "e", "e"], vertex_label="A")
    with pytest.raises(UnsupportedPrimitiveError):
        search_plan(query, QueryPiece(frozenset(), frozenset()))
    with pytest.raises(UnsupportedPrimitiveError):
        search_plan(query, QueryPiece.from_edges(query, [0, 1, 2, 3]))
    with pytest.raises(UnsupportedPrimitiveError):
        search_plan(query, QueryPiece.from_edges(query, [0, 2]))


# ------------------------------------------------------------------- engines

def test_per_edge_deltas_hand_checked():
    query = path_query(["e", "f"], vertex_label="A")
    records = [
        raw(0, "a", "e", "b"),
        raw(1, "b", "f", "c"),
        raw(2, "d", "e", "b"),
        raw(3, "b", "f", "g"),
    ]
    plan = plan_query(query, collect_stats(records), mode="single")
    eng = Engine(query, plan.tree, window=None)
    deltas = [signatures(eng.process(r)) for r in records]
    assert deltas[0] == set()
    assert deltas[1] == {((0, 0), (1, 1))}
    assert deltas[2] == {((0, 2), (1, 1))}
    assert deltas[3] == {((0, 0), (1, 3)), ((0, 2), (1, 3))}
    assert eng.counters.emitted == 4
    assert len(eng.log) == 4
    assert {m.pairs for m in eng.log} == set().union(*deltas)


def test_window_boundary_exact():
    query = path_query(["e", "f"], vertex_label="A")
    w = 5

    def emissions(gap: int) -> int:
        records = [raw(0, "a", "e", "b"), raw(gap, "b", "f", "c")]
        total = 0
        for name, eng in engines_for(query, records, w):
            eng2 = RescanEngine(query, w)
            n = sum(len(eng.process(r)) for r in records)
            n_vf2 = sum(len(eng2.process(r)) for r in records)
            assert n == n_vf2, name
            total = n
        return total

    assert emissions(w) == 0  # span == window: too old by exactly one tick
    assert emissions(w - 1) == 1


def test_triangle_automorphism_signatures():
    query = q(
        "node 0 A\nnode 1 A\nnode 2 A\n"
        "edge 0 0 1 e\nedge 1 1 2 e\nedge 2 2 0 e"
    )
    records = [
        raw(0, "x", "e", "y"),
        raw(0, "y", "e", "z"),
        raw(0, "z", "e", "x"),
    ]
    for name, eng in engines_for(query, records, None):
        deltas = [signatures(eng.process(r)) for r in records]
        assert deltas[0] == deltas[1] == set(), name
        # the closing edge reveals the triangle in all three rotations
        assert deltas[2] == {
            ((0, 0), (1, 1), (2, 2)),
            ((0, 1), (1, 2), (2, 0)),
            ((0, 2), (1, 0), (2, 1)),
        }, name


def test_lazy_retroactive_search_after_late_enable():
    # the leaf-1 edge arrives before anything enables it; the later leaf-0
    # match must sweep it back in within the same step
    query = path_query(["r", "s"], vertex_label="A")
    plan = plan_query(query, rare_first_table(), mode="single")
    assert plan.tree.leaves()[0].piece.edges == {0}
    eager = Engine(query, plan.tree, None)
    plan2 = plan_query(query, rare_first_table(), mode="single")
    lazy = Engine(query, plan2.tree, None, lazy=True)
    records = [raw(0, "b", "s", "c"), raw(1, "a", "r", "b")]
    for eng in (eager, lazy):
        assert signatures(eng.process(records[0])) == set()
        assert signatures(eng.process(records[1])) == {((0, 1), (1, 0))}
    # the gated engine skipped the step-0 search and swept it back at step 1
    assert lazy.counters.match_calls <= eager.counters.match_calls


def test_lazy_skips_unreachable_searches():
    query = path_query(["r", "s"], vertex_label="A")
    plan = plan_query(query, rare_first_table(), mode="single")
    lazy = Engine(query, plan.tree, None, lazy=True)
    # many 's' edges nowhere near any 'r' match: no leaf-1 search ever runs
    for i in range(20):
        lazy.process(raw(i, f"x{i}", "s", f"y{i}"))
    assert lazy.counters.match_calls == 0
    plan2 = plan_query(query, rare_first_table(), mode="single")
    eager = Engine(query, plan2.tree, None)
    for i in range(20):
        eager.process(raw(i, f"x{i}", "s", f"y{i}"))
    assert eager.counters.match_calls == 20


def test_cross_join_leaf_stays_live():
    # a decomposition whose middle leaf shares no vertex with the first:
    # its empty cut cannot gate anything, so lazy mode keeps it always on
    query = path_query(["e", "f", "g"], vertex_label="A")
    pieces = [QueryPiece.from_edges(query, ids) for ids in ([0], [2], [1])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    lazy = Engine(query, tree, None, lazy=True)
    assert [i for i, cuts in enumerate(lazy._allowed) if not cuts] == [0, 1]  # always on
    records = [
        raw(0, "c", "g", "d"),
        raw(1, "b", "f", "c"),
        raw(2, "a", "e", "b"),
    ]
    tree2 = SJTree.from_leaf_pieces(query, pieces)
    eager = Engine(query, tree2, None)
    for r in records:
        assert signatures(lazy.process(r)) == signatures(eager.process(r))
    assert len(lazy.log) == 1


def test_purge_interval_equivalence(monkeypatch):
    rng = Random(17)
    schema = random_schema(rng)
    records = generate_stream(schema, 150, rng, edges_per_tick=3)
    query = random_query(schema, 2, rng)
    table = collect_stats(records)
    runs = []
    # 1 << 30 is longer than the stream: that run never purges
    for interval in (1 << 30, 1, 64):
        monkeypatch.setattr(engine, "PURGE_INTERVAL", interval)
        plan = plan_query(query, table, mode="single")
        eng = Engine(query, plan.tree, 5, lazy=True)
        sigs = [signatures(eng.process(r)) for r in records]
        runs.append(sigs)
    assert runs[0] == runs[1] == runs[2]


def test_unbounded_window_equals_an_over_long_one(rng, monkeypatch):
    # the unbounded window is the infinite one under the same expiry rule: a
    # window one tick longer than the stream's span keeps every edge too, so
    # every engine emits the same matches at every step under both, ends
    # with the same edges and purges nothing, though with a short purge
    # interval its purges run at a finite cutoff
    monkeypatch.setattr(engine, "PURGE_INTERVAL", 8)
    emitted = 0
    for trial in range(8):
        schema = random_schema(rng)
        records = generate_stream(schema, rng.randrange(40, 120), rng, edges_per_tick=3)
        query = random_query(schema, rng.randint(1, 4), rng)
        runs = []
        for window in (None, records[-1][0] - records[0][0] + 1):
            engines = [*engines_for(query, records, window), ("vf2", RescanEngine(query, window))]
            runs.append({
                name: ([signatures(eng.process(r)) for r in records], eng.graph.edge_count, eng.counters.purged)
                for name, eng in engines
            })
        assert runs[0] == runs[1], f"trial {trial}"
        assert all(purged == 0 for _, _, purged in runs[0].values()), f"trial {trial}"
        emitted += sum(map(len, runs[0]["vf2"][0]))
    assert emitted


def test_sweep_at_an_old_edge_joins_only_live_matches(monkeypatch):
    # the b edge y->k arrives at t=5 while y is gated, and is swept at t=14
    # when the a edge q->y lands; by then the c edge k->z (t=1) has left the
    # window, so its stored leaf match must not join, though it is within a
    # window of the swept edge
    query = path_query(["a", "b", "c"], vertex_label="A")
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [i]) for i in range(3)])
    eng = Engine(query, tree, 10, lazy=True)
    searches = watch_searches(monkeypatch, eng)
    records = [raw(0, "p", "a", "x"), raw(0, "x", "b", "k"), raw(1, "k", "c", "z"),
               raw(5, "y", "b", "k"), raw(14, "q", "a", "y")]
    deltas = [signatures(eng.process(r)) for r in records]
    assert deltas == [set(), set(), {((0, 0), (1, 1), (2, 2))}, set(), set()]
    assert searches[-2:] == [(0, 4), (1, 3)]  # the sweep did search the old b edge


def test_gated_multi_edge_leaf_stores_each_match_once(monkeypatch):
    # path plan {0,1}, {2,3}: the d edge holds no cut qvertex of leaf 1, so
    # it passes the gate and is searched on arrival, finding the c-d match;
    # when the a-b prefix lands, the sweep around y searches the c edge,
    # which finds the same match again and drops it, as the c edge is not
    # its newest edge
    query = path_query(["a", "b", "c", "d"], vertex_label="A")
    records = [raw(0, "y", "c", "z"), raw(1, "z", "d", "u"), raw(2, "w", "a", "x"), raw(3, "x", "b", "y")]
    plan = plan_query(query, collect_stats(records), mode="path")
    leaf1 = plan.tree.leaves()[1]
    assert leaf1.piece.edges == {2, 3}
    eng = Engine(query, plan.tree, None, lazy=True)
    searches = watch_searches(monkeypatch, eng)
    deltas = [eng.process(r) for r in records]
    assert searches == [(1, 1), (0, 2), (0, 3), (1, 0)]
    cd = stored_form(Match.of(query, [(2, 0, 0), (3, 1, 1)], {2: "y", 3: "z", 4: "u"}))
    assert [m for bucket in leaf1.table.values() for m in bucket] == [cd]
    assert [len(d) for d in deltas] == [0, 0, 0, 1]


def test_gated_leaf_stores_the_b_c_match_once_from_its_newest_edge(monkeypatch):
    # path plan {0}, {1,2}: the c edge holds no cut qvertex of leaf 1, so it
    # is searched on arrival and finds the one b-c match, whose newest edge
    # it is; when the a edge lands, the sweep around y searches the b edge,
    # which finds the match again and drops it.  The tree stores whatever it
    # is given, so the engine alone keeps the match from being stored twice
    query = path_query(["a", "b", "c"], vertex_label="A")
    pieces = [QueryPiece.from_edges(query, [0]), QueryPiece.from_edges(query, [1, 2])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    _, leaf1 = tree.leaves()
    eng = Engine(query, tree, None, lazy=True)
    searches = watch_searches(monkeypatch, eng)
    records = [raw(0, "y", "b", "z"), raw(1, "z", "c", "u"), raw(2, "x", "a", "y")]
    deltas = [eng.process(r) for r in records]
    assert searches == [(1, 1), (0, 2), (1, 0)]
    stored = [m for bucket in leaf1.table.values() for m in bucket]
    assert stored == [stored_form(Match.of(query, [(1, 0, 0), (2, 1, 1)], {1: "y", 2: "z", 3: "u"}))]
    assert [len(d) for d in deltas] == [0, 0, 1]
    tree.insert_and_propagate(leaf1.node_id, stored[0], -math.inf, lambda m: None)
    assert sum(len(b) for b in leaf1.table.values()) == 2


def _small_streams(rng: Random, queries: list, trials: int):
    """``trials`` random (query, records, window) over four vertices and
    the labels a and b, with a query drawn from ``queries`` each time."""
    for _ in range(trials):
        query = rng.choice(queries)
        ts, records = 0, []
        for _ in range(rng.randrange(4, 16)):
            ts += rng.randrange(2)
            records.append(raw(ts, f"v{rng.randrange(4)}", rng.choice("ab"), f"v{rng.randrange(4)}"))
        yield query, records, rng.choice((3, None))


@pytest.mark.parametrize("mode", ["path", "single"])
def test_lazy_engine_searches_each_edge_once_per_leaf(mode):
    # what no record of past searches enforces: a lazy engine searches each
    # (leaf, edge) at most once, holds no match twice in a leaf table, and
    # searches each leaf no more often than the eager engine on the same
    # tree, emitting what it emits.  The path streams are 3- and 4-edge
    # paths; the single ones add a triangle, a loop qedge, whose cut qvertex
    # a sweep walks both ways, and a fan of a-edges out of q0, where the
    # edge that stores a spine match sits at the vertex it allows
    paths = [path_query(["a", "b", "a", "b"][:n], vertex_label="A") for n in (3, 4)]
    others = [
        q("node 0 A\nnode 1 A\nnode 2 A\nedge 0 0 1 a\nedge 1 1 2 b\nedge 2 2 0 a"),
        q("node 0 A\nnode 1 A\nnode 2 A\nedge 0 0 1 a\nedge 1 1 1 b\nedge 2 1 2 a"),
        q("node 0 A\nnode 1 A\nnode 2 A\nnode 3 A\nedge 0 0 1 a\nedge 1 0 2 b\nedge 2 0 3 a"),
    ]
    if mode == "path":
        streams = _small_streams(Random(5), paths, 300)
    else:
        streams = _small_streams(Random(6), paths + others, 200)
    for trial, (query, records, window) in enumerate(streams):
        plan = plan_query(query, collect_stats(records), mode=mode)
        pieces = [leaf.piece for leaf in plan.tree.leaves()]
        runs = []
        for lazy in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                # a tree drives one engine: each builds its own from the same leaves
                eng = Engine(query, SJTree.from_leaf_pieces(query, pieces), window, lazy=lazy)
                leaves = eng.tree.leaves()
                searches = watch_searches(mp, eng)
                deltas = []
                for step, r in enumerate(records):
                    delta = eng.process(r)
                    deltas.append(signatures(delta))
                    assert len(delta) == len(deltas[-1]), (trial, step)
                    for leaf in leaves:
                        stored = [m[1:1 + query.n_edges] for bucket in leaf.table.values() for m in bucket]
                        assert len(stored) == len(set(stored)), (trial, step)
            runs.append((deltas, searches))
        (lazy_deltas, lazy_searches), (eager_deltas, eager_searches) = runs
        assert lazy_deltas == eager_deltas, trial
        assert len(lazy_searches) == len(set(lazy_searches)), trial
        for i in range(len(leaves)):
            assert sum(idx == i for idx, _ in lazy_searches) <= sum(idx == i for idx, _ in eager_searches), trial


def triangle_engine():
    """A triangle a: q0->q1, b: q1->q2, c: q2->q0 over leaves [a], [b], [c],
    lazy: leaf 1 is gated on q1, leaf 2 on its cut {q0, q2}."""
    query = q("node 0 A\nnode 1 A\nnode 2 A\nedge 0 0 1 a\nedge 1 1 2 b\nedge 2 2 0 c")
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [i]) for i in range(3)])
    assert tree.nodes[tree.leaves()[2].parent].cut_verts == (0, 2)
    return Engine(query, tree, None, lazy=True)


def test_role_gate_needs_every_cut_end_of_a_role(monkeypatch):
    # once the spine x->y->z is stored, leaf c may hold an edge only as
    # q2->q0 = z->x: z->w binds q0 to a vertex no spine match binds there,
    # and y->x binds q2 to y, which the spine binds to q1, so neither is
    # searched, though each touches a spine vertex
    eng = triangle_engine()
    searches = watch_searches(monkeypatch, eng)
    records = [raw(0, "x", "a", "y"), raw(1, "y", "b", "z"), raw(2, "z", "c", "w"),
               raw(3, "y", "c", "x"), raw(4, "z", "c", "x")]
    deltas = [signatures(eng.process(r)) for r in records]
    assert deltas == [set(), set(), set(), set(), {((0, 0), (1, 1), (2, 4))}]
    assert searches == [(0, 0), (1, 1), (2, 4)]
    assert eng.counters.match_calls == 3
    assert eng._allowed[2] == {0: {"x"}, 2: {"z"}}


def test_sweep_searches_an_edge_that_came_before_its_spine(monkeypatch):
    # the c edge z->x arrives first and is not searched; the b edge that
    # completes the spine x->y->z allows x at q0 and z at q2, and the sweep
    # finds the c edge and emits the triangle on that same step
    eng = triangle_engine()
    searches = watch_searches(monkeypatch, eng)
    records = [raw(0, "z", "c", "x"), raw(1, "x", "a", "y"), raw(2, "y", "b", "z")]
    deltas = [signatures(eng.process(r)) for r in records]
    assert deltas == [set(), set(), {((0, 1), (1, 2), (2, 0))}]
    assert searches == [(0, 1), (1, 2), (2, 0)]


def test_a_sweep_at_a_vertex_with_no_lists_searches_nothing(monkeypatch):
    # the engine queues sweeps at the vertices of stored spine matches,
    # which always have lists, so these two are queued by hand, with the
    # sweep of leaf 1: one at u, kept live only by a non-query edge (its
    # lists are ()), and one at zz, which the table lacks; neither walks an
    # edge or searches, and each allows its vertex
    eng = triangle_engine()
    queued = []
    drain = Engine._drain

    def spying(self, arriving):
        queued.extend(self._pending)
        drain(self, arriving)

    monkeypatch.setattr(Engine, "_drain", spying)
    eng.process(raw(0, "u", "x", "w"))
    eng.process(raw(1, "p", "a", "q"))  # the spine match p->q queues a sweep at q
    [(sweep, v)] = queued
    assert v == "q" and eng.graph.vertex_table["u"].outgoing == () and "zz" not in eng.graph.vertex_table
    counters = dict(vars(eng.counters))
    eng._pending.extend([(sweep, "u"), (sweep, "zz")])
    eng._drain(None)
    assert vars(eng.counters) == counters
    assert eng._allowed[1] == {1: {"q", "u", "zz"}}
    # an edge out of u now passes leaf 1's gate on arrival and is searched
    searches = watch_searches(monkeypatch, eng)
    assert eng.process(raw(2, "u", "b", "w")) == []
    assert searches == [(1, 2)]


def test_gate_sets_stay_bounded_on_fresh_vertices(monkeypatch):
    # fresh host ids every 50 ticks, 30 of them live at a time, window 40:
    # a gate set that only grows gains every host ever bound, while the
    # prune drops the dead ones once the entries double, and the engine
    # emits exactly what an engine that never prunes emits
    rng = Random(3)
    records = []
    for i in range(30_000):
        ts = i // 10
        gen = ts // 50
        records.append(raw(ts, f"h{gen}.{rng.randrange(30)}", rng.choice("abcxyz"), f"h{gen}.{rng.randrange(30)}"))
    query = path_query(["a", "b", "c"], vertex_label="A")

    def tree():
        return SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [i]) for i in range(3)])

    def entries(eng):
        return sum(len(allowed) for cuts in eng._allowed for allowed in cuts.values())

    monkeypatch.setattr(engine, "GATE_MIN_PRUNE", 1 << 30)
    unpruned = Engine(query, tree(), 40, lazy=True)
    monkeypatch.undo()
    eng = Engine(query, tree(), 40, lazy=True)
    for step, r in enumerate(records):
        assert signatures(eng.process(r)) == signatures(unpruned.process(r)), step
        assert entries(eng) <= 2 * engine.GATE_MIN_PRUNE, step
    assert eng.counters.emitted > 0
    assert entries(unpruned) > 2 * engine.GATE_MIN_PRUNE


def test_label_conflict_seen_only_through_a_non_query_edge():
    # the engine's store keeps no record of the x edges, yet they keep their
    # endpoints live under their labels, so the engine rejects exactly the
    # edges the rescan baseline, which stores every edge, rejects
    query = path_query(["e", "e"], vertex_label="A")
    records = [
        raw(0, "a", "x", "b"),  # only a non-query edge labels a and b
        raw(1, "a", "e", "c", src_type="B"),  # a is live as A: rejected
        raw(2, "c", "e", "b", dst_type="B"),  # so is b
        raw(3, "d", "x", "d", src_type="A", dst_type="B"),  # a self-loop with two labels
        raw(5, "p", "x", "q"),  # the x edge of t=0 expires
        raw(5, "b", "e", "c", src_type="B"),  # so b may be B now
        raw(6, "c", "x", "b"),  # and is live as B: rejected
        raw(7, "c", "e", "b", dst_type="B"),
    ]
    plan = plan_query(query, collect_stats([records[0], records[6]]), mode="single")
    engines = [Engine(query, plan.tree, 5, lazy=True), RescanEngine(query, 5)]
    outcomes = []
    for eng in engines:
        seen = []
        for r in records:
            try:
                seen.append(signatures(eng.process(r)))
            except LabelConflictError:
                seen.append("conflict")
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == [set(), "conflict", "conflict", "conflict", set(), set(), "conflict", set()]
    assert engines[0].graph.edge_count == 2 and engines[1].graph.edge_count == 3


def test_vertex_made_by_a_non_query_edge_is_searched_and_evicted():
    # a, b and c come in through x edges, which no qedge carries, so the
    # engine's store gives them no lists; each gets them with its first e
    # edge (a self-loop at a), then matches and expires like any vertex
    query = path_query(["e", "e"], vertex_label="A")
    records = [
        raw(0, "a", "x", "b"),
        raw(0, "c", "x", "a"),
        raw(1, "a", "e", "a"),
        raw(2, "a", "e", "b"),
        raw(3, "c", "e", "a"),
        raw(4, "b", "e", "c"),
        raw(9, "p", "x", "q"),  # every edge before it has expired
        raw(10, "q", "e", "p"),
    ]
    cross_check(query, records, 5)
    plan = plan_query(query, collect_stats(records), mode="single")
    eng = Engine(query, plan.tree, 5, lazy=True)
    for r in records[:2]:
        eng.process(r)
    assert {vid: (v.outgoing, v.incoming) for vid, v in eng.graph.vertex_table.items()} == {
        "a": ((), ()), "b": ((), ()), "c": ((), ())
    }
    emitted = [len(eng.process(r)) for r in records[2:]]
    assert emitted == [0, 0, 1, 2, 0, 0]
    assert list(eng.graph.out_edges("a")) == [] and sorted(dict(eng.graph.vertices())) == ["p", "q"]
    # a, b and c are dead and wait in the table for the next prune
    i = 0
    while len(eng.graph.vertex_table) + 2 <= graph_module._VERTEX_MIN_PRUNE:
        eng.process(raw(10, f"v{i}", "x", f"w{i}"))
        i += 1
    eng.process(raw(10, "m", "x", "n"))
    assert not {"a", "b", "c"} & set(eng.graph.vertex_table)


def test_vertex_table_stays_bounded_on_fresh_vertices(monkeypatch):
    # fresh host ids every 5 ticks, 10 edges a tick, window 20, and 7 of 10
    # labels outside the query: a vertex last touched by an edge of such a
    # label is kept by its stamp and expires with no edge to evict, so a
    # table that only dropped vertices on eviction would keep nearly every
    # host ever seen; the prune keeps it within twice its live vertices or
    # the floor, and the engine emits exactly what an engine that never
    # prunes emits
    rng = Random(7)
    labels = "abcuvwxyzq"
    records = []
    for i in range(200_000):
        ts = i // 10
        gen = ts // 5
        records.append(raw(ts, f"h{gen}.{rng.randrange(20)}", rng.choice(labels), f"h{gen}.{rng.randrange(20)}"))
    query = path_query(["a", "b", "c"], vertex_label="A")

    def tree():
        return SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [i]) for i in range(3)])

    monkeypatch.setattr(engine, "GATE_MIN_PRUNE", 1 << 30)
    monkeypatch.setattr(graph_module, "_VERTEX_MIN_PRUNE", 1 << 30)
    unpruned = Engine(query, tree(), 20, lazy=True)
    monkeypatch.undo()
    eng = Engine(query, tree(), 20, lazy=True)
    floor = graph_module._VERTEX_MIN_PRUNE
    for step, r in enumerate(records):
        assert signatures(eng.process(r)) == signatures(unpruned.process(r)), step
        size = len(eng.graph.vertex_table)
        if size > 2 * floor:  # counting the live vertices takes a pass
            assert size <= 2 * len(dict(eng.graph.vertices())), step
    assert eng.counters.emitted > 0
    assert vars(eng.counters) == vars(unpruned.counters)
    assert len(unpruned.graph.vertex_table) > 10 * floor
    assert len(dict(unpruned.graph.vertices())) == len(dict(eng.graph.vertices()))


def windowed_social_engines():
    """Engines after a seeded windowed social stream that emits, per plan
    mode and engine mode."""
    rng = Random(2)
    schema = social_schema()
    records = generate_stream(schema, 600, rng, edges_per_tick=4)
    query = random_query(schema, 3, rng)
    table = collect_stats(records)
    for mode in ("single", "path"):
        for lazy in (True, False):
            plan = plan_query(query, table, mode=mode)
            eng = Engine(query, plan.tree, 20, lazy=lazy)
            for r in records:
                eng.process(r)
            assert eng.counters.emitted > 0
            yield (mode, lazy), eng


def windowed_social_runs():
    """The join trees of :func:`windowed_social_engines`."""
    for run, eng in windowed_social_engines():
        yield run, eng.tree


def test_stored_signatures_track_stored_matches():
    # the search filter feeds each leaf match into the tree once, so every
    # match a leaf holds has its own edge signature, also after the
    # in-bucket stale sweep and the periodic purge have dropped some
    for run, tree in windowed_social_runs():
        edge_slots = slice(1, 1 + tree.query.n_edges)
        for node in tree.leaves():
            stored = [m[edge_slots] for bucket in node.table.values() for m in bucket]
            assert len(set(stored)) == len(stored), (run, node.node_id)


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="tuple untracking is CPython's"
)
def test_stored_matches_leave_the_garbage_collector():
    # the tree stores flat tuples of ints, strings and None, which the
    # collector stops tracking once it finds all they hold untracked: a
    # stored match is one such object, so the first collection that sees it
    # untracks it
    for run, tree in windowed_social_runs():
        gc.collect()
        stored = [m for node in tree.nodes for bucket in node.table.values() for m in bucket]
        assert stored, run
        for m in stored:
            assert type(m) is tuple and not gc.is_tracked(m), (run, m)


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="tuple untracking is CPython's"
)
def test_stored_edges_leave_the_garbage_collector():
    # the store keeps each indexed edge as one exact tuple of ints and
    # strings, which the first collection that sees it stops tracking
    for run, eng in windowed_social_engines():
        gc.collect()
        graph = eng.graph
        listed = [rec for vid, _ in graph.vertices() for rec in (*graph.out_edges(vid), *graph.in_edges(vid))]
        live = list(graph.live_edges())
        assert listed and live, run
        for rec in listed + live:
            assert type(rec) is tuple and not gc.is_tracked(rec), (run, rec)


def test_raw_edges_and_parsed_lines_run_alike():
    # every engine reads an edge by position or by unpacking, so the RawEdge
    # a generator builds and the plain tuple parse_edge_line gives for its
    # line make the same emissions, step by step, and the same counters
    for seed in range(4):
        rng = Random(1800 + seed)
        schema = social_schema() if seed % 2 else random_schema(rng)
        records = generate_stream(schema, 300, rng, edges_per_tick=4)
        query = random_query(schema, 3, rng)
        parsed = [parse_edge_line(format_edge_line(r)) for r in records]
        assert parsed == records and {type(p) for p in parsed} == {tuple}
        # format_edge_line unpacks its edge, so it takes the plain tuple too
        assert [format_edge_line(p) for p in parsed] == [format_edge_line(r) for r in records]
        runs = []
        for edges in (records, parsed):
            engines = engines_for(query, edges, 20) + [("vf2", RescanEngine(query, 20))]
            runs.append([
                (name, [[(m.flat, m.t_max) for m in eng.process(r)] for r in edges], vars(eng.counters))
                for name, eng in engines
            ])
        assert runs[0] == runs[1], seed
        assert all(counters["emitted"] > 0 for _, _, counters in runs[0]), seed


def test_no_node_table_keeps_an_empty_bucket():
    # a bucket emptied by the in-bucket stale sweep leaves the table with
    # its last match
    for run, tree in windowed_social_runs():
        for node in tree.nodes:
            assert all(node.table.values()), (run, node.node_id)


def test_a_wrapper_on_insert_and_propagate_sees_every_leaf_match(monkeypatch):
    # the engine makes one tree call per leaf match, looked up on the class
    # at every feed, so a wrapper set on SJTree.insert_and_propagate, as a
    # span tracer sets one, sees every leaf match and changes no emission;
    # the climb above the leaf runs inside the compiled inserts
    rng = Random(2)
    schema = social_schema()
    records = generate_stream(schema, 600, rng, edges_per_tick=4)
    query = random_query(schema, 3, rng)
    table = collect_stats(records)

    def run():
        eng = Engine(query, plan_query(query, table, mode="single").tree, None, lazy=True)
        return eng, [signatures(eng.process(r)) for r in records]

    _, plain = run()
    seen = []
    real = SJTree.insert_and_propagate

    def recording(tree, node_id, m, cutoff, emit):
        seen.append((node_id, m))
        return real(tree, node_id, m, cutoff, emit)

    monkeypatch.setattr(SJTree, "insert_and_propagate", recording)
    eng, wrapped = run()
    assert wrapped == plain and any(plain)
    # an unbounded window purges and compacts nothing, so each leaf still
    # holds every match inserted there, and nothing was inserted elsewhere
    stored = Counter((leaf.node_id, m) for leaf in eng.tree.leaves() for b in leaf.table.values() for m in b)
    assert Counter(seen) == stored and len(eng.tree.leaves()) == 3


def test_emitted_counts_the_log_and_the_edge_deltas(rng):
    # process counts an edge's emissions once, from its delta, so the count,
    # the log and the deltas agree over random streams, eager and lazy,
    # on multi-leaf plans and on one-leaf plans, whose leaf is the root
    one_leaf = many_leaves = 0
    for _ in range(30):
        schema = random_schema(rng)
        records = generate_stream(schema, rng.randrange(40, 160), rng, edges_per_tick=3)
        query = random_query(schema, rng.randint(1, 4), rng)
        table = collect_stats(records)
        window = rng.choice((4, None))
        for mode, lazy in itertools.product(("single", "path"), (False, True)):
            eng = Engine(query, plan_query(query, table, mode=mode).tree, window, lazy=lazy)
            deltas = [eng.process(r) for r in records]
            assert eng.counters.emitted == len(eng.log) == sum(map(len, deltas))
            assert eng.log == [m for delta in deltas for m in delta]
            if eng.log:
                one_leaf += len(eng.tree.nodes) == 1
                many_leaves += len(eng.tree.nodes) > 1
    assert one_leaf > 10 and many_leaves > 10


def test_engine_rejects_foreign_tree():
    query = path_query(["e"], vertex_label="A")
    other = path_query(["f"], vertex_label="A")
    tree = SJTree.from_leaf_pieces(other, [QueryPiece.from_edges(other, [0])])
    with pytest.raises(ValueError):
        Engine(query, tree, None)


@pytest.mark.parametrize("second_lazy", [False, True])
def test_a_tree_drives_one_engine(second_lazy):
    # the tree holds the first engine's match state and calls its hook, so
    # a second engine over it is refused and the first emits as if alone
    query = path_query(["r", "s"], vertex_label="A")
    plan = plan_query(query, rare_first_table(), mode="single")
    lazy = Engine(query, plan.tree, None, lazy=True)
    assert signatures(lazy.process(raw(0, "a", "r", "b"))) == set()
    with pytest.raises(ValueError, match="already drives an engine"):
        Engine(query, plan.tree, None, lazy=second_lazy)
    assert signatures(lazy.process(raw(1, "b", "s", "c"))) == {((0, 0), (1, 1))}
    assert lazy.tree.stored_count == 2


def test_randomized_strategies_match_oracle(rng):
    # a compact version of the full acceptance sweep, kept quick for -k runs
    for trial in range(12):
        schema = random_schema(rng)
        records = generate_stream(schema, rng.randrange(40, 120), rng, edges_per_tick=3)
        query = random_query(schema, rng.randint(1, 4), rng)
        window = rng.choice((5, None))
        calls = cross_check(query, records, window)
        assert calls["singlelazy"] <= calls["single"], f"trial {trial}"
        assert calls["pathlazy"] <= calls["path"], f"trial {trial}"


def test_labels_that_read_as_code_are_matched_as_data(monkeypatch):
    # quotes, a backslash, a comment mark, braces and a call: the searches
    # must treat every label and vertex type as a plain string
    odd = ['a"b', "c'd\\", "#e", "{f}", "__import__('os')"]
    sources = []

    def compiling(source, *rest):
        sources.append(source)
        return compile(source, *rest)

    monkeypatch.setattr(engine, "compile", compiling, raising=False)
    query = QueryGraph(
        [odd[4], odd[2], odd[3], odd[0]],
        [QueryEdge(0, 1, odd[0]), QueryEdge(1, 2, odd[1]), QueryEdge(3, 2, odd[3]), QueryEdge(2, 2, odd[4])],
    )
    rng = Random(29)
    kinds = {f"{t}{i}": t for t in query.vertex_labels for i in range(3)}
    of_kind = {t: [v for v in sorted(kinds) if kinds[v] == t] for t in query.vertex_labels}
    records = []
    for ts in range(300):
        # mostly edges that fit some qedge, with a few that fit none
        e = rng.choice(query.edges)
        src = rng.choice(of_kind[query.vertex_labels[e.src]])
        dst = src if e.src == e.dst else rng.choice(of_kind[query.vertex_labels[e.dst]])
        label = e.label if rng.random() < 0.9 else rng.choice(odd)
        records.append(raw(ts // 3, src, label, dst, kinds[src], kinds[dst]))
    cross_check(query, records, 30)
    # the generated searches name no label or type
    assert sources and not [src for src in sources for text in odd if text in src]
    eng = engines_for(query, records, 30)[1][1]  # path leaves: 2-edge searches
    assert any(len(leaf.piece.edges) == 2 for leaf in eng.tree.leaves())
    assert sum(len(eng.process(r)) for r in records) > 0


def test_kpartite_template_matches_oracle(rng):
    schema = kpartite_schema(k=3, pool=6)
    records = generate_stream(schema, 120, rng, edges_per_tick=4)
    query = kpartite_query(k=3)
    cross_check(query, records, 5)
