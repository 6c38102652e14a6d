"""Query patterns, pieces, matches, and the join of sibling matches."""
from __future__ import annotations

import math
from collections import Counter
from random import Random

import pytest

from dgquery.errors import ContractError, ParseError
from dgquery.generate import generate_stream, random_query, random_schema
from dgquery.planner import CATALOG_MODES, plan_query
from dgquery.query import (
    Match,
    QueryEdge,
    QueryGraph,
    QueryPiece,
    format_query,
    parse_query,
)

from dgquery.sjtree import SJTree, join
from dgquery.stats import collect_stats

from conftest import drive_alone, key_of, path_query, q, stored_form


TRIANGLE = """
node 0 A
node 1 A
node 2 B
edge 0 0 1 e
edge 1 1 2 e
edge 2 2 0 f
"""


# ---------------------------------------------------------------- query graph

def test_query_graph_validation():
    with pytest.raises(ValueError):
        QueryGraph([], [QueryEdge(0, 0, "e")])
    with pytest.raises(ValueError):
        QueryGraph(["A"], [])
    with pytest.raises(ValueError):
        QueryGraph(["A", "B"], [QueryEdge(0, 2, "e")])
    with pytest.raises(ValueError):  # disconnected
        QueryGraph(["A", "B", "C", "D"], [QueryEdge(0, 1, "e"), QueryEdge(2, 3, "e")])
    with pytest.raises(ValueError, match="must be connected"):  # an isolated vertex
        QueryGraph(["A", "B", "C"], [QueryEdge(0, 1, "e")])


def test_query_graph_accessors():
    g = q(TRIANGLE)
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g.vertex_label(2) == "B"
    assert g.edge_endpoints(1) == (1, 2)
    assert g == q(TRIANGLE)
    assert hash(g) == hash(q(TRIANGLE))
    assert g != q("node 0 A\nedge 0 0 0 e")


def test_parse_format_round_trip():
    g = q(TRIANGLE)
    assert parse_query(format_query(g)) == g
    # str and line-iterable input agree
    assert parse_query(format_query(g).splitlines()) == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("node 0 A\nvertex 1 B", "unknown directive"),
        ("node 0 A\nnode 0 B\nedge 0 0 0 e", "duplicate node"),
        ("node 0 A\nedge 0 0 0 e\nedge 0 0 0 e", "duplicate edge"),
        ("node 1 A\nedge 0 1 1 e", "dense ordinals"),
        ("node 0 A\nedge 1 0 0 e", "dense ordinals"),
        ("node 0 A\nedge 0 0 1 e", "unknown node"),
        ("node 0 A\nnode 1 B", "at least one edge"),
        ("node 0", "want: node"),
        ("edge 0 0 1", "want: edge"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises((ParseError, ValueError)) as ei:
        parse_query(text)
    assert fragment in str(ei.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse_query("node 0 A\nbogus line\n", source="q.txt")
    assert "q.txt" in str(ei.value)
    assert "line 2" in str(ei.value)


# --------------------------------------------------------------------- pieces

def test_piece_from_edges_and_set_algebra():
    g = q(TRIANGLE)
    p01 = QueryPiece.from_edges(g, [0, 1])
    assert p01.edges == frozenset({0, 1})
    assert p01.vertices == frozenset({0, 1, 2})
    p2 = QueryPiece.from_edges(g, [2])
    assert p01.union(p2).edges == frozenset({0, 1, 2})


def test_piece_connectivity():
    g = q("node 0 A\nnode 1 A\nnode 2 A\nnode 3 A\n"
          "edge 0 0 1 e\nedge 1 1 2 e\nedge 2 2 3 e")
    assert QueryPiece.from_edges(g, [0, 1]).is_connected(g)
    assert not QueryPiece.from_edges(g, [0, 2]).is_connected(g)


# -------------------------------------------------------------------- matches

PATH2 = path_query(["e", "f"])  # 2 qedges, 3 qvertices
PATH3 = path_query(["e", "f", "g"])  # 3 qedges, 4 qvertices


def test_match_canonical_order_and_times():
    m = Match.of(PATH3, [(2, 30, 7), (0, 10, 3), (1, 20, 9)], {0: "a", 1: "b", 2: "c"})
    assert m.edges == (10, 20, 30)
    assert m.verts == ("a", "b", "c", None)
    assert m.pairs == ((0, 10), (1, 20), (2, 30))
    assert (m.t_min, m.t_max) == (3, 9)
    assert m.time_span() == 6


def test_match_reads_its_slots_off_one_flat_tuple():
    # a match keeps the join tree's (t_min, *edges, *verts) tuple; its edge
    # and vertex slots and t_min are read-only views of it
    m = Match.of(PATH3, [(2, 30, 7), (0, 10, 3)], {0: "a", 3: "d"})
    assert m.flat == (3, 10, None, 30, "a", None, None, "d")
    assert (m.edges, m.verts, m.t_min, m.t_max) == ((10, None, 30), ("a", None, None, "d"), 3, 7)
    for name in ("edges", "verts", "t_min"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)


def test_match_rejects_duplicate_qedge():
    with pytest.raises(ContractError):
        Match.of(PATH3, [(0, 10, 1), (0, 11, 2)], {0: "a"})


def test_match_rejects_shared_data_edge():
    with pytest.raises(ContractError):
        Match.of(PATH3, [(0, 10, 1), (1, 10, 1)], {})


def test_match_rejects_non_injective_bindings():
    with pytest.raises(ContractError):
        Match.of(PATH3, [(0, 10, 1)], {0: "a", 1: "a"})


def test_empty_match():
    empty = Match.of(PATH3, (), {})
    assert empty.pairs == ()
    assert empty.edges == (None, None, None)
    assert empty.t_min is None
    assert empty.time_span() == 0


def test_match_equality_and_hash():
    a = Match.of(PATH3, [(0, 1, 5)], {0: "x", 1: "y"})
    b = Match.of(PATH3, [(0, 1, 5)], {1: "y", 0: "x"})
    c = Match.of(PATH3, [(0, 2, 5)], {0: "x", 1: "y"})
    assert a == b and hash(a) == hash(b)
    assert a != c


# ----------------------------------------------------------------------- join
# join(m, bucket, node, cutoff, out) merges m, stored at a tree node, with
# each match of its sibling's bucket under the same key, so the shared
# qvertices already agree; all are the tree's flat (t_min, *edges, *verts)
# tuples.  It passes each result to out and returns the stale count.  A
# driven tree's inserts run the same probe inline: check_insert runs the
# pairwise reference through them too.

def sibling_leaves(query, *edge_sets):
    pieces = [QueryPiece.from_edges(query, ids) for ids in edge_sets]
    return SJTree.from_leaf_pieces(query, pieces).leaves()


def join_one(m, m_s, node):
    """The join of ``m`` with the one-entry bucket ``[m_s]``: its result or None."""
    out = []
    assert join(m, [m_s], node, -math.inf, out.append) == 0
    assert len(out) <= 1
    return out[0] if out else None


def pairwise_join(query, m, bucket, cutoff):
    """Reference for ``join``, one bucket entry at a time and from the
    definition of a match, not from the node's slots: (results, stale count).

    An entry with ``t_min <= cutoff`` is stale.  Otherwise
    the two sides merge slot by slot, and the merge is a match when no slot
    is bound two ways and no data edge or data vertex fills two slots."""
    out, stale = [], 0
    for m_s in bucket:
        if m_s[0] <= cutoff:
            stale += 1
            continue
        if any(a is not None and b is not None and a != b for a, b in zip(m[1:], m_s[1:])):
            continue
        slots = [b if a is None else a for a, b in zip(m[1:], m_s[1:])]
        edges = [x for x in slots[: query.n_edges] if x is not None]
        verts = [x for x in slots[query.n_edges :] if x is not None]
        if len(set(edges)) == len(edges) and len(set(verts)) == len(verts):
            out.append((min(m[0], m_s[0]), *slots))
    return out, stale


def join_all(m, bucket, node, cutoff):
    out = []
    stale = join(m, bucket, node, cutoff, out.append)
    return out, stale


T_LAST = 50  # the stand-in graph's t_last, which stamps the emissions


def driven_tree(query, *edge_sets):
    """The tree over leaves of ``edge_sets``, driven with no engine."""
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, ids) for ids in edge_sets])
    drive_alone(tree, T_LAST)
    return tree


def check_insert(tree, node, m, bucket, cutoff):
    """Empty every table of the driven ``tree``, seed the sibling's with
    ``bucket`` under ``m``'s key, insert ``m`` at ``node``, and check it
    against ``pairwise_join``: the joined matches reach the sink the insert
    is given, stamped ``T_LAST``, in bucket order, or the parent's table; the
    sibling's bucket is compacted to its live entries exactly when its stale
    entries are the majority; ``m`` is stored; ``stored_count`` and
    ``peak_stored`` count all of it.  Returns whether it compacted."""
    want, stale = pairwise_join(tree.query, m, bucket, cutoff)
    for n in tree.nodes:
        n.table.clear()  # in place: the compiled inserts hold the tables
    key, sib, parent = key_of(tree, node, m), tree.nodes[node.sibling], tree.nodes[node.parent]
    if bucket:
        sib.table[key] = list(bucket)
    tree.stored_count = tree.peak_stored = len(bucket)
    out = []
    tree.insert_and_propagate(node.node_id, m, cutoff, out.append)
    if parent.node_id == tree.root_id:
        assert [x.flat for x in out] == want
        assert all(x.t_max == T_LAST and x.n_edges == tree.query.n_edges for x in out)
        up = 0
    else:
        assert out == []
        assert Counter(x for b in parent.table.values() for x in b) == Counter(want)
        up = len(want)
    compacted = stale * 2 > len(bucket)
    assert sib.table.get(key, []) == ([x for x in bucket if x[0] > cutoff] if compacted else bucket)
    assert node.table == {key: [m]}
    dropped = stale if compacted else 0
    assert tree.stored_count == len(bucket) + up - dropped + 1
    assert tree.peak_stored == len(bucket) + up + (dropped == 0)
    return compacted


def test_join_identity_and_commutativity():
    leaf0, leaf1 = sibling_leaves(PATH2, [0], [1])
    m0 = stored_form(Match.of(PATH2, [(0, 10, 3)], {0: "a", 1: "b"}))
    m1 = stored_form(Match.of(PATH2, [(1, 20, 9)], {1: "b", 2: "c"}))
    left, right = join_one(m0, m1, leaf0), join_one(m1, m0, leaf1)
    assert left == right
    # each side's bound slots come through unchanged
    for m in (m0, m1):
        assert all(x is None or x == got for x, got in zip(m[1:], left[1:]))


def test_join_merges_disjoint_pieces():
    leaf0, leaf1 = sibling_leaves(PATH2, [0], [1])
    m0 = stored_form(Match.of(PATH2, [(0, 10, 3)], {0: "a", 1: "b"}))
    m1 = stored_form(Match.of(PATH2, [(1, 20, 9)], {1: "b", 2: "c"}))
    got = join_one(m0, m1, leaf0)
    # both sides' slots, and the older t_min, from either side
    assert got == join_one(m1, m0, leaf1) == (3, 10, 20, "a", "b", "c")


def test_join_looks_up_only_the_edge_and_vertex_slots():
    # a data edge id may equal a timestamp: the sibling's edge 10 must not
    # be taken for one of m's edges because m's t_min is 10
    leaf0, leaf1 = sibling_leaves(PATH2, [0], [1])
    m0 = stored_form(Match.of(PATH2, [(0, 3, 10)], {0: "a", 1: "b"}))
    m1 = stored_form(Match.of(PATH2, [(1, 10, 12)], {1: "b", 2: "c"}))
    assert m0[0] == m1[2] == 10  # t_min and qedge 1, at slot 1 + 1
    assert join_one(m0, m1, leaf0) == join_one(m1, m0, leaf1) == (10, 3, 10, "a", "b", "c")
    # while a sibling vertex already bound in m is still refused
    taken = stored_form(Match.of(PATH2, [(1, 10, 12)], {1: "b", 2: "a"}))
    assert join_one(m0, taken, leaf0) is None
    assert join_one(taken, m0, leaf1) is None


def test_join_conflicts():
    # a shared qvertex bound two ways never meets a join: the key keeps the
    # two apart (test_sjtree's mismatched-cut test)
    leaf0, _ = sibling_leaves(PATH2, [0], [1])
    base = stored_form(Match.of(PATH2, [(0, 10, 3)], {0: "a", 1: "b"}))
    # two distinct qedges sharing one data edge
    assert join_one(base, stored_form(Match.of(PATH2, [(1, 10, 3)], {1: "b", 2: "c"})), leaf0) is None
    # distinct qvertices landing on one data vertex (injectivity)
    assert join_one(base, stored_form(Match.of(PATH2, [(1, 20, 4)], {1: "b", 2: "a"})), leaf0) is None


def test_join_randomized_commutes_and_validates():
    # random fragments of a two-leaf tree that agree on the cut vertex 2:
    # the join commutes, and it succeeds exactly when the validating
    # constructor accepts the union of both sides, with the same result
    leaf0, leaf1 = sibling_leaves(PATH3, [0, 1], [2])
    rng = Random(5)
    joined = 0
    for _ in range(300):
        pool = [f"v{i}" for i in range(5)]
        lv = rng.sample(pool, 3)
        rv = [lv[2], rng.choice(pool)]
        if rv[1] == rv[0]:
            continue
        l_items = [(0, rng.randrange(4), rng.randrange(20)), (1, 4 + rng.randrange(4), rng.randrange(20))]
        r_items = [(2, rng.randrange(8), rng.randrange(20))]
        l_bind, r_bind = dict(enumerate(lv)), {2: rv[0], 3: rv[1]}
        left = Match.of(PATH3, l_items, l_bind)
        right = Match.of(PATH3, r_items, r_bind)
        ls, rs = stored_form(left), stored_form(right)
        ab, ba = join_one(ls, rs, leaf0), join_one(rs, ls, leaf1)
        try:
            want = stored_form(Match.of(PATH3, l_items + r_items, {**l_bind, **r_bind}))
        except ContractError:
            want = None
        # the stored form holds t_min, so equality covers it too
        assert ab == ba == want
        if want is not None:
            joined += 1
    assert 0 < joined < 300


def test_join_walks_a_mixed_bucket_like_the_pairwise_reference():
    # one probe over a bucket holding stale entries at and below the cutoff,
    # an edge-id clash, a vertex clash, and live entries older and newer
    # than m: the stale ones are counted, the clashes dropped, and each
    # result takes the older t_min, in bucket order
    leaf0, _ = sibling_leaves(PATH2, [0], [1])
    m = stored_form(Match.of(PATH2, [(0, 10, 5)], {0: "a", 1: "b"}))
    bucket = [
        (3, None, 30, None, "b", "c"),  # stale: t_min == cutoff
        (7, None, 10, None, "b", "d"),  # edge 10 already serves m
        (4, None, 33, None, "b", "e"),  # older than m
        (1, None, 31, None, "b", "c"),  # stale: below the cutoff
        (8, None, 32, None, "b", "a"),  # vertex a already serves m
        (9, None, 34, None, "b", "f"),  # newer than m
    ]
    got = join_all(m, bucket, leaf0, 3)
    assert got == ([(4, 10, 33, "a", "b", "e"), (5, 10, 34, "a", "b", "f")], 2)
    assert got == pairwise_join(PATH2, m, bucket, 3)
    tree = driven_tree(PATH2, [0], [1])
    assert not check_insert(tree, tree.leaves()[0], m, bucket, 3)  # 2 stale of 6 stay


def test_join_without_cutoff_keeps_negative_timestamps():
    # cutoff -inf, the unbounded window's, keeps every entry, however old:
    # it is below every timestamp
    leaf0, _ = sibling_leaves(PATH2, [0], [1])
    m = stored_form(Match.of(PATH2, [(0, 10, 5)], {0: "a", 1: "b"}))
    oldest = -(2**70)
    bucket = [(oldest, None, 30, None, "b", "c"), (-1, None, 31, None, "b", "d"), (0, None, 32, None, "b", "e")]
    want = [(oldest, 10, 30, "a", "b", "c"), (-1, 10, 31, "a", "b", "d"), (0, 10, 32, "a", "b", "e")]
    assert join_all(m, bucket, leaf0, -math.inf) == (want, 0) == pairwise_join(PATH2, m, bucket, -math.inf)
    assert join_all(m, bucket, leaf0, -1) == (want[2:], 2)
    tree = driven_tree(PATH2, [0], [1])
    assert not check_insert(tree, tree.leaves()[0], m, bucket, -math.inf)
    assert check_insert(tree, tree.leaves()[0], m, bucket, -1)  # 2 stale of 3 go


def test_join_randomized_against_the_pairwise_reference():
    # random probes from either leaf of a two-leaf tree into random buckets
    # of the other leaf, all agreeing on the cut vertex 2, with timestamps
    # around a random cutoff (or -inf, the unbounded window's)
    tree = driven_tree(PATH3, [0, 1], [2])
    leaf0, leaf1 = tree.leaves()
    rng = Random(11)
    pool = [f"v{i}" for i in range(5)]

    def left(cut):
        v0, v1 = rng.sample([v for v in pool if v != cut], 2)
        e0, e1 = rng.sample(range(6), 2)
        return (rng.randrange(-5, 20), e0, e1, None, v0, v1, cut, None)

    def right(cut):
        v3 = rng.choice([v for v in pool if v != cut])
        return (rng.randrange(-5, 20), None, None, rng.randrange(6), None, None, cut, v3)

    joined = stale = compacted = 0
    for _ in range(400):
        cut = rng.choice(pool)
        cutoff = rng.choice([-math.inf, rng.randrange(-5, 20)])
        n = rng.randrange(7)
        if rng.random() < 0.5:
            node, m, bucket = leaf0, left(cut), [right(cut) for _ in range(n)]
        else:
            node, m, bucket = leaf1, right(cut), [left(cut) for _ in range(n)]
        got = join_all(m, bucket, node, cutoff)
        assert got == pairwise_join(PATH3, m, bucket, cutoff)
        compacted += check_insert(tree, node, m, bucket, cutoff)
        joined += len(got[0])
        stale += got[1]
    assert joined > 100 and stale > 100 and compacted > 50


def random_leaves(query, rng):
    """A random left-to-right list of connected leaves of 1–3 qedges that
    covers ``query``; a leaf may share no vertex with the ones before it."""
    left, pieces = set(range(query.n_edges)), []
    while left:
        ids = [rng.choice(sorted(left))]
        for _ in range(rng.randrange(3)):
            touching = sorted(
                qe for qe in left - set(ids)
                if {query.edges[qe].src, query.edges[qe].dst} & QueryPiece.from_edges(query, ids).vertices
            )
            if touching:
                ids.append(rng.choice(touching))
        left -= set(ids)
        pieces.append(QueryPiece.from_edges(query, ids))
    rng.shuffle(pieces)
    return pieces


def random_stored(query, piece, rng, fixed):
    """A random stored match of ``piece`` as a flat tuple: the qvertices in
    ``fixed`` bound as given, the others injectively to vertices of a small
    pool, qedges injectively to small data edge ids, and a t_min in the same
    small range, so an edge id often equals a timestamp."""
    flat = [None] * (1 + query.n_edges + query.n_vertices)
    flat[0] = rng.randrange(8)
    for qe, eid in zip(sorted(piece.edges), rng.sample(range(8), len(piece.edges))):
        flat[1 + qe] = eid
    verts = dict(fixed)
    free = sorted(piece.vertices - verts.keys())
    pool = [v for v in "abcdefgh" if v not in verts.values()]
    verts.update(zip(free, rng.sample(pool, len(free))))
    for qv in piece.vertices:
        flat[1 + query.n_edges + qv] = verts[qv]
    return tuple(flat)


def test_compiled_joins_against_the_pairwise_reference_on_planned_trees():
    # every (node, sibling) of planner trees in each catalog mode and of
    # random leaf lists (1–3-qedge leaves, cross joins among them): probes
    # into buckets under m's key that mix stale and live entries, clashes
    # and edge ids equal to m's t_min, with cutoffs down to -inf, by join
    # and through the driven tree's inserts; no generated code holds data
    rng = Random(23)
    probes = results = stale = dropped = cross = tied = compacted = 0
    for trial in range(40):
        schema = random_schema(rng)
        table = collect_stats(generate_stream(schema, 300, rng))
        query = random_query(schema, rng.randint(2, 6), rng)
        trees = [plan_query(query, table, mode=mode).tree for mode in CATALOG_MODES]
        trees.append(SJTree.from_leaf_pieces(query, random_leaves(query, rng)))
        for tree in trees:
            drive_alone(tree, T_LAST)
            for node in tree.nodes:
                if node.sibling is None:
                    continue
                sib = tree.nodes[node.sibling]
                cross += not tree.nodes[node.parent].cut_verts
                for _ in range(10):
                    m = random_stored(query, node.piece, rng, {})
                    cut = {qv: m[1 + query.n_edges + qv] for qv in tree.nodes[node.parent].cut_verts}
                    bucket = [random_stored(query, sib.piece, rng, cut) for _ in range(rng.randrange(6))]
                    assert all(key_of(tree, node, m) == key_of(tree, sib, x) for x in bucket)
                    cutoff = rng.choice([-math.inf, rng.randrange(-1, 8)])
                    got = join_all(m, bucket, node, cutoff)
                    assert got == pairwise_join(query, m, bucket, cutoff), f"trial {trial}: {tree.serialize()}"
                    compacted += check_insert(tree, node, m, bucket, cutoff)
                    probes += 1
                    results += len(got[0])
                    stale += got[1]
                    dropped += len(bucket) - got[1] - len(got[0])
                    tied += any(m[0] in x[1:1 + query.n_edges] for x in bucket)
            codes = [n.insert.__code__ for n in tree.nodes if n.insert is not None]
            codes += [n.join_fn.__code__ for n in tree.nodes if n.sibling is not None]  # compiled by now
            for code in codes:
                assert all(c is None or type(c) is int for c in code.co_consts), code.co_consts
    assert probes > 1000 and min(results, stale, dropped) > 500 and cross > 10 and tied > 200 and compacted > 200
