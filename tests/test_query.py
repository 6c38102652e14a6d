"""Query patterns, pieces, matches, and the join algebra."""
from __future__ import annotations

from random import Random

import pytest

from dgquery.errors import ContractError, ParseError
from dgquery.query import (
    Match,
    QueryEdge,
    QueryGraph,
    QueryPiece,
    format_query,
    join,
    parse_query,
)

from conftest import q


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
    assert p01.intersection(p2).edges == frozenset()
    assert p01.intersection(p2).vertices == frozenset({0, 2})


def test_piece_connectivity():
    g = q("node 0 A\nnode 1 A\nnode 2 A\nnode 3 A\n"
          "edge 0 0 1 e\nedge 1 1 2 e\nedge 2 2 3 e")
    assert QueryPiece.from_edges(g, [0, 1]).is_connected(g)
    assert not QueryPiece.from_edges(g, [0, 2]).is_connected(g)
    assert QueryPiece(frozenset(), frozenset({1})).is_connected(g)
    assert not QueryPiece(frozenset(), frozenset({1, 2})).is_connected(g)


# -------------------------------------------------------------------- matches

def test_match_canonical_order_and_times():
    m = Match([(2, 30, 7), (0, 10, 3), (1, 20, 9)], {0: "a", 1: "b", 2: "c"})
    assert m.pairs == ((0, 10), (1, 20), (2, 30))
    assert m.times == (3, 9, 7)
    assert (m.t_min, m.t_max) == (3, 9)
    assert m.time_span() == 6
    assert m.pair_map == {0: 10, 1: 20, 2: 30}


def test_match_rejects_duplicate_qedge():
    with pytest.raises(ContractError):
        Match([(0, 10, 1), (0, 11, 2)], {0: "a"})


def test_match_rejects_non_injective_bindings():
    with pytest.raises(ContractError):
        Match([(0, 10, 1)], {0: "a", 1: "a"})


def test_empty_match():
    empty = Match((), {})
    assert empty.pairs == ()
    assert empty.t_min is None
    assert empty.time_span() == 0


def test_match_equality_and_hash():
    a = Match([(0, 1, 5)], {0: "x", 1: "y"})
    b = Match([(0, 1, 5)], {0: "x", 1: "y"})
    c = Match([(0, 2, 5)], {0: "x", 1: "y"})
    assert a == b and hash(a) == hash(b)
    assert a != c


# ----------------------------------------------------------------------- join

def test_join_identity_and_commutativity():
    m = Match([(0, 10, 3), (1, 20, 9)], {0: "a", 1: "b"})
    for other in (Match((), {}), Match((), {0: "a"})):
        left = join(m, other)
        right = join(other, m)
        assert left == right == m


def test_join_merges_disjoint_pieces():
    m1 = Match([(0, 10, 3)], {0: "a", 1: "b"})
    m2 = Match([(1, 20, 9)], {1: "b", 2: "c"})
    got = join(m1, m2)
    assert got is not None
    assert got.pairs == ((0, 10), (1, 20))
    assert got.bindings == {0: "a", 1: "b", 2: "c"}
    assert (got.t_min, got.t_max) == (3, 9)
    # the lazily built pair map of a merged match is still correct
    assert got.pair_map == {0: 10, 1: 20}


def test_join_conflicts():
    base = Match([(0, 10, 3)], {0: "a", 1: "b"})
    # same qedge bound to different data edges
    assert join(base, Match([(0, 11, 3)], {0: "a", 1: "b"})) is None
    # shared qvertex bound to different data vertices
    assert join(base, Match([(1, 20, 4)], {1: "c", 2: "d"})) is None
    # distinct qvertices landing on one data vertex (injectivity)
    assert join(base, Match([(1, 20, 4)], {2: "a"})) is None
    # two distinct qedges sharing one data edge
    assert join(base, Match([(1, 10, 3)], {1: "b", 2: "c"})) is None


def test_join_same_qedge_same_edge_is_fine():
    m1 = Match([(0, 10, 3), (1, 20, 5)], {0: "a", 1: "b"})
    m2 = Match([(1, 20, 5), (2, 30, 7)], {1: "b", 2: "c"})
    got = join(m1, m2)
    assert got is not None
    assert got.pairs == ((0, 10), (1, 20), (2, 30))
    assert got.times == (3, 5, 7)


def test_join_randomized_commutes_and_validates():
    # random consistent and inconsistent fragments: join(m1, m2) == join(m2, m1),
    # and a successful join preserves every constituent binding
    rng = Random(5)
    for _ in range(300):
        full_pairs = [(qe, qe + 100, rng.randrange(20)) for qe in range(5)]
        full_bind = {qv: f"v{qv}" for qv in range(6)}

        def fragment():
            pairs = [p for p in full_pairs if rng.random() < 0.5]
            bind = {qv: dv for qv, dv in full_bind.items() if rng.random() < 0.7}
            if rng.random() < 0.3:  # corrupt something
                if pairs and rng.random() < 0.5:
                    i = rng.randrange(len(pairs))
                    pairs[i] = (pairs[i][0], pairs[i][1] + 1000, pairs[i][2])
                elif bind:
                    k = rng.choice(sorted(bind))
                    bind[k] = f"w{rng.randrange(3)}"
            return Match(pairs, bind)

        m1, m2 = fragment(), fragment()
        ab, ba = join(m1, m2), join(m2, m1)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba
            for src in (m1, m2):
                for qv, dv in src.bindings.items():
                    assert ab.bindings[qv] == dv
                for qe, de in src.pairs:
                    assert ab.pair_map[qe] == de
            assert ab.t_min == min((x for x in (m1.t_min, m2.t_min) if x is not None), default=None)
