"""Decomposition tree: structure, join keys, propagation, plan text."""
from __future__ import annotations

import math
from random import Random

import pytest

from dgquery.errors import PlanError
from dgquery.generate import generate_stream, random_query, random_schema
from dgquery.planner import plan_query
from dgquery.query import Match, QueryPiece
from dgquery.sjtree import SJTree, join
from dgquery.stats import collect_stats

from conftest import drive_alone, key_of, path_query, q


def two_leaf_tree():
    query = path_query(["e", "f"], vertex_label="A")
    pieces = [QueryPiece.from_edges(query, [0]), QueryPiece.from_edges(query, [1])]
    return query, SJTree.from_leaf_pieces(query, pieces)


# ---------------------------------------------------------------- construction

def test_from_leaf_pieces_builds_left_deep():
    query = path_query(["e", "f", "g"])
    pieces = [QueryPiece.from_edges(query, [i]) for i in range(3)]
    tree = SJTree.from_leaf_pieces(query, pieces)
    assert len(tree.nodes) == 5
    leaves = tree.leaves()
    assert [n.leaf_index for n in leaves] == [0, 1, 2]
    root = tree.nodes[tree.root_id]
    assert not root.is_leaf
    assert tree.nodes[root.right].is_leaf  # right child of every internal is a leaf
    inner = tree.nodes[root.left]
    assert not inner.is_leaf
    assert tree.nodes[inner.right].is_leaf and tree.nodes[inner.left].is_leaf
    # cuts are child-piece intersections
    assert inner.cut_verts == (1,)
    assert root.cut_verts == (2,)
    assert root.piece.edges == frozenset({0, 1, 2})


def test_from_leaf_pieces_single_leaf():
    query = path_query(["e"])
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [0])])
    root = tree.nodes[tree.root_id]
    assert root.is_leaf
    assert root.leaf_index == 0


@pytest.mark.parametrize(
    "edge_sets,fragment",
    [
        ([], "at least one leaf"),
        ([[0], []], "must contain edges"),
        ([[0, 1], [1]], "edge-disjoint"),
        ([[0]], "cover the query"),
    ],
)
def test_from_leaf_pieces_validation(edge_sets, fragment):
    query = path_query(["e", "f"])
    pieces = [QueryPiece.from_edges(query, ids) for ids in edge_sets]
    with pytest.raises(ValueError) as ei:
        SJTree.from_leaf_pieces(query, pieces)
    assert fragment in str(ei.value)


# ----------------------------------------------------------------- propagation

def emitted_via(tree, inserts, cutoff):
    """Drive the tree and insert each (node id, Match) in its stored form;
    return what reaches the root, in the same form, from the one sink every
    insert is given."""
    drive_alone(tree)
    out = []
    for node_id, m in inserts:
        tree.insert_and_propagate(node_id, m.flat, cutoff, out.append)
    return [match.flat for match in out]


def test_insert_joins_across_siblings():
    query, tree = two_leaf_tree()
    leaf0, leaf1 = tree.leaves()
    m0 = Match.of(query, [(0, 10, 1)], {0: "a", 1: "b"})
    m1 = Match.of(query, [(1, 20, 2)], {1: "b", 2: "c"})
    got = emitted_via(tree, [(leaf0.node_id, m0), (leaf1.node_id, m1)], -math.inf)
    assert got == [Match.of(query, [(0, 10, 1), (1, 20, 2)], {0: "a", 1: "b", 2: "c"}).flat]
    assert tree.stored_count == 2  # both leaf matches; the root stores nothing
    # a one-vertex cut keys by that vertex's binding itself
    assert list(leaf0.table) == list(leaf1.table) == ["b"]


def test_join_key_orders_cut_elements():
    # a two-vertex cut: keys list the cut bindings in qvertex-id order, so
    # matches agree on the key however their bindings were written
    query = q("node 0 A\nnode 1 A\nedge 0 0 1 e\nedge 1 1 0 f")
    pieces = [QueryPiece.from_edges(query, [0]), QueryPiece.from_edges(query, [1])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    leaf0, leaf1 = tree.leaves()
    m0 = Match.of(query, [(0, 10, 1)], {1: "y", 0: "x"})
    swapped = Match.of(query, [(1, 20, 2)], {0: "y", 1: "x"})
    m1 = Match.of(query, [(1, 21, 3)], {0: "x", 1: "y"})
    got = emitted_via(tree, [(leaf0.node_id, m0), (leaf1.node_id, swapped), (leaf1.node_id, m1)], -math.inf)
    assert list(leaf0.table) == [("x", "y")]
    assert list(leaf1.table) == [("y", "x"), ("x", "y")]
    assert got == [Match.of(query, [(0, 10, 1), (1, 21, 3)], {0: "x", 1: "y"}).flat]


def test_join_key_empty_cut_is_shared():
    # leaves 0 and 1 share no vertex: every match of either lands under the
    # one empty key, so each pair is cross-joined
    query = path_query(["e", "f", "g"], vertex_label="A")
    pieces = [QueryPiece.from_edges(query, ids) for ids in ([0], [2], [1])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    leaf0, leaf1, leaf2 = tree.leaves()
    inserts = [
        (leaf0.node_id, Match.of(query, [(0, 1, 0)], {0: "a", 1: "b"})),
        (leaf0.node_id, Match.of(query, [(0, 4, 0)], {0: "x", 1: "y"})),
        (leaf1.node_id, Match.of(query, [(2, 3, 0)], {2: "c", 3: "d"})),
        (leaf2.node_id, Match.of(query, [(1, 2, 0)], {1: "b", 2: "c"})),
    ]
    got = emitted_via(tree, inserts, -math.inf)
    assert list(leaf0.table) == list(leaf1.table) == [()]
    cross = tree.nodes[leaf0.parent]
    assert sum(len(bucket) for bucket in cross.table.values()) == 2
    whole = Match.of(query, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], {0: "a", 1: "b", 2: "c", 3: "d"})
    assert got == [whole.flat]


def test_each_emission_goes_to_the_sink_of_its_own_insert():
    # a path e, f in two leaves: each insert that completes a match hands it
    # to the emit it was given, and no other sink sees it; an insert that
    # completes nothing leaves its sink empty
    query, tree = two_leaf_tree()
    drive_alone(tree)
    leaf0, leaf1 = tree.leaves()
    sinks = {name: [] for name in ("first", "second", "third")}
    inserts = [
        (leaf0, [(0, 10, 1)], {0: "a", 1: "b"}, "first"),
        (leaf1, [(1, 20, 2)], {1: "b", 2: "c"}, "second"),  # joins a-b
        (leaf0, [(0, 11, 3)], {0: "x", 1: "b"}, "third"),  # joins b-c
    ]
    for leaf, items, bind, name in inserts:
        tree.insert_and_propagate(leaf.node_id, Match.of(query, items, bind).flat, -math.inf, sinks[name].append)
    whole = {0: "a", 1: "b", 2: "c"}
    assert [m.flat for m in sinks["second"]] == [Match.of(query, [(0, 10, 1), (1, 20, 2)], whole).flat]
    assert [m.flat for m in sinks["third"]] == [Match.of(query, [(0, 11, 3), (1, 20, 2)], {**whole, 0: "x"}).flat]
    assert sinks["first"] == [] and all(m.n_edges == 2 for m in sinks["second"] + sinks["third"])


def test_insert_mismatched_cut_does_not_join():
    query, tree = two_leaf_tree()
    leaf0, leaf1 = tree.leaves()
    m0 = Match.of(query, [(0, 10, 1)], {0: "a", 1: "b"})
    m1 = Match.of(query, [(1, 20, 2)], {1: "x", 2: "c"})  # different shared vertex
    got = emitted_via(tree, [(leaf0.node_id, m0), (leaf1.node_id, m1)], -math.inf)
    assert got == []


def test_window_span_strictly_inside():
    def run(t0, t1, window):
        # t1 arrives last, so the graph's cutoff is t1 - window; each run
        # builds its tree from the same leaves
        query, tree = two_leaf_tree()
        leaf0, leaf1 = tree.leaves()
        inserts = [
            (leaf0.node_id, Match.of(query, [(0, 10, t0)], {0: "a", 1: "b"})),
            (leaf1.node_id, Match.of(query, [(1, 20, t1)], {1: "b", 2: "c"})),
        ]
        return len(emitted_via(tree, inserts, t1 - window))

    assert run(0, 4, 5) == 1  # span 4 < 5: t_min 0 > cutoff -1
    assert run(0, 5, 5) == 0  # span 5 is out: t_min 0 <= cutoff 0, the window is half-open
    assert run(0, 5, math.inf) == 1  # an unbounded window: cutoff -inf, no limit


def test_peak_stored_tracks_maximum():
    query, tree = two_leaf_tree()
    drive_alone(tree)
    leaf0, _ = tree.leaves()
    for i in range(4):
        m = Match.of(query, [(0, i, i)], {0: f"a{i}", 1: f"b{i}"})
        tree.insert_and_propagate(leaf0.node_id, m.flat, -math.inf, lambda m: None)
    assert tree.stored_count == 4
    assert tree.peak_stored == 4
    assert tree.purge_stale(cutoff=90) == 4
    assert tree.stored_count == 0
    assert tree.peak_stored == 4  # the peak survives the purge


def test_purge_stale_boundary_and_reinsert():
    # a two-edge leaf, so a stored match can straddle the cutoff
    query = path_query(["e", "f", "g"], vertex_label="A")
    pieces = [QueryPiece.from_edges(query, [0, 1]), QueryPiece.from_edges(query, [2])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    drive_alone(tree)
    leaf0, _ = tree.leaves()
    bind = {0: "a", 1: "b", 2: "c"}
    old = Match.of(query, [(0, 10, 0), (1, 11, 0)], bind)
    fresh = Match.of(query, [(0, 12, 6), (1, 13, 7)], bind)
    straddle = Match.of(query, [(0, 14, 0), (1, 15, 6)], bind)
    for m in (old, fresh, straddle):
        tree.insert_and_propagate(leaf0.node_id, m.flat, -math.inf, lambda m: None)
    # t_min <= cutoff goes, newer edges aside: the boundary value 0 <= 0 is stale,
    # and the straddling match has lost its oldest edge
    assert tree.purge_stale(cutoff=0) == 2
    assert tree.stored_count == 1
    assert leaf0.table["c"] == [fresh.flat]
    assert tree.purge_stale(cutoff=-math.inf) == 0
    # the tree keeps no record of a purged match: it may be inserted again
    tree.insert_and_propagate(leaf0.node_id, old.flat, -math.inf, lambda m: None)
    assert tree.stored_count == 2


def test_purge_at_minus_infinity_keeps_every_table():
    # -inf, the cutoff of an unbounded window and of a graph before its
    # first edge, is below every t_min, however old
    query, tree = two_leaf_tree()
    drive_alone(tree)
    leaf0, leaf1 = tree.leaves()
    for i, t in enumerate((-(2**70), -1, 0)):
        m = Match.of(query, [(0, i, t)], {0: f"a{i}", 1: "b"})
        tree.insert_and_propagate(leaf0.node_id, m.flat, -math.inf, lambda m: None)
    m = Match.of(query, [(1, 9, -3)], {1: "x", 2: "c"})
    tree.insert_and_propagate(leaf1.node_id, m.flat, -math.inf, lambda m: None)
    before = [{key: list(bucket) for key, bucket in n.table.items()} for n in tree.nodes]
    assert tree.purge_stale(-math.inf) == 0
    assert [n.table for n in tree.nodes] == before
    assert tree.stored_count == 4


def test_stale_bucket_is_compacted_on_probe():
    query, tree = two_leaf_tree()
    drive_alone(tree)
    leaf0, leaf1 = tree.leaves()
    for i in range(6):
        m = Match.of(query, [(0, i, 0)], {0: f"a{i}", 1: "b"})
        tree.insert_and_propagate(leaf0.node_id, m.flat, -5, lambda m: None)
    assert tree.stored_count == 6
    assert list(leaf0.table) == ["b"]
    # a probe from the sibling at a far later time sweeps the dead entries
    probe = Match.of(query, [(1, 99, 100)], {1: "b", 2: "c"})
    tree.insert_and_propagate(leaf1.node_id, probe.flat, 95, lambda m: None)
    assert tree.stored_count == 1  # only the probe itself remains
    assert "b" not in leaf0.table  # the emptied bucket goes


def test_a_driven_tree_queues_a_sweep_per_spine_match_with_a_new_cut_binding():
    # path e, f, g in three leaves: leaf 0 opens leaf 1 at qvertex 1, and
    # the spine node over leaves 0 and 1 opens leaf 2 at qvertex 2.  Each
    # match stored at a spine node queues its gate's sweep once when its
    # cut binding is not in the allowed set, and never when it is; the tree
    # only queues, so a binding twice missing is queued twice, and a match
    # stored at leaf 1 or 2, which open nothing, queues nothing
    query = path_query(["e", "f", "g"], vertex_label="A")
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, [i]) for i in range(3)])
    leaf0, leaf1, leaf2 = tree.leaves()
    spine = leaf1.parent
    allowed1, allowed2 = {"b"}, {"d"}
    gates = {leaf0.node_id: ((1, allowed1, "sweep at 1"),), spine: ((2, allowed2, "sweep at 2"),)}
    queue = drive_alone(tree, gates=gates)
    inserts = [
        (leaf0, [(0, 1, 0)], {0: "a", 1: "b"}),  # allowed
        (leaf0, [(0, 2, 1)], {0: "a", 1: "x"}),
        (leaf0, [(0, 3, 2)], {0: "w", 1: "x"}),
        (leaf1, [(1, 4, 3)], {1: "x", 2: "c"}),  # two spine matches at c
        (leaf1, [(1, 5, 4)], {1: "x", 2: "d"}),  # two at d, allowed
        (leaf2, [(2, 6, 5)], {2: "y", 3: "z"}),
    ]
    emitted = []
    for leaf, items, bind in inserts:
        tree.insert_and_propagate(leaf.node_id, Match.of(query, items, bind).flat, -math.inf, emitted.append)
    assert emitted == []
    assert queue == [("sweep at 1", "x")] * 2 + [("sweep at 2", "c")] * 2
    assert sum(map(len, tree.nodes[spine].table.values())) == 4
    assert allowed1 == {"b"} and allowed2 == {"d"}  # the engine's sweeps allow, not the tree


@pytest.mark.parametrize("leaves", [1, 3])
def test_drive_compiles_one_insert_per_node_once(leaves):
    # one per node a match is inserted at: every node but the root of a
    # tree of several leaves; a one-leaf tree's root is its leaf
    query = path_query(["e", "f", "g"], vertex_label="A")
    splits = {1: [[0, 1, 2]], 3: [[0], [1], [2]]}[leaves]
    tree = SJTree.from_leaf_pieces(query, [QueryPiece.from_edges(query, ids) for ids in splits])
    assert all(n.insert is None for n in tree.nodes)
    drive_alone(tree)
    inserted = [n for n in tree.nodes if n.node_id != tree.root_id or n.is_leaf]
    assert len({n.insert for n in inserted}) == len(inserted) == {1: 1, 3: 4}[leaves]
    assert tree.nodes[tree.root_id].insert is (None if leaves > 1 else tree.nodes[0].insert)
    with pytest.raises(ValueError, match="already drives an engine"):
        drive_alone(tree)
    if leaves == 1:  # the root emits what it is given
        m = Match.of(query, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], {0: "a", 1: "b", 2: "c", 3: "d"}).flat
        out = []
        tree.insert_and_propagate(tree.root_id, m, 1, out.append)
        assert [(x.flat, x.n_edges) for x in out] == [(m, 3)]


# ------------------------------------------------------------------- plan text

def test_serialize_round_trips_byte_identical():
    query = path_query(["e", "f", "g"])
    pieces = [QueryPiece.from_edges(query, [0, 1]), QueryPiece.from_edges(query, [2])]
    tree = SJTree.from_leaf_pieces(query, pieces)
    text = tree.serialize()
    again = SJTree.deserialize(text, query)
    assert again.serialize() == text
    assert again.root_id == tree.root_id
    assert [n.piece.edges for n in again.nodes] == [n.piece.edges for n in tree.nodes]
    assert [n.sibling for n in again.nodes] == [n.sibling for n in tree.nodes] == [1, 0, None]
    assert [n.cut_verts for n in again.nodes] == [n.cut_verts for n in tree.nodes] == [(), (), (2,)]
    # per child, what a join fills from the sibling: the sibling's qedges
    # and the qvertices only the sibling binds, qedge qe at slot 1 + qe and
    # qvertex qv at 1 + 3 + qv of the flat tuple
    assert probe_results(again) == probe_results(tree)
    left, right = probe_results(tree)[:2]
    assert left == ("v2", [(0, 0, 1, 102, "v0", "v1", "v2", "w3")], 1)
    assert right == ("v2", [(2, 100, 101, 2, "w0", "w1", "v2", "v3")], 1)


def test_serialize_mentions_structure():
    # the text is the leaf order and nothing else: no ids, pointers or cuts
    query, tree = two_leaf_tree()
    assert tree.serialize() == "sjtree\nleaf 0\nleaf 1\n"
    query = path_query(["e", "f", "g"])
    pieces = [QueryPiece.from_edges(query, [2]), QueryPiece.from_edges(query, [1, 0])]
    assert SJTree.from_leaf_pieces(query, pieces).serialize() == "sjtree\nleaf 2\nleaf 0 1\n"


def test_deserialize_reads_hand_written_text():
    query = path_query(["e", "f", "g", "h"])
    text = (
        "# the rare end first, then a cross join\n"
        "\n"
        "sjtree\n"
        "  leaf 3\n"
        "   # indented comments are skipped too\n"
        "leaf 1  0\n"
        "\n"
        "leaf 2"
    )
    tree = SJTree.deserialize(text, query)
    assert [sorted(n.piece.edges) for n in tree.leaves()] == [[3], [0, 1], [2]]
    assert tree.serialize() == "sjtree\nleaf 3\nleaf 0 1\nleaf 2\n"


def probe_results(tree):
    """Per child node, its key and one join's (results, stale count) on a
    fixed probe.  ``m`` binds the node's piece: qedge qe to data edge qe,
    qvertex qv to "v<qv>", t_min its first qedge's id.  The bucket holds
    sibling matches that agree with ``m`` on the cut and bind qedge qe to
    data edge 100 + qe and every other qvertex qv to "w<qv>": one live, one
    stale, one reusing ``m``'s first data edge, and one binding its first
    qvertex outside the cut to ``m``'s first vertex outside the cut."""
    n_edges = tree.query.n_edges
    width = 1 + n_edges + tree.query.n_vertices
    got = []
    for n in tree.nodes:
        if n.sibling is None:
            continue
        own, sib = n.piece, tree.nodes[n.sibling].piece
        m = [None] * width
        m[0] = min(own.edges)
        for qe in own.edges:
            m[1 + qe] = qe
        for qv in own.vertices:
            m[1 + n_edges + qv] = f"v{qv}"

        def entry(t, clash_edge=False, clash_vert=False):
            s = [None] * width
            s[0] = t
            for qe in sib.edges:
                s[1 + qe] = 100 + qe
            for qv in sib.vertices:
                s[1 + n_edges + qv] = f"v{qv}" if qv in own.vertices else f"w{qv}"
            if clash_edge:
                s[1 + min(sib.edges)] = min(own.edges)
            if clash_vert and own.vertices - sib.vertices and sib.vertices - own.vertices:
                s[1 + n_edges + min(sib.vertices - own.vertices)] = f"v{min(own.vertices - sib.vertices)}"
            return tuple(s)

        bucket = [entry(2), entry(-1), entry(3, clash_edge=True), entry(4, clash_vert=True)]
        m = tuple(m)
        out = []
        stale = join(m, bucket, n, 0, out.append)
        got.append((key_of(tree, n, m), out, stale))
    return got


def node_fields(tree):
    return [
        (n.node_id, n.piece, n.parent, n.left, n.right, n.leaf_index, n.cut_verts, n.sibling)
        for n in tree.nodes
    ] + probe_results(tree)


def test_deserialize_rebuilds_planner_trees_node_for_node():
    rng = Random(17)
    for trial in range(30):
        schema = random_schema(rng)
        table = collect_stats(generate_stream(schema, 400, rng))
        query = random_query(schema, rng.randint(1, 5), rng)
        for mode in ("single", "path"):
            tree = plan_query(query, table, mode=mode).tree
            again = SJTree.deserialize(tree.serialize(), query)
            assert (again.root_id, again.leaf_ids) == (tree.root_id, tree.leaf_ids)
            assert node_fields(again) == node_fields(tree), f"trial {trial} {mode}"


# a marker comment put right above the line a malformed plan gets wrong
BAD_NEXT = "# the next line is bad"
PATH4_PLAN = "sjtree\nleaf 0 1\nleaf 2\nleaf 3\n"


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda t: "", "empty plan"),
        (lambda t: t.replace("sjtree\n", BAD_NEXT + "\n"), "expected header"),
        (lambda t: t + BAD_NEXT + "\ngarbage\n", "unexpected line"),
        (lambda t: t + BAD_NEXT + "\nleaf\n", "want 'leaf <qedge>"),
        (lambda t: t.replace("leaf 2\n", BAD_NEXT + "\nleaf x\n"), "bad qedge id"),
        (lambda t: t.replace("leaf 3\n", BAD_NEXT + "\nleaf 7\n"), "outside the query"),
        (lambda t: t.replace("leaf 2\n", BAD_NEXT + "\nleaf 2 2\n"), "repeats"),
        (lambda t: "sjtree\n" + BAD_NEXT + "\nleaf 0 1 2 3\n", "at most 3"),
        (lambda t: t.replace("leaf 0 1\nleaf 2\n", BAD_NEXT + "\nleaf 0 2\nleaf 1\n"), "not connected"),
        (lambda t: t.replace("leaf 2\n", "leaf 1 2\n"), "edge-disjoint"),
        (lambda t: t.replace("leaf 3\n", ""), "cover the query"),
    ],
)
def test_deserialize_rejects_malformed_plans(mutate, fragment):
    query = path_query(["e", "f", "g", "h"])
    text = mutate(PATH4_PLAN)
    with pytest.raises(PlanError) as ei:
        SJTree.deserialize(text, query)
    assert fragment in str(ei.value)
    # a fault on one line names it, comment lines counted; a fault of the
    # leaves together names none
    lines = text.splitlines()
    assert ei.value.line == (lines.index(BAD_NEXT) + 2 if BAD_NEXT in lines else None)


def test_deserialize_rejects_structural_lies():
    # a well-formed text whose leaves do not cover the query
    query = path_query(["e", "f"])
    one_leaf = SJTree.from_leaf_pieces(
        path_query(["e"]), [QueryPiece.from_edges(path_query(["e"]), [0])]
    )
    with pytest.raises(PlanError) as ei:
        SJTree.deserialize(one_leaf.serialize(), query, source="plan.txt")
    assert str(ei.value) == "plan.txt: leaf pieces must cover the query exactly"
