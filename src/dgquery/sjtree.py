"""Subgraph-join tree: a left-deep decomposition of a query into search
primitives, with per-node hash tables of partial matches.

Structure (k+1 leaves)::

            root
           /    \\
         ...    leaf k
        /   \\
      I1     leaf 2
     /  \\
  leaf 0  leaf 1

Every node owns the sub-pattern formed by the union of its leaves; an internal
node's *cut* is the intersection of its children's sub-patterns and defines
the join key.  Leaf pieces are edge-disjoint, so a cut holds only vertices.
Matches are stored keyed by their bindings of the parent's cut, so a new match
at one child probes its sibling's table with a plain hash lookup, merges with
the whole bucket found there, and passes each result up to the parent.
Complete matches surface at the root and are emitted.

The leaf order fixes everything else, so :meth:`SJTree.from_leaf_pieces` is
the one constructor, and the plan text that ``dgq plan`` writes lists only
the leaves: a ``sjtree`` header, then one ``leaf <qedge> ...`` line per leaf,
leaf 0 first.  :meth:`SJTree.deserialize` parses it back through the same
constructor.

Inside the tree a partial match is one flat tuple (:data:`Partial`),
``(t_min, e_0 ... e_{E-1}, v_0 ... v_{V-1})``: the oldest bound timestamp,
then the query-width edge and vertex slots of
:class:`~dgquery.query.Match`, so qedge ``qe`` sits at ``1 + qe`` and
qvertex ``qv`` at ``1 + E + qv``.  It holds only ints, strings and None, so
CPython stops tracking it at the first collection that sees it, where a
``Match`` instance stays tracked; only an emission becomes a ``Match``.

A tree holds the match state of the one engine it drives, and
:meth:`SJTree.drive` hands it that engine's gates and sweep queue, never
its graph.  It then compiles one insert per node, as straight-line Python
whose source holds slot numbers, never data (vertices and the gates reach
it as names in the namespace it runs in, and its one sink as ``emit``).  A
non-root node's insert reads ``m``'s bound slots into locals once and its
key from them, walks the sibling's bucket under that key (per entry: the
cutoff test, an ``==`` test of each slot only the sibling fills against
``m``'s own slots of the same kind, and the result as one tuple display),
passes each result straight to the parent's insert, or at a child of the
root builds its ``Match`` and hands it to ``emit`` alone, then compacts the
bucket when it is mostly stale, stores ``m`` and counts it.  At a spine
node under a gated leaf it then tests each cut binding against the leaf's
allowed set, and queues the leaf's sweep only for a binding not in it.  The
root has an insert only in a one-leaf plan, where it is the leaf, and it
emits.  :func:`join` runs the same probe alone.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from .errors import PlanError
from .query import Match, QueryGraph, QueryPiece

__all__ = ["JoinKey", "Partial", "Gate", "SJTreeNode", "SJTree", "join"]

MAX_PRIMITIVE_EDGES = 3  # the most qedges a leaf piece holds

# the cut's vertex binding, or for a cut of several vertices a tuple of them
# in qvertex-id order; () for an empty cut
JoinKey = str | tuple[str, ...]
# (t_min, e_0 ... e_{E-1}, v_0 ... v_{V-1}): the oldest bound edge's
# timestamp, then a data edge id or None per qedge and a data vertex or None
# per qvertex
Partial = tuple[int | str | None, ...]
# (m, cutoff, emit): a node's compiled insert (see SJTree.insert_and_propagate)
InsertFn = Callable[[Partial, float, Callable[[Match], None]], None]
# (m, bucket, cutoff, out) -> the stale count: a node's compiled probe (see join)
JoinFn = Callable[[Partial, list[Partial], float, Callable[[Partial], None]], int]
# what a driven tree tests after it stores a match at a spine node under a
# gated leaf, per cut qvertex of that leaf: (the qvertex, the leaf's allowed
# set for it, the sweep to queue, as (sweep, binding), for a binding not in it)
Gate = tuple[int, set[str], Any]


class SJTreeNode:
    __slots__ = (
        "node_id",
        "piece",
        "parent",
        "left",
        "right",
        "leaf_index",
        "sibling",
        "cut_verts",
        "table",
        "insert",
        "join_fn",
    )

    def __init__(
        self,
        node_id: int,
        piece: QueryPiece,
        cut_verts: tuple[int, ...],
        parent: int | None,
        left: int | None,
        right: int | None,
        leaf_index: int | None,
    ):
        self.node_id = node_id
        self.piece = piece
        self.parent = parent
        self.left = left
        self.right = right
        self.leaf_index = leaf_index
        # the other child of the parent; set by SJTree
        self.sibling: int | None = None
        # the cut, the qvertices both children bind, sorted: the order of
        # the cut vertices in a JoinKey; () at a leaf
        self.cut_verts = cut_verts
        # the root stores nothing
        self.table: dict[JoinKey, list[Partial]] = {}
        # the compiled insert, set by SJTree.drive at every node but the
        # root of a tree of several leaves, where no match is inserted
        self.insert: InsertFn | None = None
        # the probe join runs, compiled on its first call; set by SJTree
        self.join_fn: JoinFn | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def _define(lines: list[str], title: str, namespace: dict[str, Any]) -> Callable:
    """Compile the one function ``lines`` define, with ``namespace`` (and no
    builtins) as its globals."""
    namespace["__builtins__"] = {}
    exec(compile("\n".join(lines), title, "exec"), namespace)
    return namespace[lines[0][4:lines[0].index("(")]]


def _bind_line(query: QueryGraph, piece: QueryPiece) -> str:
    """The line that unpacks ``m`` into ``t_min`` and a local per slot the
    piece binds: ``e<qe>`` and ``v<qv>``."""
    names = [f"e{i}" if i in piece.edges else "_" for i in range(query.n_edges)]
    names += [f"v{i}" if i in piece.vertices else "_" for i in range(query.n_vertices)]
    return f"    t_min, {', '.join(names)} = m"


def _probe_lines(query: QueryGraph, own: QueryPiece, sib: QueryPiece, take: Callable[[str], list[str]]) -> list[str]:
    """The walk of ``bucket``, matches binding ``sib`` under the key of
    ``m``, a match binding ``own`` read by :func:`_bind_line`: it counts
    the stale entries in ``stale`` and runs ``take(result)``, the lines
    that pass on one joined match given as a tuple display (see :func:`join`)."""
    lines = [
        "    stale = 0",
        "    for s in bucket:",
        "        t = s[0]",
        "        if t <= cutoff:",
        "            stale += 1",
        "            continue",
    ]
    # a data edge of the sibling must be new to m, and a data vertex of a
    # qvertex only the sibling binds must not serve a qvertex only m binds:
    # the key makes the cut agree, and the sibling's own match is injective
    verts_at = 1 + query.n_edges
    mine = sorted(own.vertices - sib.vertices)
    checks = [(f"e{qe}", 1 + qe, [f"e{i}" for i in sorted(own.edges)]) for qe in sorted(sib.edges)]
    checks += [(f"v{qv}", verts_at + qv, [f"v{i}" for i in mine]) for qv in sorted(sib.vertices - own.vertices)]
    for name, slot, against in checks:
        lines.append(f"        {name} = s[{slot}]")
        if against:
            lines += [f"        if {' or '.join(f'{name} == {x}' for x in against)}:", "            continue"]
    slots = [f"e{i}" if i in own.edges | sib.edges else "None" for i in range(query.n_edges)]
    slots += [f"v{i}" if i in own.vertices | sib.vertices else "None" for i in range(query.n_vertices)]
    return lines + [f"        {line}" for line in take(f"(t_min if t_min <= t else t, {', '.join(slots)})")]


def _emit_lines(n_edges: int, flat: str) -> list[str]:
    """A driven tree's emission of the complete match ``flat``: its
    ``Match`` goes to ``emit`` and nowhere else.  The ``Match`` gets its two
    slots one by one, which skips the frame of its constructor."""
    return [
        "match = new(Match)",
        f"match.flat = {flat}",
        f"match.n_edges = {n_edges}",
        "emit(match)",
    ]


def join(
    m: Partial, bucket: list[Partial], node: SJTreeNode, cutoff: float, out: Callable[[Partial], None]
) -> int:
    """Merge ``m``, stored at ``node``, with every match of ``bucket``, its
    sibling's bucket under the same key; pass each joined match to ``out``
    in bucket order and return the number of stale entries skipped.

    All matches are flat :data:`Partial` tuples, each result with the older
    of the two ``t_min``.  An entry with ``t_min <= cutoff`` is stale and
    skipped.  The key already makes the shared qvertices agree, and the two
    pieces share no qedge, so only the slots the sibling fills need checks:
    its data edges must be new to ``m``, and the data vertices of the
    qvertices only it binds must not already serve ``m``.  Each is compared
    with ``m``'s edge or vertex slots only, never with ``t_min``: an edge id
    may equal a timestamp.

    A driven tree's inserts run this probe inline and never call ``join``;
    its own probe is compiled from the same lines on its first call.
    """
    return node.join_fn(m, bucket, cutoff, out)


def _join_on_first_call(query: QueryGraph, node: SJTreeNode, sib: QueryPiece) -> JoinFn:
    """``node.join_fn`` until the first :func:`join` at ``node``, which
    compiles the probe and puts it in its place."""

    def first(m: Partial, bucket: list[Partial], cutoff: float, out: Callable[[Partial], None]) -> int:
        lines = ["def join(m, bucket, cutoff, out):", _bind_line(query, node.piece)]
        lines += _probe_lines(query, node.piece, sib, lambda result: [f"out({result})"])
        node.join_fn = _define(lines + ["    return stale"], f"<join of {sorted(node.piece.edges)}>", {})
        return node.join_fn(m, bucket, cutoff, out)

    return first


def _drop_stale(table: dict[JoinKey, list[Partial]], key: JoinKey, cutoff: float) -> int:
    """Keep the entries of ``table[key]`` with ``t_min > cutoff``, deleting
    the key when none is left; return how many were dropped."""
    bucket = table[key]
    kept = [m for m in bucket if m[0] > cutoff]
    dropped = len(bucket) - len(kept)
    if not kept:
        del table[key]
    elif dropped:
        bucket[:] = kept
    return dropped


class SJTree:
    """The decomposition tree plus all runtime match state."""

    def __init__(self, query: QueryGraph, nodes: list[SJTreeNode], root_id: int):
        self.query = query
        self.nodes = nodes
        self.root_id = root_id
        self.leaf_ids = [n.node_id for n in nodes if n.is_leaf]
        for n in nodes:
            if not n.is_leaf:
                for a, b in ((nodes[n.left], nodes[n.right]), (nodes[n.right], nodes[n.left])):
                    a.sibling = b.node_id
                    a.join_fn = _join_on_first_call(query, a, b.piece)
        self.stored_count = 0
        self.peak_stored = 0

    # ------------------------------------------------------------- construction

    @classmethod
    def from_leaf_pieces(cls, query: QueryGraph, pieces: Iterable[QueryPiece]) -> "SJTree":
        """Assemble the left-deep tree over leaves given left-to-right."""
        pieces = list(pieces)
        if not pieces:
            raise ValueError("need at least one leaf")
        seen: set[int] = set()
        for p in pieces:
            if not p.edges:
                raise ValueError("leaf pieces must contain edges")
            if p.edges & seen:
                raise ValueError("leaf pieces must be edge-disjoint")
            seen |= p.edges
        if seen != set(range(query.n_edges)):
            raise ValueError("leaf pieces must cover the query exactly")

        nodes: list[SJTreeNode] = []
        for i, p in enumerate(pieces):
            nodes.append(SJTreeNode(i, p, (), None, None, None, i))
        left_id = 0
        for right_id in range(1, len(pieces)):
            left, right = nodes[left_id].piece, nodes[right_id].piece
            cut_verts = tuple(sorted(left.vertices & right.vertices))
            internal = SJTreeNode(len(nodes), left.union(right), cut_verts, None, left_id, right_id, None)
            nodes.append(internal)
            nodes[left_id].parent = internal.node_id
            nodes[right_id].parent = internal.node_id
            left_id = internal.node_id
        return cls(query, nodes, root_id=left_id)

    def leaves(self) -> list[SJTreeNode]:
        return [self.nodes[i] for i in self.leaf_ids]

    # ------------------------------------------------------------------ updates

    def drive(self, gates: dict[int, tuple[Gate, ...]], queue: Callable[[tuple[Any, str]], None]) -> None:
        """Take on one engine's match state: compile each node's insert
        (the module docstring) with that engine's gates.

        An emission is a ``Match`` of the complete flat tuple; it goes only
        to the ``emit`` of the insert that made it.  ``gates`` maps a spine
        node's id to the gates of the leaf it opens, and each sweep goes to
        ``queue``.  A tree drives one engine: a second call
        raises ``ValueError``.
        """
        if self.nodes[self.leaf_ids[0]].insert is not None:
            raise ValueError("tree already drives an engine; plan a new tree for this one")
        query = self.query
        emission = {"Match": Match, "new": object.__new__}
        root = self.nodes[self.root_id]
        if root.is_leaf:  # a one-leaf plan, whose leaf matches are complete
            lines = ["def insert(m, cutoff, emit):", *(f"    {line}" for line in _emit_lines(query.n_edges, "m"))]
            root.insert = _define(lines, "<emission at the root>", emission)
            return
        # a parent's insert is compiled before its children's, which call
        # it: node ids grow up the tree
        for node in reversed(self.nodes):
            if node is root:
                continue
            parent, sib = self.nodes[node.parent], self.nodes[node.sibling]
            namespace: dict[str, Any] = {
                **emission, "tree": self, "up": parent.insert, "own_table": node.table, "sib_table": sib.table,
                "drop_stale": _drop_stale, "len": len, "NO_KEY": (), "queue": queue,
            }
            cut = [f"v{c}" for c in parent.cut_verts]
            key = cut[0] if len(cut) == 1 else f"({', '.join(cut)})" if cut else "NO_KEY"
            if parent is root:
                take = lambda result: _emit_lines(query.n_edges, result)
            else:
                take = lambda result: [f"up({result}, cutoff, emit)"]
            probe = [f"    {line}" for line in _probe_lines(query, node.piece, sib.piece, take)]
            lines = [
                "def insert(m, cutoff, emit):",
                _bind_line(query, node.piece),
                f"    key = {key}",
                "    bucket = sib_table.get(key)",
                "    if bucket:",
                *probe,
                "        if stale + stale > len(bucket):",
                "            tree.stored_count -= drop_stale(sib_table, key, cutoff)",
                "    own = own_table.get(key)",
                "    if own is None:",
                "        own_table[key] = [m]",
                "    else:",
                "        own.append(m)",
                "    n = tree.stored_count + 1",
                "    tree.stored_count = n",
                "    if n > tree.peak_stored:",
                "        tree.peak_stored = n",
            ]
            for i, (c, allowed, sweep) in enumerate(gates.get(node.node_id, ())):
                namespace[f"allowed{i}"], namespace[f"sweep{i}"] = allowed, sweep
                lines += [f"    if v{c} not in allowed{i}:", f"        queue((sweep{i}, v{c}))"]
            node.insert = _define(lines, f"<insert at node {node.node_id}>", namespace)

    def insert_and_propagate(
        self,
        node_id: int,
        m: Partial,
        cutoff: float,
        emit: Callable[[Match], None],
    ) -> None:
        """Insert ``m`` at a node of a driven tree: probe the sibling's
        bucket under its key, pass each joined match up to the parent in
        bucket order, then store ``m``.

        ``m`` is a flat :data:`Partial` tuple.  Each complete match becomes
        a ``Match`` that goes to ``emit`` alone, so a caller's sink receives
        exactly the emissions of its own insert.  Neither carries a newest
        timestamp: every new complete match holds the newest edge, the one
        the caller is processing, so that edge's timestamp is the caller's.

        ``cutoff`` is the graph's eviction cutoff, ``DynamicGraph.cutoff``.
        Every new complete match contains the newest edge, so a stored match
        can join into an emission only while its oldest edge is live: entries
        with ``t_min <= cutoff`` are skipped, and swept out of the bucket once
        they are its majority.  Leaf matches come from the live graph and a
        join of live matches is live, so a root match has ``cutoff < t_min``
        and its newest edge at ``t_last``: its span is inside the window.

        The caller inserts each leaf match once.  A match above the leaves is
        then one (left, right) pair, joined once, when the later of the two is
        stored — the earlier one probed before the later existed, and each
        stores itself only after its probe — and distinct pairs join to
        distinct matches, because the children's pieces are edge-disjoint.
        No node needs signatures.  Nothing mutates a bucket while it is
        walked: a result goes up to the parent, whose sibling is another
        node, and a gate only queues a sweep.

        This is the one call per leaf match, so a wrapper set on it sees
        every one; the climb above the leaf runs in the compiled inserts.
        """
        self.nodes[node_id].insert(m, cutoff, emit)

    def purge_stale(self, cutoff: float) -> int:
        """Drop stored matches with ``t_min <= cutoff``; return the count.

        Their oldest edge has left the graph, so, as in
        ``insert_and_propagate``, they can never join into an emission.
        """
        if cutoff == -math.inf:
            return 0
        removed = 0
        for node in self.nodes:
            for key in list(node.table):
                removed += _drop_stale(node.table, key, cutoff)
        self.stored_count -= removed
        return removed

    # -------------------------------------------------------------- plan text

    def serialize(self) -> str:
        """The plan text: a ``sjtree`` header, then one ``leaf`` line of qedge
        ids per leaf, left to right.  The leaf order fixes the tree."""
        leaves = [" ".join(["leaf", *map(str, sorted(n.piece.edges))]) for n in self.leaves()]
        return "\n".join(["sjtree", *leaves]) + "\n"

    @classmethod
    def deserialize(cls, text: str, query: QueryGraph, source: str | None = None) -> "SJTree":
        """Parse plan text (see :meth:`serialize`; blank lines and ``#``
        comment lines are skipped) into the tree over ``query``."""
        rows = [(no, line.split()) for no, line in enumerate(text.splitlines(), start=1)]
        rows = [(no, parts) for no, parts in rows if parts and not parts[0].startswith("#")]
        if not rows:
            raise PlanError("empty plan", source=source)
        if rows[0][1] != ["sjtree"]:
            raise PlanError("expected header 'sjtree'", line=rows[0][0], source=source)
        pieces = []
        for no, parts in rows[1:]:
            try:
                if parts[0] != "leaf" or len(parts) < 2:
                    raise ValueError(f"unexpected line {' '.join(parts)!r}: want 'leaf <qedge> [<qedge> ...]'")
                if not all(p.isdecimal() for p in parts[1:]):
                    raise ValueError(f"bad qedge id in {' '.join(parts[1:])!r}")
                ids = [int(p) for p in parts[1:]]
                if max(ids) >= query.n_edges:
                    raise ValueError(f"qedge {max(ids)} is outside the query")
                if len(set(ids)) != len(ids):
                    raise ValueError("a qedge repeats within the leaf")
                if len(ids) > MAX_PRIMITIVE_EDGES:
                    raise ValueError(f"a leaf holds at most {MAX_PRIMITIVE_EDGES} qedges")
                piece = QueryPiece.from_edges(query, ids)
                if not piece.is_connected(query):
                    raise ValueError("the leaf is not connected")
            except ValueError as exc:
                raise PlanError(str(exc), line=no, source=source) from None
            pieces.append(piece)
        try:
            return cls.from_leaf_pieces(query, pieces)
        except ValueError as exc:
            raise PlanError(str(exc), source=source) from None
