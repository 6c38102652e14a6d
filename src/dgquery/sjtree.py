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
the whole bucket found there in one :func:`join` call, and propagates the
results upward.  Complete matches surface at the root and are emitted.

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
``Match`` instance stays tracked; the caller of ``emit`` builds the output
``Match`` from a complete tuple.  A join works per probe, by a function
compiled for each (node, sibling) pair when the tree is built: it reads
``m``'s bound slots once, then, per entry of the sibling's bucket, tests
the cutoff, compares with ``==`` each slot only the sibling fills against
``m``'s own slots of the same kind, and builds the result as one tuple
display.  The generated source holds slot numbers, never data.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable

from .errors import PlanError
from .query import QueryGraph, QueryPiece

__all__ = ["JoinKey", "Partial", "SJTreeNode", "SJTree", "join"]

# the cut's vertex binding, or for a cut of several vertices a tuple of them
# in qvertex-id order; () for an empty cut
JoinKey = str | tuple[str, ...]
# (t_min, e_0 ... e_{E-1}, v_0 ... v_{V-1}): the oldest bound edge's
# timestamp, then a data edge id or None per qedge and a data vertex or None
# per qvertex
Partial = tuple[int | str | None, ...]
# (m, bucket, cutoff, out) -> the stale count: a node's compiled probe
JoinFn = Callable[[Partial, list[Partial], float, Callable[[Partial], None]], int]


def _key_getter(slots: tuple[int, ...]) -> Callable[[Partial], JoinKey]:
    """The function that reads a JoinKey off a match: its cut vertex slots."""
    if not slots:
        return lambda m: ()
    return itemgetter(*slots)


class SJTreeNode:
    __slots__ = (
        "node_id",
        "piece",
        "parent",
        "left",
        "right",
        "leaf_index",
        "sibling",
        "join_fn",
        "cut_verts",
        "key_of",
        "table",
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
        # the other child of the parent, and the compiled probe of a match
        # stored here into the sibling's bucket (see join); set by SJTree
        self.sibling: int | None = None
        self.join_fn: JoinFn | None = None
        # the cut, the qvertices both children bind, sorted: the order of
        # the cut vertices in a JoinKey; () at a leaf
        self.cut_verts = cut_verts
        # match -> the key this node's matches are stored and probed under,
        # read from the parent's cut; set by SJTree
        self.key_of: Callable[[Partial], JoinKey] | None = None
        # the root stores nothing
        self.table: dict[JoinKey, list[Partial]] = {}

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def _compile_join(query: QueryGraph, own: QueryPiece, sib: QueryPiece) -> JoinFn:
    """The probe of a match binding ``own`` into a bucket of matches binding
    ``sib``, as straight-line Python (see :func:`join`)."""
    verts_at = 1 + query.n_edges
    bound = [f"e{i}" if i in own.edges else "_" for i in range(query.n_edges)]
    bound += [f"v{i}" if i in own.vertices else "_" for i in range(query.n_vertices)]
    lines = [
        "def join(m, bucket, cutoff, out):",
        f"    t_min, {', '.join(bound)} = m",
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
    mine = sorted(own.vertices - sib.vertices)
    checks = [(f"e{qe}", 1 + qe, [f"e{i}" for i in sorted(own.edges)]) for qe in sorted(sib.edges)]
    checks += [(f"v{qv}", verts_at + qv, [f"v{i}" for i in mine]) for qv in sorted(sib.vertices - own.vertices)]
    for name, slot, against in checks:
        lines.append(f"        {name} = s[{slot}]")
        if against:
            lines += [f"        if {' or '.join(f'{name} == {x}' for x in against)}:", "            continue"]
    slots = [f"e{i}" if i in own.edges | sib.edges else "None" for i in range(query.n_edges)]
    slots += [f"v{i}" if i in own.vertices | sib.vertices else "None" for i in range(query.n_vertices)]
    lines += [f"        out((t_min if t_min <= t else t, {', '.join(slots)}))", "    return stale"]
    namespace = {"__builtins__": {}}
    exec(compile("\n".join(lines), f"<join of {sorted(own.edges)} with {sorted(sib.edges)}>", "exec"), namespace)
    return namespace["join"]


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
    may equal a timestamp.  The work is ``node.join_fn``, compiled for the
    node when the tree is built; this module global stays the one entry, so
    a wrapper set on it sees every probe.
    """
    return node.join_fn(m, bucket, cutoff, out)


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
        verts_at = 1 + query.n_edges
        for n in nodes:
            if not n.is_leaf:
                key_of = _key_getter(tuple(verts_at + qv for qv in n.cut_verts))
                for a, b in ((nodes[n.left], nodes[n.right]), (nodes[n.right], nodes[n.left])):
                    a.key_of = key_of
                    a.sibling = b.node_id
                    a.join_fn = _compile_join(query, a.piece, b.piece)
        self.stored_count = 0
        self.peak_stored = 0
        # optional hook fired after a match is stored at a non-root node;
        # the lazy engine uses it to grow its search frontier
        self.on_store: Callable[[SJTreeNode, Partial], None] | None = None
        # set by the Engine built over this tree, which keeps its match
        # state here: a tree drives one engine
        self.driven = False

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

    def insert_and_propagate(
        self,
        node_id: int,
        m: Partial,
        cutoff: float,
        emit: Callable[[Partial], None],
    ) -> None:
        """Insert ``m`` at a node: probe the sibling's bucket under its key
        with one :func:`join` call, propagate the joins to the parent, then
        store ``m``.

        ``m`` is a flat :data:`Partial` tuple, and ``emit`` receives each
        complete match in the same form: when the parent is the root,
        ``join`` hands its results to ``emit`` itself; otherwise it collects
        them, and each is inserted at the parent, in bucket order, after the
        walk.  ``m`` carries no ``t_max``: the caller supplies it when it
        builds the output ``Match``, as the newest edge's timestamp (see
        below).

        ``cutoff`` is the graph's eviction cutoff, ``DynamicGraph.cutoff``.
        Every new complete match contains the newest edge, so a stored match
        can join into an emission only while its oldest edge is live: entries
        with ``t_min <= cutoff`` are skipped, and swept out of the bucket once
        they are its majority.  Leaf matches come from the live graph and a
        join of live matches is live, so a root match has ``cutoff < t_min <=
        t_max <= t_last``: its span is inside the window, and its ``t_max`` is
        ``t_last``, for it holds the newest edge.

        The caller inserts each leaf match once.  A match above the leaves is
        then one (left, right) pair, joined once, when the later of the two is
        stored — the earlier one probed before the later existed, and each
        stores itself only after its probe — and distinct pairs join to
        distinct matches, because the children's pieces are edge-disjoint.
        No node needs signatures.
        """
        if node_id == self.root_id:
            emit(m)
            return
        node = self.nodes[node_id]
        key = node.key_of(m)
        sibling = self.nodes[node.sibling]
        # nothing mutates this bucket while it is walked or before it is
        # compacted: propagation only goes up to the parent, whose sibling
        # is another node, and on_store may only queue work
        bucket = sibling.table.get(key)
        if bucket:
            parent = node.parent
            if parent == self.root_id:
                stale = join(m, bucket, node, cutoff, emit)
            else:
                joined: list[Partial] = []
                stale = join(m, bucket, node, cutoff, joined.append)
                for combined in joined:
                    self.insert_and_propagate(parent, combined, cutoff, emit)
            if stale * 2 > len(bucket):
                self.stored_count -= _drop_stale(sibling.table, key, cutoff)
        own = node.table.get(key)
        if own is None:
            node.table[key] = [m]
        else:
            own.append(m)
        self.stored_count += 1
        if self.stored_count > self.peak_stored:
            self.peak_stored = self.stored_count
        if self.on_store is not None:
            self.on_store(node, m)

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
                if len(ids) > 3:
                    raise ValueError("a leaf holds at most 3 qedges")
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
