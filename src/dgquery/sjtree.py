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
at one child probes its sibling's table with a plain hash lookup, joins
pairwise, and propagates upward.  Complete matches surface at the root and
are emitted.

Inside the tree a partial match is a plain ``(edges, verts, t_min)`` tuple
(:data:`Partial`): the query-width slots of :class:`~dgquery.query.Match`
and the oldest bound timestamp.  CPython stops tracking a tuple once a
collection finds that it holds only untracked objects (ints, strings, None
and such tuples), so stored matches drop out of the garbage collector's
work after a collection or two, where a ``Match`` instance stays tracked;
the caller of ``emit`` builds the output ``Match`` from a complete tuple.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from .errors import PlanError
from .query import QueryGraph, QueryPiece

__all__ = ["JoinKey", "Partial", "SJTreeNode", "SJTree", "join"]

# the cut's vertex binding, or for a cut of several vertices a tuple of them
# in qvertex-id order; () for an empty cut
JoinKey = str | tuple[str, ...]
# (edges, verts, t_min): a data edge id or None per qedge, a data vertex or
# None per qvertex, and the oldest bound edge's timestamp
Partial = tuple[tuple[int | None, ...], tuple[str | None, ...], int]


def _key_getter(cut_verts: tuple[int, ...]) -> Callable[[tuple], JoinKey]:
    """The function that reads a JoinKey off a match's ``verts``."""
    if not cut_verts:
        return lambda verts: ()
    return itemgetter(*cut_verts)


class SJTreeNode:
    __slots__ = (
        "node_id",
        "piece",
        "cut",
        "parent",
        "left",
        "right",
        "leaf_index",
        "sibling",
        "sibling_edges",
        "sibling_verts",
        "cut_verts",
        "key_of",
        "table",
    )

    def __init__(
        self,
        node_id: int,
        piece: QueryPiece,
        cut: QueryPiece,
        parent: int | None,
        left: int | None,
        right: int | None,
        leaf_index: int | None,
    ):
        self.node_id = node_id
        self.piece = piece
        self.cut = cut
        self.parent = parent
        self.left = left
        self.right = right
        self.leaf_index = leaf_index
        # the other child of the parent, the qedges it binds and the qvertices
        # only it binds: the slots a join fills from it; set by SJTree
        self.sibling: int | None = None
        self.sibling_edges: tuple[int, ...] = ()
        self.sibling_verts: tuple[int, ...] = ()
        # the order of the cut vertices in a JoinKey, fixed at build time
        self.cut_verts = tuple(sorted(cut.vertices))
        # verts -> the key this node's matches are stored and probed under,
        # read from the parent's cut; set by SJTree
        self.key_of: Callable[[tuple], JoinKey] | None = None
        # the root stores nothing
        self.table: dict[JoinKey, list[Partial]] = {}

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


_EMPTY_PIECE = QueryPiece(frozenset(), frozenset())


def join(m: Partial, m_s: Partial, node: SJTreeNode) -> Partial | None:
    """Merge ``m``, stored at ``node``, with ``m_s`` from its sibling's
    bucket under the same key; None when they cannot form one match.

    Both are ``(edges, verts, t_min)`` tuples and so is the result, with
    the older of the two ``t_min``.  The key already makes the shared
    qvertices agree, and the two pieces share no qedge, so only the slots
    the sibling fills need checks: its data edges must be new to ``m`` and
    the data vertices of the qvertices only it binds must not already serve
    ``m``.
    """
    edges, verts, t_min = m
    s_edges, s_verts, s_t_min = m_s
    merged_edges = list(edges)
    for qe in node.sibling_edges:
        eid = s_edges[qe]
        if eid in edges:
            return None
        merged_edges[qe] = eid
    merged_verts = list(verts)
    for qv in node.sibling_verts:
        dv = s_verts[qv]
        if dv in verts:
            return None
        merged_verts[qv] = dv
    return tuple(merged_edges), tuple(merged_verts), t_min if t_min <= s_t_min else s_t_min


class SJTree:
    """The decomposition tree plus all runtime match state."""

    def __init__(self, query: QueryGraph, nodes: list[SJTreeNode], root_id: int):
        self.query = query
        self.nodes = nodes
        self.root_id = root_id
        self.leaf_ids = [n.node_id for n in nodes if n.is_leaf]
        self.leaf_ids.sort(key=lambda nid: nodes[nid].leaf_index)
        for n in nodes:
            if not n.is_leaf:
                key_of = _key_getter(n.cut_verts)
                for a, b in ((nodes[n.left], nodes[n.right]), (nodes[n.right], nodes[n.left])):
                    a.key_of = key_of
                    a.sibling = b.node_id
                    a.sibling_edges = tuple(sorted(b.piece.edges))
                    a.sibling_verts = tuple(sorted(b.piece.vertices - a.piece.vertices))
        self.stored_count = 0
        self.peak_stored = 0
        # optional hook fired after a match is stored at a non-root node;
        # the lazy engine uses it to grow its search frontier
        self.on_store: Callable[[SJTreeNode, Partial], None] | None = None

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
            nodes.append(SJTreeNode(i, p, _EMPTY_PIECE, None, None, None, i))
        if len(pieces) == 1:
            return cls(query, nodes, root_id=0)
        left_id = 0
        for i in range(1, len(pieces)):
            right_id = i
            piece = nodes[left_id].piece.union(nodes[right_id].piece)
            cut = nodes[left_id].piece.intersection(nodes[right_id].piece)
            internal = SJTreeNode(len(nodes), piece, cut, None, left_id, right_id, None)
            nodes.append(internal)
            nodes[left_id].parent = internal.node_id
            nodes[right_id].parent = internal.node_id
            left_id = internal.node_id
        return cls(query, nodes, root_id=left_id)

    @property
    def root(self) -> SJTreeNode:
        return self.nodes[self.root_id]

    def leaves(self) -> list[SJTreeNode]:
        return [self.nodes[i] for i in self.leaf_ids]

    def reset(self) -> None:
        """Drop all runtime match state, keeping the structure."""
        for n in self.nodes:
            n.table.clear()
        self.stored_count = 0
        self.peak_stored = 0

    # ------------------------------------------------------------------ updates

    def insert_and_propagate(
        self,
        node_id: int,
        m: Partial,
        cutoff: int | None,
        emit: Callable[[Partial], None],
    ) -> int:
        """Insert ``m`` at a node, probe the sibling, recurse on joins; return
        the number of complete matches emitted downstream of this insert.

        ``m`` is an ``(edges, verts, t_min)`` tuple, and ``emit`` receives
        each complete match in the same form.  It carries no ``t_max``: the
        caller supplies it when it builds the output ``Match``, as the
        newest edge's timestamp (see below).

        ``cutoff`` is the graph's eviction cutoff ``t_last - window`` (None:
        unbounded).  Every new complete match contains the newest edge, so a
        stored match can join into an emission only while its oldest edge is
        live: entries with ``t_min <= cutoff`` are skipped, and swept out of
        the bucket once they are its majority.  Leaf matches come from the
        live graph and a join of live matches is live, so a root match has
        ``cutoff < t_min <= t_max <= t_last``: its span is inside the window,
        and its ``t_max`` is ``t_last``, for it holds the newest edge.

        The caller inserts each leaf match once.  A match above the leaves is
        then one (left, right) pair, joined once, when the later of the two is
        stored — the earlier one probed before the later existed, and each
        stores itself only after its probe — and distinct pairs join to
        distinct matches, because the children's pieces are edge-disjoint.
        No node needs signatures.
        """
        if node_id == self.root_id:
            emit(m)
            return 1
        node = self.nodes[node_id]
        key = node.key_of(m[1])
        sibling = self.nodes[node.sibling]
        emitted = 0
        # nothing mutates this bucket while it is walked: recursion only goes
        # up to the parent, and on_store may only queue work
        bucket = sibling.table.get(key)
        if bucket:
            stale = 0
            for m_s in bucket:
                if cutoff is not None and m_s[2] <= cutoff:
                    stale += 1
                    continue
                combined = join(m, m_s, node)
                if combined is not None:
                    emitted += self.insert_and_propagate(node.parent, combined, cutoff, emit)
            if stale * 2 > len(bucket):
                kept = [x for x in bucket if x[2] > cutoff]
                if kept:
                    bucket[:] = kept
                else:
                    del sibling.table[key]
                self.stored_count -= stale
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
        return emitted

    def purge_stale(self, cutoff: int | None) -> int:
        """Drop stored matches with ``t_min <= cutoff``; return the count.

        Their oldest edge has left the graph, so, as in
        ``insert_and_propagate``, they can never join into an emission.
        """
        if cutoff is None:
            return 0
        removed = 0
        for node in self.nodes:
            for key in list(node.table):
                bucket = node.table[key]
                kept = [m for m in bucket if m[2] > cutoff]
                if len(kept) != len(bucket):
                    removed += len(bucket) - len(kept)
                    if kept:
                        node.table[key] = kept
                    else:
                        del node.table[key]
        self.stored_count -= removed
        return removed

    # -------------------------------------------------------------- plan text

    def serialize(self) -> str:
        """Deterministic text form of the tree structure (no match state)."""
        out = [f"sjtree {len(self.nodes)}"]
        for node in self.nodes:
            parent = "-" if node.parent is None else str(node.parent)
            left = "-" if node.left is None else str(node.left)
            right = "-" if node.right is None else str(node.right)
            leaf_index = "-" if node.leaf_index is None else str(node.leaf_index)
            out.append(
                f"node {node.node_id} parent={parent} left={left} right={right} leaf_index={leaf_index}"
            )
            for qe in sorted(node.piece.edges):
                out.append(f"  subgraph: edge {qe}")
            cut_parts = [f"vertex {qv}" for qv in node.cut_verts]
            out.append("  cut: " + (" ".join(cut_parts) if cut_parts else "empty"))
        return "\n".join(out) + "\n"

    @classmethod
    def deserialize(cls, text: str, query: QueryGraph, source: str | None = None) -> "SJTree":
        """Parse and fully validate a serialized tree against ``query``."""
        lines = text.splitlines()
        if not lines:
            raise PlanError("empty plan", source=source)
        header = lines[0].split()
        if len(header) != 2 or header[0] != "sjtree":
            raise PlanError("expected header 'sjtree <num_nodes>'", line=1, source=source)
        try:
            n_nodes = int(header[1])
        except ValueError:
            raise PlanError(f"bad node count {header[1]!r}", line=1, source=source) from None
        if n_nodes <= 0:
            raise PlanError("node count must be positive", line=1, source=source)

        # raw parse
        raw: dict[int, dict] = {}
        node_line: dict[int, int] = {}
        current: dict | None = None
        for idx, line in enumerate(lines[1:], start=2):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.split()
            if parts[0] == "node":
                if len(parts) != 6:
                    raise PlanError("want: node <id> parent=.. left=.. right=.. leaf_index=..", line=idx, source=source)
                try:
                    nid = int(parts[1])
                except ValueError:
                    raise PlanError(f"bad node id {parts[1]!r}", line=idx, source=source) from None
                if nid in raw:
                    raise PlanError(f"duplicate node {nid}", line=idx, source=source)
                fields = {}
                for part in parts[2:]:
                    k, _, v = part.partition("=")
                    if k not in ("parent", "left", "right", "leaf_index") or not v:
                        raise PlanError(f"bad field {part!r}", line=idx, source=source)
                    if v == "-":
                        fields[k] = None
                    else:
                        try:
                            fields[k] = int(v)
                        except ValueError:
                            raise PlanError(f"bad field {part!r}", line=idx, source=source) from None
                current = {"edges": set(), "cut": None, **fields}
                raw[nid] = current
                node_line[nid] = idx
            elif parts[0] == "subgraph:":
                if current is None:
                    raise PlanError("subgraph line before any node", line=idx, source=source)
                if len(parts) != 3 or parts[1] != "edge":
                    raise PlanError("want: subgraph: edge <qedge-id>", line=idx, source=source)
                try:
                    current["edges"].add(int(parts[2]))
                except ValueError:
                    raise PlanError(f"bad qedge id {parts[2]!r}", line=idx, source=source) from None
            elif parts[0] == "cut:":
                if current is None:
                    raise PlanError("cut line before any node", line=idx, source=source)
                if current["cut"] is not None:
                    raise PlanError("duplicate cut line", line=idx, source=source)
                verts = set()
                rest = parts[1:]
                if rest == ["empty"]:
                    pass
                elif not rest or len(rest) % 2:
                    raise PlanError("want: cut: empty | (vertex <id>)...", line=idx, source=source)
                else:
                    for kind, val in zip(rest[::2], rest[1::2]):
                        if kind != "vertex":
                            raise PlanError(f"bad cut element {kind!r}", line=idx, source=source)
                        try:
                            verts.add(int(val))
                        except ValueError:
                            raise PlanError(f"bad cut id {val!r}", line=idx, source=source) from None
                current["cut"] = verts
            else:
                raise PlanError(f"unexpected line {body!r}", line=idx, source=source)

        if sorted(raw) != list(range(n_nodes)):
            raise PlanError(f"expected dense node ids 0..{n_nodes - 1}", source=source)

        def fail(nid: int, msg: str) -> PlanError:
            return PlanError(msg, line=node_line[nid], source=source)

        # build + structural validation
        nodes: list[SJTreeNode] = []
        for nid in range(n_nodes):
            r = raw[nid]
            for qe in r["edges"]:
                if not (0 <= qe < query.n_edges):
                    raise fail(nid, f"node {nid} references qedge {qe} outside the query")
            piece = QueryPiece.from_edges(query, r["edges"]) if r["edges"] else _EMPTY_PIECE
            cut_verts = r["cut"] or set()
            for qv in cut_verts:
                if not (0 <= qv < query.n_vertices):
                    raise fail(nid, f"node {nid} cut references qvertex {qv} outside the query")
            cut = QueryPiece(frozenset(), frozenset(cut_verts))
            nodes.append(
                SJTreeNode(nid, piece, cut, r["parent"], r["left"], r["right"], r["leaf_index"])
            )

        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise PlanError("plan must have exactly one root (parent=-)", source=source)
        root = roots[0]
        for n in nodes:
            if (n.left is None) != (n.right is None):
                raise fail(n.node_id, f"node {n.node_id} must have both children or neither")
            if n.is_leaf:
                if n.leaf_index is None:
                    raise fail(n.node_id, f"leaf {n.node_id} is missing leaf_index")
                if not n.piece.edges:
                    raise fail(n.node_id, f"leaf {n.node_id} has an empty subgraph")
                if len(n.piece.edges) > 3:
                    raise fail(n.node_id, f"leaf {n.node_id} exceeds 3 edges")
                if not n.piece.is_connected(query):
                    raise fail(n.node_id, f"leaf {n.node_id} subgraph is not connected")
            else:
                if n.leaf_index is not None:
                    raise fail(n.node_id, f"internal node {n.node_id} must have leaf_index=-")
                for cid, side in ((n.left, "left"), (n.right, "right")):
                    if not (0 <= cid < n_nodes):
                        raise fail(n.node_id, f"node {n.node_id} {side} child {cid} does not exist")
                    if nodes[cid].parent != n.node_id:
                        raise fail(n.node_id, f"child {cid} does not point back to parent {n.node_id}")
                if not nodes[n.right].is_leaf:
                    raise fail(n.node_id, f"node {n.node_id} is not left-deep: right child must be a leaf")
                lp, rp = nodes[n.left].piece, nodes[n.right].piece
                if n.piece != lp.union(rp):
                    raise fail(n.node_id, f"node {n.node_id} subgraph is not the union of its children")
                if n.cut != lp.intersection(rp):
                    raise fail(n.node_id, f"node {n.node_id} cut is not the intersection of its children")
        if root.parent is not None or root.piece.edges != frozenset(range(query.n_edges)):
            raise PlanError("root subgraph must equal the whole query", line=node_line[root.node_id], source=source)

        leaves = [n for n in nodes if n.is_leaf]
        leaf_union: set[int] = set()
        for n in leaves:
            if leaf_union & n.piece.edges:
                raise fail(n.node_id, "leaf subgraphs overlap")
            leaf_union |= n.piece.edges
        if leaf_union != set(range(query.n_edges)):
            raise PlanError("leaf subgraphs do not cover the query", source=source)
        if sorted(n.leaf_index for n in leaves) != list(range(len(leaves))):
            raise PlanError("leaf_index values must be dense ordinals", source=source)
        # left-to-right order must match leaf_index
        order: list[int] = []

        def walk(nid: int) -> None:
            n = nodes[nid]
            if n.is_leaf:
                order.append(n.leaf_index)
            else:
                walk(n.left)
                walk(n.right)

        walk(root.node_id)
        if order != sorted(order):
            raise PlanError("leaf_index must increase left to right", source=source)

        return cls(query, nodes, root_id=root.node_id)
