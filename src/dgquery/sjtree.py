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
the join key.  Matches are stored keyed by their projection onto the parent's
cut, so a new match at one child probes its sibling's table with a plain hash
lookup, joins pairwise, and propagates upward.  Complete matches surface at
the root, are checked against the time window, and are emitted exactly once.
"""
from __future__ import annotations

from typing import Callable, Iterable

from .errors import PlanError
from .query import Match, QueryGraph, QueryPiece, join

__all__ = ["JoinKey", "SJTreeNode", "SJTree"]

# (cut vertex bindings in qvertex-id order, cut data-edge ids in qedge-id order)
JoinKey = tuple[tuple[str, ...], tuple[int, ...]]


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
        "cut_verts",
        "cut_edges",
        "table",
        "sigs",
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
        self.sibling: int | None = None  # the other child of the parent, set by SJTree
        # the order of the cut elements in a JoinKey, fixed at build time
        self.cut_verts = tuple(sorted(cut.vertices))
        self.cut_edges = tuple(sorted(cut.edges))
        # at the root, table stays empty and sigs records emitted signatures
        self.table: dict[JoinKey, list[Match]] = {}
        self.sigs: set[tuple[tuple[int, int], ...]] = set()

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


_EMPTY_PIECE = QueryPiece(frozenset(), frozenset())


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
                nodes[n.left].sibling = n.right
                nodes[n.right].sibling = n.left
        self.stored_count = 0
        self.peak_stored = 0
        # optional hook fired after a match is stored at a non-root node;
        # the lazy engine uses it to grow its search frontier
        self.on_store: Callable[[SJTreeNode, Match], None] | None = None

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
            n.sigs.clear()
        self.stored_count = 0
        self.peak_stored = 0

    # ------------------------------------------------------------------ updates

    def insert_and_propagate(
        self,
        node_id: int,
        m: Match,
        window: int | None,
        emit: Callable[[Match], None],
    ) -> int:
        """Insert ``m`` at a node, probe the sibling, recurse on joins.

        Complete matches reach the root and are emitted iff their time span is
        strictly inside the window; each signature is emitted at most once per
        run.  Returns the number of matches emitted downstream of this insert.
        Matches whose span already exceeds the window are dropped eagerly —
        growing them can only widen the span.
        """
        node = self.nodes[node_id]
        sig = m.pairs
        if sig in node.sigs:
            return 0
        if node_id == self.root_id:
            if window is not None and m.time_span() >= window:
                return 0
            node.sigs.add(sig)
            emit(m)
            return 1
        node.sigs.add(sig)
        parent = self.nodes[node.parent]
        b = m.bindings
        if parent.cut_edges:
            pm = m.pair_map
            key = (
                tuple(b[qv] for qv in parent.cut_verts),
                tuple(pm[qe] for qe in parent.cut_edges),
            )
        else:
            key = (tuple(b[qv] for qv in parent.cut_verts), ())
        sibling = self.nodes[node.sibling]
        emitted = 0
        t_min, t_max = m.t_min, m.t_max
        # An entry whose t_min trails m.t_max by a full window can never again
        # combine into an in-window emission (every later emission is at least
        # as new), so skip it and sweep such entries out of the bucket below.
        cutoff = None
        if window is not None and t_max is not None:
            cutoff = t_max - window
        stale = 0
        # iterate a snapshot: cascaded work fired by on_store may append to
        # tables while we walk this bucket
        bucket = sibling.table.get(key)
        for m_s in list(bucket) if bucket else ():
            s_min, s_max = m_s.t_min, m_s.t_max
            if cutoff is not None and s_min is not None:
                if s_min <= cutoff:
                    stale += 1
                    continue
                lo = t_min if t_min <= s_min else s_min
                hi = t_max if t_max >= s_max else s_max
                if hi - lo >= window:
                    continue
            combined = join(m, m_s)
            if combined is None:
                continue
            if window is not None and combined.time_span() >= window:
                continue
            emitted += self.insert_and_propagate(node.parent, combined, window, emit)
        if stale and bucket is not None and stale * 2 > len(bucket):
            kept = []
            for x in bucket:
                if x.t_min is None or x.t_min > cutoff:
                    kept.append(x)
                else:
                    sibling.sigs.discard(x.pairs)
            removed = len(bucket) - len(kept)
            if removed:
                bucket[:] = kept
                self.stored_count -= removed
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

    def purge_stale(self, t_last: int, window: int | None) -> int:
        """Drop stored matches with ``t_max <= t_last - window``; return count.

        Such matches can never complete: any future edge has a timestamp of at
        least ``t_last``, which would stretch the span to the full window.
        """
        if window is None:
            return 0
        cutoff = t_last - window
        removed = 0
        for node in self.nodes:
            if node.node_id == self.root_id:
                continue  # root keeps only emitted signatures
            if not node.table:
                continue
            for key in list(node.table):
                bucket = node.table[key]
                kept = [m for m in bucket if m.t_max is None or m.t_max > cutoff]
                if len(kept) != len(bucket):
                    for m in bucket:
                        if not (m.t_max is None or m.t_max > cutoff):
                            node.sigs.discard(m.pairs)
                            removed += 1
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
            cut_parts = [f"vertex {qv}" for qv in sorted(node.cut.vertices)]
            cut_parts += [f"edge {qe}" for qe in sorted(node.cut.edges)]
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
                verts, edges = set(), set()
                rest = parts[1:]
                if rest == ["empty"]:
                    pass
                elif not rest or len(rest) % 2:
                    raise PlanError("want: cut: empty | (vertex|edge <id>)...", line=idx, source=source)
                else:
                    for kind, val in zip(rest[::2], rest[1::2]):
                        try:
                            num = int(val)
                        except ValueError:
                            raise PlanError(f"bad cut id {val!r}", line=idx, source=source) from None
                        if kind == "vertex":
                            verts.add(num)
                        elif kind == "edge":
                            edges.add(num)
                        else:
                            raise PlanError(f"bad cut element {kind!r}", line=idx, source=source)
                current["cut"] = (verts, edges)
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
            cut_raw = r["cut"] or (set(), set())
            for qv in cut_raw[0]:
                if not (0 <= qv < query.n_vertices):
                    raise fail(nid, f"node {nid} cut references qvertex {qv} outside the query")
            for qe in cut_raw[1]:
                if not (0 <= qe < query.n_edges):
                    raise fail(nid, f"node {nid} cut references qedge {qe} outside the query")
            cut = QueryPiece(frozenset(cut_raw[1]), frozenset(cut_raw[0]))
            # QueryPiece signature is (edges, vertices)
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
