"""Incremental continuous-query engine.

Per arriving edge the engine updates the window, finds new matches of each
decomposition leaf anchored at that edge, and feeds them through the join
tree; matches reaching the root inside the time window are emitted, and the
per-edge return value is exactly the set of newly appeared complete matches.

Lazy Search prunes the leaf searches: leaf 0 (the rarest primitive) is
always live, while leaf i+1 is searched around a vertex only after the join
prefix covering leaves 0..i has matched there.  Enablement is tracked as a
per-(leaf, vertex) hop budget that only ever rises, and raising it is a
single operation with two effects: the vertex's future arrivals pass the
gate, and its *current* incident live edges are searched retroactively,
catching primitive matches whose edges arrived before the prefix completed.
Budgets come from two rules:

1. a match stored on the join spine (leaf 0 or an internal node) enables the
   next leaf in join order on all of the match's vertices, with a budget of
   that leaf's piece size minus one;
2. a search touching an enabled vertex re-enables the far side of each probed
   edge at one budget less, so a partially present multi-edge primitive keeps
   its search zone open for the edges still missing — but the zone never
   grows past the piece diameter, keeping single-edge leaves point-localized.

Eager mode is the same loop with every leaf always live: nothing is gated,
nothing is enabled, and every leaf is searched at every arriving edge.

The retroactive sweeps run off a flat worklist rather than recursing, and
gated searches are deduplicated on (leaf, edge id) — which also bounds
the lazy engine's primitive searches by the eager engine's count.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import UnsupportedPrimitiveError
from .graph import DynamicGraph, EdgeRecord, RawEdge
from .query import Match, QueryGraph, QueryPiece
from .sjtree import SJTree, SJTreeNode

__all__ = ["match_primitive", "Counters", "Engine"]

MAX_PRIMITIVE_EDGES = 3
PURGE_INTERVAL = 1 << 14  # edges between two purge_stale sweeps; 0 disables them


def _extension_order(query: QueryGraph, edge_ids: list[int], role: int) -> list[int]:
    """Order the non-anchor qedges so each one touches an already-bound vertex."""
    e = query.edges[role]
    bound = {e.src, e.dst}
    rest = [qe for qe in edge_ids if qe != role]
    order: list[int] = []
    while rest:
        for i, qe in enumerate(rest):
            cand = query.edges[qe]
            if cand.src in bound or cand.dst in bound:
                bound.update((cand.src, cand.dst))
                order.append(qe)
                del rest[i]
                break
        else:
            raise UnsupportedPrimitiveError("primitive subgraph must be connected")
    return order


def match_primitive(
    graph: DynamicGraph,
    query: QueryGraph,
    piece: QueryPiece,
    anchor: EdgeRecord,
) -> list[Match]:
    """All matches of a 1–3 edge sub-pattern that include ``anchor``.

    The anchor is tried in every compatible qedge role, so automorphic
    placements surface as distinct matches.  Bindings are injective on
    vertices and edges.
    """
    edge_ids = sorted(piece.edges)
    if not edge_ids:
        raise UnsupportedPrimitiveError("empty primitive")
    if len(edge_ids) > MAX_PRIMITIVE_EDGES:
        raise UnsupportedPrimitiveError(
            f"primitive has {len(edge_ids)} edges; max is {MAX_PRIMITIVE_EDGES}"
        )
    results: list[Match] = []
    for role in edge_ids:
        qe = query.edges[role]
        if (
            qe.label != anchor.edge_type
            or query.vertex_labels[qe.src] != anchor.src_type
            or query.vertex_labels[qe.dst] != anchor.dst_type
        ):
            continue
        if qe.src == qe.dst:
            if anchor.src != anchor.dst:
                continue
            binding = {qe.src: anchor.src}
        else:
            if anchor.src == anchor.dst:
                continue  # two qvertices cannot share one data vertex
            binding = {qe.src: anchor.src, qe.dst: anchor.dst}
        rev = {dv: qv for qv, dv in binding.items()}
        order = _extension_order(query, edge_ids, role)
        _extend(
            graph,
            query,
            order,
            0,
            binding,
            rev,
            {role: anchor},
            {anchor.edge_id},
            results,
        )
    return results


def _extend(
    graph: DynamicGraph,
    query: QueryGraph,
    order: list[int],
    depth: int,
    binding: dict[int, str],
    rev: dict[str, int],
    assigned: dict[int, EdgeRecord],
    used_edges: set[int],
    out: list[Match],
) -> None:
    if depth == len(order):
        out.append(
            Match(
                [(qe, rec.edge_id, rec.timestamp) for qe, rec in assigned.items()],
                binding,
            )
        )
        return
    qe_id = order[depth]
    qe = query.edges[qe_id]
    src_bound = binding.get(qe.src)
    dst_bound = binding.get(qe.dst)

    def attempt(rec: EdgeRecord, new_qv: int | None, new_dv: str | None) -> None:
        if rec.edge_id in used_edges:
            return
        if new_qv is not None:
            if new_dv in rev:
                return  # injectivity on vertices
            binding[new_qv] = new_dv
            rev[new_dv] = new_qv
        assigned[qe_id] = rec
        used_edges.add(rec.edge_id)
        _extend(graph, query, order, depth + 1, binding, rev, assigned, used_edges, out)
        used_edges.discard(rec.edge_id)
        del assigned[qe_id]
        if new_qv is not None:
            del binding[new_qv]
            del rev[new_dv]

    if src_bound is not None and dst_bound is not None:
        for rec in graph.neighbors(src_bound, "out", qe.label):
            if rec.dst == dst_bound:
                attempt(rec, None, None)
    elif src_bound is not None:
        want = query.vertex_labels[qe.dst]
        for rec in graph.neighbors(src_bound, "out", qe.label):
            if rec.dst_type != want:
                continue
            if qe.src == qe.dst:
                continue  # loop qedge needs src == dst, handled by both-bound branch
            if rec.src == rec.dst:
                continue  # data loop cannot serve two distinct qvertices
            attempt(rec, qe.dst, rec.dst)
    elif dst_bound is not None:
        want = query.vertex_labels[qe.src]
        for rec in graph.neighbors(dst_bound, "in", qe.label):
            if rec.src_type != want:
                continue
            if qe.src == qe.dst or rec.src == rec.dst:
                continue
            attempt(rec, qe.src, rec.src)
    else:  # unreachable for connected primitives
        raise UnsupportedPrimitiveError("extension lost connectivity")


@dataclass
class Counters:
    """Running totals: ``match_calls`` counts anchored primitive searches
    actually run.  Label-incompatible anchors are filtered out before the
    search, and a gated leaf is searched on a subset of the (leaf, edge)
    pairs an always-on leaf is, so the count with ``lazy=False`` bounds the
    count with ``lazy=True``."""

    edges: int = 0
    match_calls: int = 0
    emitted: int = 0
    purged: int = 0


class Engine:
    """Continuous-query engine over one decomposition tree.

    ``lazy=True`` gates every leaf but the always-on ones behind the
    enablement budgets described in the module docstring; ``lazy=False``
    makes every leaf always on.  Either way ``process`` returns the complete
    matches that became visible at that edge, exactly once each, and ``log``
    lists every match emitted so far.
    """

    def __init__(
        self,
        query: QueryGraph,
        tree: SJTree,
        window: int | None = None,
        *,
        lazy: bool = False,
    ):
        if tree.query != query:
            raise ValueError("tree was built for a different query")
        self.query = query
        self.tree = tree
        self.window = window
        self.graph = DynamicGraph(window)
        self.log: list[Match] = []
        self.counters = Counters()
        self._delta: list[Match] = []

        tree.reset()
        self._leaves = tree.leaves()
        # an edge can only anchor a leaf whose piece uses its label
        self._leaf_labels: list[frozenset[str]] = [
            frozenset(query.edges[qe].label for qe in leaf.piece.edges)
            for leaf in self._leaves
        ]
        # leaf gating state: per-leaf {vertex: remaining hops}
        self._budget: list[dict[str, int]] = [{} for _ in self._leaves]
        self._searched: set[tuple[int, int]] = set()  # (gated leaf_index, edge_id)
        self._pending: deque[tuple[int, str, int]] = deque()  # sweeps to run
        if lazy:
            self._always_on = {0}
            for leaf in self._leaves[1:]:
                if not tree.nodes[leaf.parent].cut.vertices:
                    # a cross-join leaf shares no vertex with its prefix: no
                    # bit could ever gate it soundly, so it stays live
                    self._always_on.add(leaf.leaf_index)
        else:
            self._always_on = set(range(len(self._leaves)))
        # spine node -> the leaf whose search that node's matches unlock
        self._next_leaf: dict[int, SJTreeNode | None] = {}
        for node in tree.nodes:
            if node.is_leaf and node.leaf_index != 0:
                self._next_leaf[node.node_id] = None
                continue
            rightmost = node.leaf_index if node.is_leaf else tree.nodes[node.right].leaf_index
            nxt = rightmost + 1
            self._next_leaf[node.node_id] = (
                self._leaves[nxt] if nxt < len(self._leaves) else None
            )
        tree.on_store = self._on_store if lazy else None

    # ------------------------------------------------------------------ stream

    def process(self, raw: RawEdge) -> list[Match]:
        """Ingest one edge; return the newly appeared complete matches."""
        rec = self.graph.add_edge(raw)
        self._delta = []
        for leaf in self._leaves:
            idx = leaf.leaf_index
            if rec.edge_type not in self._leaf_labels[idx]:
                continue
            if idx in self._always_on:
                self._anchored_search(leaf, rec)
            else:
                budget = self._budget[idx]
                b = max(budget.get(rec.src, -1), budget.get(rec.dst, -1))
                if b < 0:
                    continue
                self._anchored_search(leaf, rec)
                if b >= 1:
                    self._enable(rec.src, idx, b - 1)
                    self._enable(rec.dst, idx, b - 1)
            # run any retroactive sweeps before the next leaf reads its gate,
            # so leaves are searched strictly one after the other
            self._drain()
        self.counters.edges += 1
        if PURGE_INTERVAL and self.counters.edges % PURGE_INTERVAL == 0:
            self.counters.purged += self.tree.purge_stale(self.graph.t_last, self.window)
        return self._delta

    def _emit(self, m: Match) -> None:
        self.log.append(m)
        self.counters.emitted += 1
        self._delta.append(m)

    # -------------------------------------------------------------- lazy gates

    def _enable(self, vid: str, leaf_index: int, budget: int) -> None:
        """Raise one gate budget; a genuine raise queues a retroactive sweep.

        The sweep is what makes the budget trustworthy: once recorded, it
        asserts that every live edge at the vertex has been offered to that
        leaf, and (when the budget allows further hops) that the far side of
        each such edge is enabled one hop weaker.  Budgets are never lowered
        or cleared, so a vertex that dies and reappears merely over-searches;
        the (leaf, edge) dedupe keeps that sound and cheap.
        """
        table = self._budget[leaf_index]
        if table.get(vid, -1) >= budget:
            return
        table[vid] = budget
        self._pending.append((leaf_index, vid, budget))

    def _drain(self) -> None:
        """Run queued sweeps until none are left, without recursing."""
        while self._pending:
            leaf_index, vid, budget = self._pending.popleft()
            leaf = self._leaves[leaf_index]
            labels = self._leaf_labels[leaf_index]
            # snapshot: searches can cascade into further enables mid-walk
            for rec in list(self.graph.neighbors(vid, "any")):
                if rec.edge_type not in labels:
                    continue
                self._anchored_search(leaf, rec)
                if budget >= 1:
                    far = rec.dst if rec.src == vid else rec.src
                    self._enable(far, leaf_index, budget - 1)

    def _anchored_search(self, leaf: SJTreeNode, rec: EdgeRecord) -> None:
        """Search ``leaf``'s primitive anchored at ``rec`` and feed the hits
        into the tree.

        A gated leaf can be offered one edge several times (on arrival and by
        sweeps), so its searches are deduplicated on (leaf, edge id).  An
        always-on leaf skips that set: it is searched directly on arrival
        only, because only gated leaves are ever queued by ``_enable`` —
        ``_on_store`` returns early for always-on leaves, and ``_drain`` only
        sweeps queued leaves.  Each always-on (leaf, edge) pair is therefore
        searched exactly once, and the set could never hit for it.
        """
        idx = leaf.leaf_index
        if idx not in self._always_on:
            key = (idx, rec.edge_id)
            if key in self._searched:
                return
            self._searched.add(key)
        self.counters.match_calls += 1
        for m in match_primitive(self.graph, self.query, leaf.piece, rec):
            self.tree.insert_and_propagate(leaf.node_id, m, self.window, self._emit)

    def _on_store(self, node: SJTreeNode, m: Match) -> None:
        """Tree callback: a spine match unlocks the next leaf around itself."""
        nxt = self._next_leaf[node.node_id]
        if nxt is None or nxt.leaf_index in self._always_on:
            return
        idx = nxt.leaf_index
        start = len(nxt.piece.edges) - 1
        for dv in m.bindings.values():
            self._enable(dv, idx, start)
