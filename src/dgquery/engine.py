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

Each leaf's search plan is built once, with the engine, and an arriving edge
goes only to the leaves whose piece uses its label: one dict lookup per edge
gives those leaves in leaf order, each marked gated or always on.

The retroactive sweeps run off a flat worklist rather than recursing, and
gated searches are deduplicated on (leaf, edge id) — which also bounds
the lazy engine's primitive searches by the eager engine's count.

Below the root, partial matches are the join tree's flat ``(t_min, e_0 ...
e_{E-1}, v_0 ... v_{V-1})`` tuples (``sjtree.Partial``); a
:class:`~dgquery.query.Match` is built once per emission.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UnsupportedPrimitiveError
from .graph import DynamicGraph, EdgeRecord, RawEdge
from .query import Match, QueryGraph, QueryPiece
from .sjtree import Partial, SJTree, SJTreeNode

__all__ = ["SearchPlan", "search_plan", "match_primitive", "Counters", "Engine"]

MAX_PRIMITIVE_EDGES = 3
PURGE_INTERVAL = 1 << 14  # edges between two purge_stale sweeps; 0 disables them
SEARCHED_MIN_PRUNE = 1 << 10  # the fewest search records worth a prune


def _extension_steps(query: QueryGraph, edge_ids: list[int], role: int) -> tuple[tuple, ...]:
    """Bind the non-anchor qedges in an order where each touches an already
    bound vertex; per qedge: its id and label, whether it is walked forward
    (out of its bound source), the bound qvertex it is walked from, its other
    end, whether that end is bound already, and that end's label."""
    e = query.edges[role]
    bound = {e.src, e.dst}
    rest = [qe for qe in edge_ids if qe != role]
    steps: list[tuple] = []
    while rest:
        for i, qe in enumerate(rest):
            cand = query.edges[qe]
            if cand.src in bound:
                forward, start, end = True, cand.src, cand.dst
            elif cand.dst in bound:
                forward, start, end = False, cand.dst, cand.src
            else:
                continue
            steps.append((qe, cand.label, forward, start, end, end in bound, query.vertex_labels[end]))
            bound.update((cand.src, cand.dst))
            del rest[i]
            break
        else:
            raise UnsupportedPrimitiveError("primitive subgraph must be connected")
    return tuple(steps)


class SearchPlan(NamedTuple):
    """How to search one piece of one query: the query's qedge and qvertex
    counts (the widths of a result), and per edge label the qedges of the
    piece an anchor with that label can hold, each with its end vertex
    labels, its end qvertices, and the steps that bind the piece's other
    qedges."""

    n_edges: int
    n_verts: int
    roles: dict[str, tuple[tuple, ...]]


def search_plan(query: QueryGraph, piece: QueryPiece) -> SearchPlan:
    """The plan :func:`match_primitive` follows for ``piece``; raises
    ``UnsupportedPrimitiveError`` unless the piece is 1–3 connected qedges.
    The engine builds one per leaf, once."""
    edge_ids = sorted(piece.edges)
    if not edge_ids:
        raise UnsupportedPrimitiveError("empty primitive")
    if len(edge_ids) > MAX_PRIMITIVE_EDGES:
        raise UnsupportedPrimitiveError(
            f"primitive has {len(edge_ids)} edges; max is {MAX_PRIMITIVE_EDGES}"
        )
    roles: dict[str, list[tuple]] = {}
    for role in edge_ids:
        qe = query.edges[role]
        steps = _extension_steps(query, edge_ids, role)
        roles.setdefault(qe.label, []).append(
            (role, query.vertex_labels[qe.src], query.vertex_labels[qe.dst], qe.src, qe.dst, steps)
        )
    return SearchPlan(
        len(query.edges),
        len(query.vertex_labels),
        {label: tuple(r) for label, r in roles.items()},
    )


def match_primitive(graph: DynamicGraph, plan: SearchPlan, anchor: EdgeRecord) -> list[Partial]:
    """All matches of a 1–3 edge sub-pattern that include ``anchor``, searched
    by the pattern's :func:`search_plan`, as the join tree's flat ``(t_min,
    e_0 ... e_{E-1}, v_0 ... v_{V-1})`` tuples: the oldest bound timestamp,
    then a data edge id or None per qedge and a data vertex or None per
    qvertex.  No ``t_max`` is kept: the engine stamps each complete match
    with the newest edge's timestamp when it emits it.

    The search fills separate ``edges`` and ``verts`` scratch lists, so each
    injectivity test compares like with like, and lays them out flat once
    per result.

    The anchor is tried in every compatible qedge role, so automorphic
    placements surface as distinct matches.  Bindings are injective on
    vertices and edges.
    """
    n_edges, n_verts, roles = plan
    results: list[Partial] = []
    edges: list[int | None] = [None] * n_edges
    verts: list[str | None] = [None] * n_verts
    for role, src_type, dst_type, qs, qd, steps in roles.get(anchor.edge_type, ()):
        if src_type != anchor.src_type or dst_type != anchor.dst_type:
            continue
        if (qs == qd) != (anchor.src == anchor.dst):
            continue  # a loop qedge takes exactly the data loops
        verts[qs] = anchor.src
        verts[qd] = anchor.dst
        edges[role] = anchor.edge_id
        _extend(graph, steps, 0, edges, verts, anchor.timestamp, results)
        edges[role] = None
        verts[qs] = verts[qd] = None
    return results


def _extend(
    graph: DynamicGraph,
    steps: tuple[tuple, ...],
    depth: int,
    edges: list[int | None],
    verts: list[str | None],
    t_min: int,
    out: list[Partial],
) -> None:
    """Bind ``steps[depth:]`` in turn, filling ``edges``/``verts`` in place
    and clearing each slot again on the way back."""
    if depth == len(steps):
        out.append((t_min, *edges, *verts))
        return
    qe_id, label, forward, start, end, end_bound, want = steps[depth]
    recs = graph.out_edges(verts[start]) if forward else graph.in_edges(verts[start])
    if end_bound:
        # a step walks backward only from an unbound source, so this one
        # is forward and closes on its bound destination
        target = verts[end]
        for rec in recs:
            if rec.edge_type != label or rec.dst != target or rec.edge_id in edges:
                continue
            edges[qe_id] = rec.edge_id
            ts = rec.timestamp
            _extend(graph, steps, depth + 1, edges, verts, ts if ts < t_min else t_min, out)
            edges[qe_id] = None
        return
    for rec in recs:
        if rec.edge_type != label:
            continue
        if forward:
            far, far_type = rec.dst, rec.dst_type
        else:
            far, far_type = rec.src, rec.src_type
        # injectivity on vertices; it also turns away a data loop, whose far
        # end is the bound vertex
        if far_type != want or far in verts or rec.edge_id in edges:
            continue
        verts[end] = far
        edges[qe_id] = rec.edge_id
        ts = rec.timestamp
        _extend(graph, steps, depth + 1, edges, verts, ts if ts < t_min else t_min, out)
        verts[end] = None
        edges[qe_id] = None


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
        # a Partial's edge slots and vertex slots
        self._edge_slots = slice(1, 1 + query.n_edges)
        self._vert_slots = slice(1 + query.n_edges, None)

        tree.reset()
        self._leaves = tree.leaves()
        self._plans = [search_plan(query, leaf.piece) for leaf in self._leaves]
        # leaf gating state: per-leaf {vertex: remaining hops}
        self._budget: list[dict[str, int]] = [{} for _ in self._leaves]
        # (gated leaf_index, edge_id) -> graph.edges_ingested at that search;
        # pruned of evicted edges whenever it passes _searched_cap
        self._searched: dict[tuple[int, int], int] = {}
        self._searched_cap = SEARCHED_MIN_PRUNE
        self._pending: deque[tuple[int, str, int]] = deque()  # sweeps to run
        if lazy:
            self._always_on = {0}
            for leaf in self._leaves[1:]:
                if not tree.nodes[leaf.parent].cut_verts:
                    # a cross-join leaf shares no vertex with its prefix: no
                    # bit could ever gate it soundly, so it stays live
                    self._always_on.add(leaf.leaf_index)
        else:
            self._always_on = set(range(len(self._leaves)))
        # per edge label, the leaves an edge with it can anchor (those whose
        # piece uses the label), in leaf order, as (leaf, leaf index, gated)
        by_label: dict[str, list[tuple[SJTreeNode, int, bool]]] = {}
        for leaf, plan in zip(self._leaves, self._plans):
            idx = leaf.leaf_index
            for label in plan.roles:
                by_label.setdefault(label, []).append((leaf, idx, idx not in self._always_on))
        self._by_label = {label: tuple(entries) for label, entries in by_label.items()}
        # node -> the gated leaf its matches unlock, as that leaf's budget
        # table, its index and the budget an unlock grants; None off the
        # spine (whose nodes are leaf 0 and the internal ones), at its top,
        # and before an always-on leaf
        self._unlocks: dict[int, tuple[dict[str, int], int, int] | None] = {}
        for node in tree.nodes:
            spine = not node.is_leaf or node.leaf_index == 0
            nxt = (node.leaf_index if node.is_leaf else tree.nodes[node.right].leaf_index) + 1
            if spine and nxt < len(self._leaves) and nxt not in self._always_on:
                start = len(self._leaves[nxt].piece.edges) - 1
                self._unlocks[node.node_id] = (self._budget[nxt], nxt, start)
            else:
                self._unlocks[node.node_id] = None
        tree.on_store = self._on_store if lazy else None

    # ------------------------------------------------------------------ stream

    def process(self, raw: RawEdge) -> list[Match]:
        """Ingest one edge; return the newly appeared complete matches."""
        rec = self.graph.add_edge(raw)
        self._delta = []
        for leaf, idx, gated in self._by_label.get(rec.edge_type, ()):
            if not gated:
                self._anchored_search(leaf, idx, False, rec)
            else:
                budget = self._budget[idx]
                b = max(budget.get(rec.src, -1), budget.get(rec.dst, -1))
                if b < 0:
                    continue
                self._anchored_search(leaf, idx, True, rec)
                if b >= 1:
                    self._enable(rec.src, idx, b - 1)
                    self._enable(rec.dst, idx, b - 1)
            # run any retroactive sweeps before the next leaf reads its gate,
            # so leaves are searched strictly one after the other
            if self._pending:
                self._drain()
        self.counters.edges += 1
        if PURGE_INTERVAL and self.counters.edges % PURGE_INTERVAL == 0:
            self.counters.purged += self.tree.purge_stale(self._cutoff())
        return self._delta

    def _cutoff(self) -> int | None:
        """The graph's eviction cutoff: edges at or before it are gone."""
        return None if self.window is None else self.graph.t_last - self.window

    def _emit(self, m: Partial) -> None:
        # every new complete match holds the edge that just arrived, the
        # newest one, so its t_max is the graph's t_last
        match = Match(m[self._edge_slots], m[self._vert_slots], m[0], self.graph.t_last)
        self.log.append(match)
        self.counters.emitted += 1
        self._delta.append(match)

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
            labels = self._plans[leaf_index].roles
            # searches here only queue further sweeps; none touches the graph
            for rec in self.graph.neighbors(vid, "any"):
                if rec.edge_type not in labels:
                    continue
                self._anchored_search(leaf, leaf_index, True, rec)
                if budget >= 1:
                    far = rec.dst if rec.src == vid else rec.src
                    self._enable(far, leaf_index, budget - 1)

    def _anchored_search(self, leaf: SJTreeNode, idx: int, gated: bool, rec: EdgeRecord) -> None:
        """Search ``leaf`` (leaf index ``idx``, gated or always on) anchored
        at ``rec`` by its search plan, and feed each new hit into the tree
        once.

        A gated leaf can be offered one edge several times (on arrival and by
        sweeps), so its searches are deduplicated on (leaf, edge id), each
        recording ``graph.edges_ingested`` at the time.  An always-on leaf
        skips that record: only gated leaves are ever queued by ``_enable``,
        so it is searched once per edge, on arrival, and only the search at a
        match's newest edge finds the match.

        A gated multi-edge leaf can find one match from several of its edges.
        A hit is dropped when another of its edges ``x`` has
        ``_searched[(leaf, x)] > max(edge ids of the hit)``: every edge of the
        hit had arrived when ``x`` was searched, and each is live now, so it
        was live then, and that search already found and fed the hit.
        """
        if gated:
            key = (idx, rec.edge_id)
            if key in self._searched:
                return
            self._searched[key] = self.graph.edges_ingested
            if len(self._searched) > self._searched_cap:
                self._prune_searched()
        self.counters.match_calls += 1
        matches = match_primitive(self.graph, self._plans[idx], rec)
        if not matches:
            return
        cutoff = self._cutoff()
        qedges = leaf.piece.edges
        searched = self._searched if gated and len(qedges) > 1 else None
        for m in matches:
            if searched is not None:
                ids = [m[1 + qe] for qe in qedges]
                newest = max(ids)
                if any(x != rec.edge_id and searched.get((idx, x), -1) > newest for x in ids):
                    continue
            self.tree.insert_and_propagate(leaf.node_id, m, cutoff, self._emit)

    def _prune_searched(self) -> None:
        """Drop the search records of evicted edges, which no sweep can reach
        and no hit can hold, and let ``_searched`` double before the next
        prune: it stays within twice its live records, at amortized O(1)
        per search.  Edge ids follow arrival and eviction is first in, first
        out, so the live ids are exactly [edges_evicted, edges_ingested)."""
        evicted = self.graph.edges_evicted
        self._searched = {k: v for k, v in self._searched.items() if k[1] >= evicted}
        self._searched_cap = max(2 * len(self._searched), SEARCHED_MIN_PRUNE)

    def _on_store(self, node: SJTreeNode, m: Partial) -> None:
        """Tree callback: a spine match unlocks the next leaf around itself."""
        unlock = self._unlocks[node.node_id]
        if unlock is None:
            return
        table, idx, start = unlock
        for dv in m[self._vert_slots]:
            # most vertices are unlocked already: check before the call
            if dv is not None and table.get(dv, -1) < start:
                self._enable(dv, idx, start)
