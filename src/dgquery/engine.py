"""Incremental continuous-query engine.

Per arriving edge the engine updates the window, finds new matches of each
decomposition leaf anchored at that edge, and feeds them through the join
tree; matches reaching the root inside the time window are emitted, and the
per-edge return value is exactly the set of newly appeared complete matches.

Lazy Search prunes the leaf searches: leaf 0 (the rarest primitive) is
always live, while leaf i+1 is searched only where a stored match of the
join spine (leaf 0 or an internal node: the prefix covering leaves 0..i)
binds the qvertices it shares with that leaf, its parent's cut.  Each gated
leaf keeps one set of data vertices per cut qvertex ``c``:

1. storing a spine match allows its binding ``m[c]`` in the next leaf's set
   for every cut qvertex ``c`` of that leaf, and nothing else of the match;
2. an edge passes a gated leaf's role gate when some qedge of the piece with
   the edge's label can hold it with every cut endpoint allowed: its source
   in the set of the qedge's source when that is a cut qvertex, its
   destination in the set of the qedge's destination when that is one; an
   end outside the cut always passes;
3. a binding (c, v) not yet allowed queues a sweep, which adds it: every
   live edge out of ``v`` (when ``c`` is the source of a qedge of the piece)
   and into ``v`` (when it is a destination) that passes the gate now but
   did not with ``v`` absent is searched, catching leaf matches whose edges
   arrived before the spine match did.

Between prunes the sets only grow, so a live edge starts to pass a gate at
one moment: its arrival, where ``process`` checks it at each of its leaves
in leaf order, or the sweep that allows the last binding it needs.  Each
edge is searched at a gated leaf at that moment and never again, so no
record of past searches is kept.  A sweep leaves the arriving edge to
``process``: a sweep at a leaf comes from a spine match fed from an earlier
leaf, so ``process`` still has that leaf to check.

Why the gate misses no joinable leaf match:

- Bindings are injective, so a spine vertex outside the cut is never in a
  leaf match that joins that spine match: opening the leaf there would only
  find matches that cannot join.
- A leaf match ``L`` joins a spine match ``S`` only when ``L[c] = S[c]`` for
  every cut qvertex ``c``, and storing ``S`` allows each of those bindings.
  Let ``e`` be ``L``'s newest edge, held as qedge ``r``.  Once ``e`` has
  arrived and every cut endpoint of ``r`` in ``L`` is allowed, ``e`` passes
  the gate, and that starts at one moment: either ``e`` arrives, and its
  search runs, or the last such binding ``(c, v)`` is added, and its sweep
  walks ``e`` at ``v`` (``c`` is an end of ``r``) and searches it.  ``L``
  is complete from ``e``'s arrival on, so that search finds it.
- A gated multi-edge leaf can find ``L`` from any of its edges that passes
  the gate, so it keeps a hit only from the hit's newest edge, the search
  above; a search on arrival finds only hits whose newest edge is the
  anchor.  ``L`` is thus stored once, by the step that stores ``S`` or by
  ``e``'s arrival, whichever is later, and the later of the two to be
  stored joins the other.

The sets grow but for one prune: once their entries have doubled, every
vertex with no live indexed edge is dropped.  A spine match that binds such
a vertex holds an evicted edge there (its edges carry query labels, so they
were indexed) and can never join again, and a spine match stored later that
binds it allows it anew, with a sweep.  No live edge is at a dropped vertex,
so the prune changes no live edge's gate.

Eager mode is the same loop with every leaf always live: nothing is gated,
nothing is allowed, and every leaf is searched at every arriving edge.

Each leaf's search plan is built once, with the engine, and an arriving edge
goes only to the leaves whose piece uses its label: one dict lookup per edge
gives those leaves in leaf order, each with its role gate for that label, a
tuple of (source set or None, destination set or None) per qedge, or None
when the leaf is always on.  The lookup runs before ingest: an edge whose
label no qedge carries finds no leaf, and the graph ingests it unindexed.
It is checked like any edge and keeps its endpoints live, but no adjacency
list holds it, so searches, sweeps and eviction never walk it.

The retroactive sweeps run off a flat worklist rather than recursing.
Each leaf searches each edge at most once, as the eager engine does, which
bounds the lazy engine's primitive searches by the eager engine's count.

Below the root, partial matches are the join tree's flat ``(t_min, e_0 ...
e_{E-1}, v_0 ... v_{V-1})`` tuples (``sjtree.Partial``); each emission
wraps its tuple in a :class:`~dgquery.query.Match`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UnsupportedPrimitiveError
from .graph import DynamicGraph, EdgeRecord, WireEdge
from .query import Match, QueryGraph, QueryPiece
from .sjtree import Partial, SJTree, SJTreeNode

__all__ = ["SearchPlan", "search_plan", "match_primitive", "Counters", "Engine"]

MAX_PRIMITIVE_EDGES = 3
PURGE_INTERVAL = 1 << 14  # edges between two purge_stale sweeps; 0 disables them
GATE_MIN_PRUNE = 1 << 10  # the fewest gate entries worth a prune


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
    edge_id, src, dst, src_label, dst_label, label, ts = anchor
    results: list[Partial] = []
    edges: list[int | None] = [None] * n_edges
    verts: list[str | None] = [None] * n_verts
    for role, src_type, dst_type, qs, qd, steps in roles.get(label, ()):
        if src_type != src_label or dst_type != dst_label:
            continue
        if (qs == qd) != (src == dst):
            continue  # a loop qedge takes exactly the data loops
        verts[qs] = src
        verts[qd] = dst
        edges[role] = edge_id
        _extend(graph, steps, 0, edges, verts, ts, results)
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
    and clearing each slot again on the way back.  Records are read by
    position, in ``EdgeRecord``'s field order."""
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
            if rec[5] != label or rec[2] != target or rec[0] in edges:
                continue
            edges[qe_id] = rec[0]
            ts = rec[6]
            _extend(graph, steps, depth + 1, edges, verts, ts if ts < t_min else t_min, out)
            edges[qe_id] = None
        return
    for rec in recs:
        if rec[5] != label:
            continue
        if forward:
            far, far_type = rec[2], rec[4]
        else:
            far, far_type = rec[1], rec[3]
        # injectivity on vertices; it also turns away a data loop, whose far
        # end is the bound vertex
        if far_type != want or far in verts or rec[0] in edges:
            continue
        verts[end] = far
        edges[qe_id] = rec[0]
        ts = rec[6]
        _extend(graph, steps, depth + 1, edges, verts, ts if ts < t_min else t_min, out)
        verts[end] = None
        edges[qe_id] = None


# per qedge of a gated leaf's piece with one edge label: the allowed set of
# its source and of its destination, None for an end outside the cut
RoleGate = tuple[tuple[set[str] | None, set[str] | None], ...]


def _opens(gate: RoleGate, rec: EdgeRecord) -> bool:
    """Whether a role gate lets ``rec`` through: some qedge it lists can hold
    the edge with its source and destination each in the qedge's set, where
    the qedge has one (None: that end is outside the cut)."""
    for src_ok, dst_ok in gate:
        if (src_ok is None or rec[1] in src_ok) and (dst_ok is None or rec[2] in dst_ok):
            return True
    return False


@dataclass
class Counters:
    """Running totals: ``match_calls`` counts anchored primitive searches
    actually run.  Label-incompatible anchors are filtered out before the
    search, an always-on leaf is searched once per edge with its label, on
    arrival, and a gated leaf at most once per edge, when the edge first
    passes its role gate, so the count with ``lazy=False`` bounds the count
    with ``lazy=True``."""

    edges: int = 0
    match_calls: int = 0
    emitted: int = 0
    purged: int = 0


class Engine:
    """Continuous-query engine over one decomposition tree.

    ``lazy=True`` puts every leaf but the always-on ones behind the role
    gates described in the module docstring; ``lazy=False`` makes every leaf
    always on.  Either way ``process`` returns the complete matches that
    became visible at that edge, exactly once each, and ``log`` lists every
    match emitted so far.

    The engine's ``graph`` indexes only the edges whose label some qedge
    carries: the others are checked and keep their endpoints live, but no
    adjacency list holds them (see :class:`~dgquery.graph.DynamicGraph`).
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
        self._n_edges = query.n_edges

        tree.reset()
        self._leaves = tree.leaves()
        self._plans = [search_plan(query, leaf.piece) for leaf in self._leaves]
        if lazy:
            self._always_on = {0}
            for leaf in self._leaves[1:]:
                if not tree.nodes[leaf.parent].cut_verts:
                    # a cross-join leaf shares no vertex with its prefix: no
                    # binding could ever gate it soundly, so it stays live
                    self._always_on.add(leaf.leaf_index)
        else:
            self._always_on = set(range(len(self._leaves)))
        # per gated leaf, {cut qvertex: the data vertices stored spine
        # matches bind it to} and its RoleGate per edge label; {} and None
        # for an always-on leaf.  The sets are pruned of dead vertices
        # whenever their entries pass _allowed_cap
        self._allowed: list[dict[int, set[str]]] = []
        self._gates: list[dict[str, RoleGate] | None] = []
        for leaf, plan in zip(self._leaves, self._plans):
            if leaf.leaf_index in self._always_on:
                self._allowed.append({})
                self._gates.append(None)
                continue
            allowed = {c: set() for c in tree.nodes[leaf.parent].cut_verts}
            self._allowed.append(allowed)
            self._gates.append({
                label: tuple((allowed.get(qs), allowed.get(qd)) for _, _, _, qs, qd, _ in roles)
                for label, roles in plan.roles.items()
            })
        self._allowed_count = 0
        self._allowed_cap = GATE_MIN_PRUNE
        # sweeps to run: (leaf index, the allowed set, the vertex to allow
        # there, the adjacency lists to walk at it)
        self._pending: deque[tuple[int, set[str], str, tuple]] = deque()
        # per edge label, the leaves an edge with it can anchor (those whose
        # piece uses the label), in leaf order, as (leaf, leaf index, its
        # role gate for the label or None when always on)
        by_label: dict[str, list[tuple[SJTreeNode, int, RoleGate | None]]] = {}
        for leaf, plan, gates in zip(self._leaves, self._plans, self._gates):
            for label in plan.roles:
                gate = None if gates is None else gates[label]
                by_label.setdefault(label, []).append((leaf, leaf.leaf_index, gate))
        self._by_label = {label: tuple(entries) for label, entries in by_label.items()}
        # node -> the gated leaf its matches open, as that leaf's index and,
        # per cut qvertex, its slot in a match, its allowed set and what a
        # sweep at a vertex newly allowed there walks: the out-edges when the
        # qvertex is the source of a qedge of the piece, the in-edges when it
        # is a destination.  None off the spine (whose nodes are leaf 0 and
        # the internal ones), at its top, and before an always-on leaf
        verts_at = 1 + query.n_edges
        self._unlocks: dict[int, tuple[int, tuple[tuple[int, set[str], tuple], ...]] | None] = {}
        for node in tree.nodes:
            spine = not node.is_leaf or node.leaf_index == 0
            nxt = (node.leaf_index if node.is_leaf else tree.nodes[node.right].leaf_index) + 1
            if spine and nxt < len(self._leaves) and nxt not in self._always_on:
                ends = [query.edges[qe] for qe in self._leaves[nxt].piece.edges]
                cuts = []
                for c, allowed in self._allowed[nxt].items():
                    walks: tuple = ()
                    if any(e.src == c for e in ends):
                        walks += (self.graph.out_edges,)
                    if any(e.dst == c for e in ends):
                        walks += (self.graph.in_edges,)
                    cuts.append((verts_at + c, allowed, walks))
                self._unlocks[node.node_id] = (nxt, tuple(cuts))
            else:
                self._unlocks[node.node_id] = None
        tree.on_store = self._on_store if lazy else None

    # ------------------------------------------------------------------ stream

    def process(self, raw: WireEdge) -> list[Match]:
        """Ingest one edge, any 6-tuple in wire order (a ``RawEdge`` or what
        ``parse_edge_line`` returns); return the newly appeared complete
        matches.

        An edge whose label no leaf's piece uses can hold no qedge, so no
        search ever reads it: the graph ingests it unindexed, which checks
        it as any edge and keeps its endpoints live, but stores no record.
        """
        graph = self.graph
        entries = self._by_label.get(raw[3])  # raw[3]: the edge label
        if entries is None:
            graph.add_edge(raw, False)  # unindexed; positional, so a wrapper of add_edge may take *args
            delta = []
        else:
            rec = graph.add_edge(raw)
            self._delta = delta = []
            for leaf, idx, gate in entries:
                # always on, or gated and passing now: the edge is the newest
                # edge of every hit, so each hit is kept
                if gate is None or _opens(gate, rec):
                    self.counters.match_calls += 1
                    hits = match_primitive(graph, self._plans[idx], rec)
                    if hits:
                        self._feed(leaf.node_id, hits)
                # run any retroactive sweeps before the next leaf reads its gate,
                # so leaves are searched strictly one after the other
                if self._pending:
                    self._drain(rec)
        self.counters.edges += 1
        if PURGE_INTERVAL and self.counters.edges % PURGE_INTERVAL == 0:
            self.counters.purged += self.tree.purge_stale(self._cutoff())
        return delta

    def _cutoff(self) -> int | None:
        """The graph's eviction cutoff: edges at or before it are gone."""
        return None if self.window is None else self.graph.t_last - self.window

    def _feed(self, node_id: int, hits: list[Partial]) -> None:
        """Insert each leaf match at its leaf and propagate it up the tree."""
        cutoff = self._cutoff()
        for m in hits:
            self.tree.insert_and_propagate(node_id, m, cutoff, self._emit)

    def _emit(self, m: Partial) -> None:
        # every new complete match holds the edge that just arrived, the
        # newest one, so its t_max is the graph's t_last
        match = Match(m, self._n_edges, self.graph.t_last)
        self.log.append(match)
        self.counters.emitted += 1
        self._delta.append(match)

    # -------------------------------------------------------------- lazy gates

    def _on_store(self, node: SJTreeNode, m: Partial) -> None:
        """Tree callback: a spine match queues a sweep for each cut binding
        not yet allowed at the next leaf; the sweep allows it."""
        unlock = self._unlocks[node.node_id]
        if unlock is None:
            return
        idx, cuts = unlock
        for slot, allowed, walks in cuts:
            v = m[slot]
            if v not in allowed:
                self._pending.append((idx, allowed, v, walks))

    def _drain(self, arriving: EdgeRecord) -> None:
        """Run queued sweeps until none are left, without recursing: a sweep
        allows its vertex ``v`` at its leaf and cut qvertex, and searches
        each live edge at ``v``, in a direction the cut qvertex takes in the
        piece, that passes the role gate now but did not with ``v`` absent.
        It skips ``arriving``, which ``process`` checks at this leaf later.

        A sweep search keeps a hit of a multi-edge leaf only when the anchor
        is the hit's newest edge: that edge's own search finds it too."""
        while self._pending:
            idx, allowed, v, walks = self._pending.popleft()
            if v in allowed:
                continue  # a sweep earlier in the queue allowed it
            allowed.add(v)
            self._allowed_count += 1
            gates = self._gates[idx]
            passing = []
            for adjacent in walks:
                for rec in adjacent(v):
                    gate = gates.get(rec[5])  # rec[5]: the edge label
                    if gate is not None and _opens(gate, rec):
                        passing.append(rec)
            if passing:
                allowed.remove(v)
                fresh = [rec for rec in passing if rec is not arriving and not _opens(gates[rec[5]], rec)]
                allowed.add(v)
                if len(walks) > 1:
                    fresh = dict.fromkeys(fresh)  # a self-loop at v sits in both walks
                leaf = self._leaves[idx]
                slots = [1 + qe for qe in leaf.piece.edges]
                for rec in fresh:
                    self.counters.match_calls += 1
                    hits = match_primitive(self.graph, self._plans[idx], rec)
                    if len(slots) > 1:
                        newest = rec[0]
                        hits = [m for m in hits if all(m[s] <= newest for s in slots)]
                    if hits:
                        self._feed(leaf.node_id, hits)
            if self._allowed_count > self._allowed_cap:
                self._prune_allowed()

    def _prune_allowed(self) -> None:
        """Drop every allowed vertex that has no live edge (the module
        docstring says why no join is lost), and let the entries double
        before the next prune, at amortized O(1) per entry.  The sets change
        in place: the role gates hold them."""
        graph = self.graph
        count = 0
        for cuts in self._allowed:
            for allowed in cuts.values():
                allowed.difference_update([v for v in allowed if not (graph.out_edges(v) or graph.in_edges(v))])
                count += len(allowed)
        self._allowed_count = count
        self._allowed_cap = max(2 * count, GATE_MIN_PRUNE)
