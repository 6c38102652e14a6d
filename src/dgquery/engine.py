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

The sets lose only vertices with no live edge (see below), so a live edge
starts to pass a gate at one moment: its arrival, where ``process`` checks
it at each of its leaves in leaf order, or the sweep that allows the last
binding it needs.  Each edge is searched at a gated leaf at that moment and
never again, so no record of past searches is kept.  A sweep leaves the
arriving edge to ``process``: a sweep at a leaf comes from a spine match fed
from an earlier leaf, so ``process`` still has that leaf to check.

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

The sets shrink only by the graph's prune (``graph.vertex_sets`` lists them):
each vertex the vertex table's doubling prune deletes, one with no live edge
of any kind, leaves them too, so no live edge's gate changes.  A binding is
allowed only for a spine match stored in the same ``process`` call, whose
edges are live, so each set stays inside the table and its bound.  A spine
match that binds a dropped vertex holds an evicted edge and never joins
again; one stored later that binds it allows it anew, with a sweep.

Eager mode is the same loop with every leaf always live: nothing is gated,
nothing is allowed, and every leaf is searched at every arriving edge.

Each leaf's search plan is built once, with the engine: every qedge of the
piece an anchor can hold (its role) compiles to one plain function with a
nested ``for`` per further qedge and every test written out, so a search
runs no interpreter of steps, and the plan maps each edge label to the
searches of the roles with that label.  Labels and vertex types come from
query files, so they are data to the generated code: each reaches it as a
numbered constant in the namespace it runs in, and no label or type text is
ever part of its source.  Each step reads its adjacency list straight from
the graph's ``vertex_table``, one ``dict.get`` and one slot read, so a
search calls no graph method, and a vertex the table lacks has no edges.

An arriving edge goes only to the leaves whose piece uses its label: one
dict lookup per edge gives those leaves in leaf order, each with its role
searches for that label and its role gate for it, a tuple of (source set or
None, destination set or None) per qedge, or None when the leaf is always
on.  A search is then two Python frames, :func:`match_primitive` and the
compiled search; a sweep passes the searches of the swept edge's label the
same way.  The lookup runs before ingest: an edge whose label no qedge
carries finds no leaf, and the graph ingests it unindexed.  It is checked
like any edge and keeps its endpoints live, but no adjacency list holds it,
so searches, sweeps and eviction never walk it.

One pass over the leaves builds all of this.  Per cut qvertex of a gated
leaf it makes one gate for the tree: the qvertex, its allowed set, and the
sweep a new binding there queues, which holds what the sweep needs (the
leaf's node id, plan, role gates and edge slots, the set, and the adjacency
lists to walk).  The gates go under the leaf's sibling, the spine node whose
stored matches open it, and the engine then drives the tree
(:meth:`~dgquery.sjtree.SJTree.drive`): the tree's compiled insert at that
spine node tests each cut binding of a match it stores and queues the sweep
only for one not yet allowed, which is rule 1 above.

Below the root, partial matches are the join tree's flat ``(t_min, e_0 ...
e_{E-1}, v_0 ... v_{V-1})`` tuples (``sjtree.Partial``).  The driven tree
builds each emission's :class:`~dgquery.query.Match` itself and appends it
to ``log`` and to the arriving edge's delta, so no engine code runs per
emission; ``process`` counts the delta once per edge.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .errors import UnsupportedPrimitiveError
from .graph import NO_VERTEX, DynamicGraph, EdgeRecord, WireEdge
from .query import Match, QueryGraph, QueryPiece
from .sjtree import MAX_PRIMITIVE_EDGES, Gate, Partial, SJTree

__all__ = ["SearchPlan", "search_plan", "match_primitive", "Counters", "Engine"]

PURGE_INTERVAL = 1 << 14  # edges between two purge_stale sweeps


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


# a compiled role search: (graph, anchor, out) appends each match to out
Search = Callable[[DynamicGraph, EdgeRecord, list], None]


def _compile_search(query: QueryGraph, role: int, steps: tuple[tuple, ...]) -> Search:
    """The search of an anchor held as qedge ``role``, as straight-line
    Python: the anchor's type and loop checks, one nested ``for`` per step
    and one flat result tuple per hit.  A label or vertex type appears in
    the source only as the name of a constant ``K<i>`` in its namespace."""
    consts: list[str] = []

    def const(text: str) -> str:
        consts.append(text)
        return f"K{len(consts) - 1}"

    qe, types = query.edges[role], query.vertex_labels
    loop = qe.src == qe.dst
    far = "loop_end" if loop else f"v{qe.dst}"  # a loop qedge's one qvertex takes the source
    lines = [
        "def search(graph, anchor, out):",
        f"    e{role}, v{qe.src}, {far}, src_type, dst_type, _, t0 = anchor",
        f"    if src_type != {const(types[qe.src])} or dst_type != {const(types[qe.dst])}"
        f" or v{qe.src} {'!=' if loop else '=='} {far}:",
        "        return",
    ]
    if steps:
        lines.append("    vertices = graph.vertex_table")
    edges, verts = [role], {qe.src, qe.dst}
    pad = "    "
    for d, (qe_id, label, forward, start, end, end_bound, want) in enumerate(steps, 1):
        # a vertex the table lacks reads as NO_VERTEX, whose lists are empty
        lines.append(f"{pad}for r{d} in vertices.get(v{start}, NO_VERTEX).{'outgoing' if forward else 'incoming'}:")
        pad += "    "
        if end_bound:
            # a step walks backward only from an unbound source, so this one
            # is forward and closes on its bound destination
            tests = [f"r{d}[5] != {const(label)}", f"r{d}[2] != v{end}"] + [f"r{d}[0] == e{e}" for e in edges]
            lines += [f"{pad}if {' or '.join(tests)}:", f"{pad}    continue"]
        else:
            # injectivity on vertices; it also turns away a data loop, whose
            # far end is the bound vertex.  An edge to an unbound vertex is
            # no bound edge, so it needs no edge test
            lines += [
                f"{pad}if r{d}[5] != {const(label)} or r{d}[{4 if forward else 3}] != {const(want)}:",
                f"{pad}    continue",
                f"{pad}v{end} = r{d}[{2 if forward else 1}]",
                f"{pad}if {' or '.join(f'v{end} == v{v}' for v in sorted(verts))}:",
                f"{pad}    continue",
            ]
            verts.add(end)
        edges.append(qe_id)
        lines += [
            f"{pad}e{qe_id} = r{d}[0]",
            f"{pad}t{d} = r{d}[6]",
            f"{pad}if t{d} > t{d - 1}:",
            f"{pad}    t{d} = t{d - 1}",
        ]
    slots = [f"e{i}" if i in edges else "None" for i in range(query.n_edges)]
    slots += [f"v{i}" if i in verts else "None" for i in range(query.n_vertices)]
    lines.append(f"{pad}out.append((t{len(steps)}, {', '.join(slots)}))")
    namespace = {"__builtins__": {}, "NO_VERTEX": NO_VERTEX, **{f"K{i}": text for i, text in enumerate(consts)}}
    exec(compile("\n".join(lines), f"<search of qedge {role}>", "exec"), namespace)
    return namespace["search"]


# per edge label, one compiled search per qedge of the piece an anchor with
# that label can hold, in qedge order
SearchPlan = dict[str, tuple[Search, ...]]


def search_plan(query: QueryGraph, piece: QueryPiece) -> SearchPlan:
    """The plan :func:`match_primitive` follows for ``piece``; raises
    ``UnsupportedPrimitiveError`` unless the piece is 1–3 connected qedges.
    The engine builds one per leaf, once, and each of its role searches is
    compiled then."""
    edge_ids = sorted(piece.edges)
    if not edge_ids:
        raise UnsupportedPrimitiveError("empty primitive")
    if len(edge_ids) > MAX_PRIMITIVE_EDGES:
        raise UnsupportedPrimitiveError(
            f"primitive has {len(edge_ids)} edges; max is {MAX_PRIMITIVE_EDGES}"
        )
    plan: SearchPlan = {}
    for role in edge_ids:
        label = query.edges[role].label
        search = _compile_search(query, role, _extension_steps(query, edge_ids, role))
        plan[label] = plan.get(label, ()) + (search,)
    return plan


def match_primitive(graph: DynamicGraph, searches: tuple[Search, ...], anchor: EdgeRecord) -> list[Partial]:
    """All matches of a 1–3 edge sub-pattern that include ``anchor``, as the
    join tree's flat ``(t_min, e_0 ... e_{E-1}, v_0 ... v_{V-1})`` tuples:
    the oldest bound timestamp, then a data edge id or None per qedge and a
    data vertex or None per qvertex.  No ``t_max`` is kept: the engine
    stamps each complete match with the newest edge's timestamp when it
    emits it.

    ``searches`` are the role searches the pattern's :func:`search_plan`
    holds for the anchor's label (``plan.get(anchor[5], ())``); the engine
    keeps them with each leaf it dispatches a label to, so it looks them up
    once per edge with the leaves.  Each reads the graph's adjacency lists
    straight from ``graph.vertex_table``, and an anchor endpoint the table
    lacks has no edges.  The anchor is tried in every qedge role its label
    allows, in qedge order, so automorphic placements surface as distinct
    matches.  Bindings are injective on vertices and edges.
    """
    results: list[Partial] = []
    for search in searches:
        search(graph, anchor, results)
    return results


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


# what a sweep at a gated leaf and cut qvertex needs: the leaf's node id, its
# search plan, its RoleGate per edge label and its edge slots in a match, then
# the qvertex's allowed set and the adjacency lists a sweep at a vertex newly
# allowed there walks: the out-edges when the qvertex is the source of a qedge
# of the piece, the in-edges when it is a destination
Sweep = tuple[int, SearchPlan, dict[str, RoleGate], tuple[int, ...], set[str], tuple]


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

    ``lazy=True`` puts every leaf after leaf 0 whose parent's cut is not
    empty behind the role gates described in the module docstring;
    ``lazy=False`` makes every leaf always on.  Either way ``process``
    returns the complete matches that became visible at that edge, exactly
    once each, and ``log`` lists every match emitted so far.  The engine
    drives ``tree``, which then holds its match state: a tree drives one
    engine, and a second ``Engine`` over it raises ``ValueError``.

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
        self.graph = DynamicGraph(window)
        self.log: list[Match] = []
        self.counters = Counters()
        self._delta: list[Match] = []

        # per leaf, {cut qvertex: the data vertices stored spine matches bind
        # it to}, {} for an always-on leaf; the graph's prune drops dead ones
        self._allowed: list[dict[int, set[str]]] = []
        # per edge label, the leaves an edge with it can anchor (those whose
        # piece uses the label), in leaf order, as (the leaf's node id, its
        # role searches for the label, its role gate for the label or None
        # when always on)
        by_label: dict[str, list[tuple[int, tuple[Search, ...], RoleGate | None]]] = {}
        # spine node -> the tree's Gate per cut qvertex of the gated leaf its
        # stored matches open, each queueing that leaf's Sweep at the qvertex
        spine_gates: dict[int, tuple[Gate, ...]] = {}
        for leaf in tree.leaves():
            plan = search_plan(query, leaf.piece)
            # leaf 0 is always on, and so is a cross-join leaf, whose empty
            # cut shares no vertex with its prefix: no binding could ever
            # gate it soundly
            cuts = tree.nodes[leaf.parent].cut_verts if lazy and leaf.leaf_index else ()
            allowed = {c: set() for c in cuts}
            self._allowed.append(allowed)
            self.graph.vertex_sets.extend(allowed.values())
            edge_ids = sorted(leaf.piece.edges)
            ends = [query.edges[qe] for qe in edge_ids]
            gates: dict[str, RoleGate] = {}
            for e in ends:
                gates[e.label] = gates.get(e.label, ()) + ((allowed.get(e.src), allowed.get(e.dst)),)
            for label, searches in plan.items():
                by_label.setdefault(label, []).append((leaf.node_id, searches, gates[label] if cuts else None))
            if cuts:
                cut_gates = []
                for c in cuts:
                    walks: tuple = ()
                    if any(e.src == c for e in ends):
                        walks += (self.graph.out_edges,)
                    if any(e.dst == c for e in ends):
                        walks += (self.graph.in_edges,)
                    sweep = (leaf.node_id, plan, gates, tuple(1 + qe for qe in edge_ids), allowed[c], walks)
                    cut_gates.append((c, allowed[c], sweep))
                # the leaf's sibling is the spine node covering the leaves before it
                spine_gates[leaf.sibling] = tuple(cut_gates)
        self._by_label = {label: tuple(entries) for label, entries in by_label.items()}
        # sweeps to run, as the tree queues them: (a Sweep, the vertex to allow)
        self._pending: deque[tuple[Sweep, str]] = deque()
        # raises when the tree already drives an engine: it holds that
        # engine's match state and sinks
        tree.drive(self.graph, self.log, spine_gates, self._pending.append)

    # ------------------------------------------------------------------ stream

    def process(self, raw: WireEdge) -> list[Match]:
        """Ingest one edge, any 6-tuple in wire order (a ``RawEdge`` or what
        ``parse_edge_line`` returns); return the newly appeared complete
        matches.

        An edge whose label no leaf's piece uses can hold no qedge, so no
        search ever reads it: the graph ingests it unindexed, which checks
        it as any edge and keeps its endpoints live, but stores no record.
        """
        graph, counters = self.graph, self.counters
        entries = self._by_label.get(raw[3])  # raw[3]: the edge label
        if entries is None:
            graph.add_edge(raw, False)  # unindexed; positional, so a wrapper of add_edge may take *args
            delta = []
        else:
            rec = graph.add_edge(raw)
            self._delta = delta = []
            for node_id, searches, gate in entries:
                # always on, or gated and passing now: the edge is the newest
                # edge of every hit, so each hit is kept
                if gate is None or _opens(gate, rec):
                    counters.match_calls += 1
                    hits = match_primitive(graph, searches, rec)
                    if hits:
                        self._feed(node_id, hits)
                # run any retroactive sweeps before the next leaf reads its gate,
                # so leaves are searched strictly one after the other
                if self._pending:
                    self._drain(rec)
        counters.edges += 1
        counters.emitted += len(delta)
        if counters.edges % PURGE_INTERVAL == 0:
            counters.purged += self.tree.purge_stale(graph.cutoff)
        return delta

    def _feed(self, node_id: int, hits: list[Partial]) -> None:
        """Insert each leaf match at its leaf; the tree propagates it up,
        and each emission goes to the log and to this edge's delta."""
        insert, cutoff, emit = self.tree.insert_and_propagate, self.graph.cutoff, self._delta.append
        for m in hits:
            insert(node_id, m, cutoff, emit)

    # -------------------------------------------------------------- lazy gates

    def _drain(self, arriving: EdgeRecord) -> None:
        """Run queued sweeps until none are left, without recursing: a sweep
        allows its vertex ``v`` at its leaf and cut qvertex, and searches
        each live edge at ``v``, in a direction the cut qvertex takes in the
        piece, that passes the role gate now but did not with ``v`` absent.
        It skips ``arriving``, which ``process`` checks at this leaf later.

        A sweep search keeps a hit of a multi-edge leaf only when the anchor
        is the hit's newest edge: that edge's own search finds it too."""
        while self._pending:
            (node_id, plan, gates, slots, allowed, walks), v = self._pending.popleft()
            if v in allowed:
                continue  # a sweep earlier in the queue allowed it
            allowed.add(v)
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
                for rec in fresh:
                    self.counters.match_calls += 1
                    hits = match_primitive(self.graph, plan[rec[5]], rec)
                    if len(slots) > 1:
                        newest = rec[0]
                        hits = [m for m in hits if all(m[s] <= newest for s in slots)]
                    if hits:
                        self._feed(node_id, hits)
