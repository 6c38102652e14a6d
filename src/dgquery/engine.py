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
   did not with ``v`` absent is searched, once (a loop at ``v`` sits in
   both lists), catching leaf matches whose edges arrived before the spine
   match did.

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
searches for that label and its role gate for it, a compiled test of the
edge's two ends against the leaf's sets, or None when the leaf is always on
(or a qedge with that label has no cut end).  A search is then two Python
frames, :func:`match_primitive` and the compiled search; a sweep passes the
searches of the swept edge's label the same way.  The lookup runs before ingest: an edge whose label no qedge
carries finds no leaf, and the graph ingests it unindexed.  It is checked
like any edge and keeps its endpoints live, but no adjacency list holds it,
so searches, sweeps and eviction never walk it.

One pass over the leaves builds all of this.  Per gated leaf, one builder of
the gate test's source compiles a role gate per edge label of the piece and a
sweep per cut qvertex ``c``: ``fresh(v, arriving)`` walks ``v``'s lists in
the rule-3 order and returns the edges to search.  The sweep folds in what
its walk knows: the walked end is ``v``, whose atom at ``c`` is true now and
was false before, and the far end ``x``'s atom at ``c`` read ``x != v and x
in A<c>`` before, so a single-edge leaf's sweep costs one label compare and
at most one set test per edge.  Per cut qvertex the pass then makes one gate
for the tree: the qvertex, its allowed set, and the sweep a new binding there
queues, which holds what the sweep needs (the leaf's node id, plan and edge
slots, the set and the compiled sweep).  The gates go under the leaf's
sibling, the spine node whose stored matches open it, and the engine then
drives the tree
(:meth:`~dgquery.sjtree.SJTree.drive`): the tree's compiled insert at that
spine node tests each cut binding of a match it stores and queues the sweep
only for one not yet allowed, which is rule 1 above.

Below the root, partial matches are the join tree's flat ``(t_min, e_0 ...
e_{E-1}, v_0 ... v_{V-1})`` tuples (``sjtree.Partial``).  The driven tree
builds each emission's :class:`~dgquery.query.Match` (its flat tuple and the
query's edge count) and hands it to one sink, the ``append`` of the
arriving edge's delta, which ``process`` passes down through ``_feed`` and
``_drain``, so no engine code runs per emission; ``process`` then counts the
delta and adds it to ``log`` once per edge.  Every emission holds the
arriving edge, the newest in it, so none carries a newest timestamp: the
caller holds the edge it fed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .errors import UnsupportedPrimitiveError
from .graph import NO_VERTEX, DynamicGraph, EdgeRecord, WireEdge
from .query import Match, QueryGraph, QueryPiece
from .sjtree import MAX_PRIMITIVE_EDGES, Gate, Partial, SJTree, _define

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
    namespace = {"NO_VERTEX": NO_VERTEX, **{f"K{i}": text for i, text in enumerate(consts)}}
    return _define(lines, f"<search of qedge {role}>", namespace)


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
    data vertex or None per qvertex.  No newest timestamp is kept: every
    match the engine emits holds the edge it is processing, the newest.

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


# a test in a gate's source: a Python expression, or True or False once
# folded to a constant
Test = bool | str


def _all(*tests: Test) -> Test:
    if False in tests:
        return False
    rest = [t for t in tests if t is not True]
    return " and ".join(f"({t})" if " or " in t else t for t in rest) if rest else True


def _any(*tests: Test) -> Test:
    if True in tests:
        return True
    rest = list(dict.fromkeys(t for t in tests if t is not False))  # parallel qedges give one term twice
    return " or ".join(rest) if rest else False


def _gate_test(
    ends: list, cut: set[int], c: int | None = None, walked: int = 0, before: bool = False, far_not_v: bool = False
) -> Test:
    """Whether an edge ``rec`` passes a gated leaf's role gate, as source:
    some qedge in ``ends`` (those with the edge's label) holds it with its
    source ``rec[1]`` and destination ``rec[2]`` each in the set ``A<qv>`` of
    its qvertex ``qv``, for each end in ``cut``.

    For a sweep at ``v`` newly allowed at cut qvertex ``c``, ``rec`` is at
    ``v`` as its end ``walked`` (1 or 2), and the test folds that in: ``v``'s
    atom at ``c`` is true now and was false ``before`` ``v`` was added, then
    the far end ``x``'s atom at ``c`` read ``x != v and x in A<c>``, or just
    ``x in A<c>`` when the walk skips ``x == v`` (``far_not_v``)."""

    def atom(qv: int, end: int) -> Test:
        if qv not in cut:
            return True
        if end == walked:
            return not before if qv == c else f"v in A{qv}"
        if before and qv == c and not far_not_v:
            return f"rec[{end}] != v and rec[{end}] in A{c}"
        return f"rec[{end}] in A{qv}"

    return _any(*(_all(atom(e.src, 1), atom(e.dst, 2)) for e in ends))


# a compiled role gate: whether an edge with its label passes a gated leaf's
# gate; a label one of whose qedges has no cut end has none (always passes)
LabelGate = Callable[[EdgeRecord], bool]
# a compiled sweep at a cut qvertex: fresh(v, arriving), the edges at v
# that pass the gate with v allowed there and did not without it
Fresh = Callable[[str, EdgeRecord | None], list[EdgeRecord]]


def _compile_gates(
    query: QueryGraph, leaf_index: int, edge_ids: list[int], allowed: dict[int, set[str]], vertex_table: dict
) -> tuple[dict[str, LabelGate | None], dict[int, Fresh]]:
    """A gated leaf's role gate per edge label of its piece and its sweep
    per cut qvertex, each a plain function over ``allowed``'s sets (as
    ``A<qv>``) and ``vertex_table``.  A label reaches the code only as a
    constant ``K<i>`` in its namespace.

    A sweep at ``c`` walks ``v``'s out-list when ``c`` is the source of a
    qedge of the piece, then its in-list when ``c`` is a destination, and
    returns, in walk order, each edge but ``arriving`` that passes the gate
    now and did not with ``v`` absent; when both walks run, the in-walk
    skips a loop at ``v``, which the out-walk returned."""
    ends = [query.edges[qe] for qe in edge_ids]
    by_label: dict[str, list] = {}
    for e in ends:
        by_label.setdefault(e.label, []).append(e)
    cut = set(allowed)
    namespace = {"NO_VERTEX": NO_VERTEX, "vertex_table": vertex_table, **{f"A{c}": allowed[c] for c in cut}}
    namespace.update((f"K{i}", label) for i, label in enumerate(by_label))
    gates: dict[str, LabelGate | None] = {}
    for i, (label, held) in enumerate(by_label.items()):
        test = _gate_test(held, cut)
        title = f"<gate {i} of leaf {leaf_index}>"
        gates[label] = None if test is True else _define(["def gate(rec):", f"    return {test}"], title, namespace)
    sweeps: dict[int, Fresh] = {}
    for c in sorted(cut):
        walks = [
            (end, slot) for end, slot in ((1, "outgoing"), (2, "incoming"))
            if any((e.src, e.dst)[end - 1] == c for e in ends)
        ]
        lines = ["def fresh(v, arriving):", "    found = []", "    keep = found.append"]
        for end, slot in walks:
            skip_loops = end == 2 and len(walks) == 2  # a loop at v, which the out-walk returned
            branches: list[str] = []
            for i, held in enumerate(by_label.values()):
                now = _gate_test(held, cut, c, end)
                before = _gate_test(held, cut, c, end, before=True, far_not_v=skip_loops)
                test = _all(now, not before if isinstance(before, bool) else f"not ({before})")
                if test is False or now == before:  # never true now and false before
                    continue
                if skip_loops:
                    test = _all(test, "rec[1] != v")
                branches += [
                    f"        {'elif' if branches else 'if'} label == K{i}:",
                    f"            if {_all(test, 'rec is not arriving')}:",
                    "                keep(rec)",
                ]
            if branches:
                lines += [f"    for rec in vertex_table.get(v, NO_VERTEX).{slot}:", "        label = rec[5]", *branches]
        lines.append("    return found")
        sweeps[c] = _define(lines, f"<sweep of leaf {leaf_index} at qvertex {c}>", namespace)
    return gates, sweeps


# what a sweep at a gated leaf and cut qvertex needs: the leaf's node id, its
# search plan and its edge slots in a match, the qvertex's allowed set and
# its compiled sweep
Sweep = tuple[int, SearchPlan, tuple[int, ...], set[str], Fresh]


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
    once each, and ``log`` lists every match emitted so far: the edges'
    deltas, concatenated, holding the same objects.  The engine drives
    ``tree``, which then holds its match state: a tree drives one engine,
    and a second ``Engine`` over it raises ``ValueError``.  Each leaf's
    allowed sets live in its compiled gates and sweeps, in the tree's gates
    and in ``graph.vertex_sets``, in leaf order, then cut-qvertex order.

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
        # the query's texts are the graph's shared ones, and the constants
        # of every search, gate and sweep compiled below
        self.graph = DynamicGraph(window, query.texts)
        self.log: list[Match] = []
        self.counters = Counters()

        # per edge label, the leaves an edge with it can anchor (those whose
        # piece uses the label), in leaf order, as (the leaf's node id, its
        # role searches for the label, its role gate for the label or None
        # when that always passes)
        by_label: dict[str, list[tuple[int, tuple[Search, ...], LabelGate | None]]] = {}
        # spine node -> the tree's Gate per cut qvertex of the gated leaf its
        # stored matches open, each queueing that leaf's Sweep at the qvertex
        spine_gates: dict[int, tuple[Gate, ...]] = {}
        for leaf in tree.leaves():
            plan = search_plan(query, leaf.piece)
            # leaf 0 is always on, and so is a cross-join leaf, whose empty
            # cut shares no vertex with its prefix: no binding could ever
            # gate it soundly
            cuts = tree.nodes[leaf.parent].cut_verts if lazy and leaf.leaf_index else ()
            # per cut qvertex, the data vertices stored spine matches bind it
            # to; the graph's prune drops dead ones
            allowed = {c: set() for c in cuts}
            self.graph.vertex_sets.extend(allowed.values())
            edge_ids = sorted(leaf.piece.edges)
            gates, sweeps = _compile_gates(query, leaf.leaf_index, edge_ids, allowed, self.graph.vertex_table)
            for label, searches in plan.items():
                by_label.setdefault(label, []).append((leaf.node_id, searches, gates[label]))
            if cuts:
                slots = tuple(1 + qe for qe in edge_ids)
                # the leaf's sibling is the spine node covering the leaves before it
                spine_gates[leaf.sibling] = tuple(
                    (c, allowed[c], (leaf.node_id, plan, slots, allowed[c], sweeps[c])) for c in cuts
                )
        self._by_label = {label: tuple(entries) for label, entries in by_label.items()}
        # sweeps to run, as the tree queues them: (a Sweep, the vertex to allow)
        self._pending: deque[tuple[Sweep, str]] = deque()
        # raises when the tree already drives an engine: it holds that
        # engine's match state and gates
        tree.drive(spine_gates, self._pending.append)

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
        delta: list[Match] = []
        entries = self._by_label.get(raw[3])  # raw[3]: the edge label
        if entries is None:
            graph.add_edge(raw, False)  # unindexed; positional, so a wrapper of add_edge may take *args
        else:
            rec = graph.add_edge(raw)
            for node_id, searches, gate in entries:
                # always on, or gated and passing now: the edge is the newest
                # edge of every hit, so each hit is kept
                if gate is None or gate(rec):
                    counters.match_calls += 1
                    hits = match_primitive(graph, searches, rec)
                    if hits:
                        self._feed(node_id, hits, delta.append)
                # run any retroactive sweeps before the next leaf reads its gate,
                # so leaves are searched strictly one after the other
                if self._pending:
                    self._drain(rec, delta.append)
            if delta:
                self.log += delta
        counters.edges += 1
        counters.emitted += len(delta)
        if counters.edges % PURGE_INTERVAL == 0:
            counters.purged += self.tree.purge_stale(graph.cutoff)
        return delta

    def _feed(self, node_id: int, hits: list[Partial], emit: Callable[[Match], None]) -> None:
        """Insert each leaf match at its leaf; the tree propagates it up,
        and each emission goes to ``emit``, the ``append`` of this edge's
        delta."""
        insert, cutoff = self.tree.insert_and_propagate, self.graph.cutoff
        for m in hits:
            insert(node_id, m, cutoff, emit)

    # -------------------------------------------------------------- lazy gates

    def _drain(self, arriving: EdgeRecord, emit: Callable[[Match], None]) -> None:
        """Run queued sweeps until none are left, without recursing: a sweep
        allows its vertex ``v`` at its leaf and cut qvertex, and searches
        each edge its compiled ``fresh(v, arriving)`` returns: those at
        ``v``, in a direction the cut qvertex takes in the piece, that pass
        the role gate now but did not with ``v`` absent, but ``arriving``,
        which ``process`` checks at this leaf later.  Each search goes
        through the module's ``match_primitive``, so a wrapper set there
        sees it, and its hits go to ``_feed`` with ``emit``, the arriving
        edge's sink.

        A sweep search keeps a hit of a multi-edge leaf only when the anchor
        is the hit's newest edge: that edge's own search finds it too."""
        graph, counters, pending = self.graph, self.counters, self._pending
        while pending:
            (node_id, plan, slots, allowed, fresh), v = pending.popleft()
            if v in allowed:
                continue  # a sweep earlier in the queue allowed it
            allowed.add(v)
            for rec in fresh(v, arriving):
                counters.match_calls += 1
                hits = match_primitive(graph, plan[rec[5]], rec)  # rec[5]: the edge label
                if len(slots) > 1:
                    newest = rec[0]
                    hits = [m for m in hits if all(m[s] <= newest for s in slots)]
                if hits:
                    self._feed(node_id, hits, emit)
