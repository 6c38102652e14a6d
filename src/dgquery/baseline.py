"""Reference matchers the incremental engine is checked against.

Two separate routes, deliberately sharing no search code with the engine:

* ``RescanEngine`` — per arriving edge, a VF2-style backtracking search over
  the whole live window, seeded so every returned match contains the new
  edge.  Vertex mapping grows candidate-pair by candidate-pair with label and
  adjacency feasibility checks; a second phase assigns concrete data edges to
  qedges so parallel edges in the multigraph are enumerated, not collapsed.
* ``enumerate_matches`` — a brute-force oracle for tests: per-qedge candidate
  lists built from full edge-list scans, combined by backtracking with
  injectivity checks.  It touches no adjacency index and no engine helper, so
  it cannot inherit an engine bug.

Both read a stored edge, the store's plain ``EdgeRecord`` tuple, by
unpacking or by position, in its field order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Counters
from .errors import ContractError
from .graph import DynamicGraph, EdgeRecord, WireEdge
from .query import Match, QueryGraph

__all__ = [
    "RescanEngine",
    "vf2_matches_containing",
    "enumerate_matches",
    "DeltaOracle",
]

ORACLE_MAX_QUERY_EDGES = 6
ORACLE_MAX_GRAPH_EDGES = 500


# --------------------------------------------------------------------- VF2

def _query_adjacency(query: QueryGraph) -> dict[int, list[tuple[int, int]]]:
    """qvertex -> [(qedge id, other endpoint)] over the undirected view."""
    adj: dict[int, list[tuple[int, int]]] = {qv: [] for qv in range(query.n_vertices)}
    for qe, e in enumerate(query.edges):
        adj[e.src].append((qe, e.dst))
        if e.src != e.dst:
            adj[e.dst].append((qe, e.src))
    return adj


def _vertex_order(query: QueryGraph, seeded: tuple[int, ...]) -> list[int]:
    """BFS order of the unmapped qvertices, growing from the seeded ones."""
    adj = _query_adjacency(query)
    seen = set(seeded)
    frontier = list(seeded)
    order: list[int] = []
    while frontier:
        nxt: list[int] = []
        for qv in frontier:
            for _, other in adj[qv]:
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    nxt.append(other)
        frontier = nxt
    return order


def _has_edge(graph: DynamicGraph, src: str, dst: str, label: str) -> bool:
    for rec in graph.out_edges(src):
        if rec[2] == dst and rec[5] == label:
            return True
    return False


def vf2_matches_containing(
    graph: DynamicGraph, query: QueryGraph, anchor: EdgeRecord
) -> list[Match]:
    """All full-query matches in the live window that contain ``anchor``."""
    adj = _query_adjacency(query)
    _, src, dst, src_type, dst_type, label, _ = anchor
    results: list[Match] = []
    for role, qe in enumerate(query.edges):
        if (
            qe.label != label
            or query.vertex_labels[qe.src] != src_type
            or query.vertex_labels[qe.dst] != dst_type
        ):
            continue
        if qe.src == qe.dst:
            if src != dst:
                continue
            core = {qe.src: src}
        else:
            if src == dst:
                continue
            core = {qe.src: src, qe.dst: dst}
        order = _vertex_order(query, tuple(core))
        used = set(core.values())
        _map_vertices(graph, query, adj, order, 0, core, used, role, anchor, results)
    return results


def _map_vertices(
    graph: DynamicGraph,
    query: QueryGraph,
    adj: dict[int, list[tuple[int, int]]],
    order: list[int],
    depth: int,
    core: dict[int, str],
    used: set[str],
    seed_role: int,
    anchor: EdgeRecord,
    results: list[Match],
) -> None:
    if depth == len(order):
        _assign_edges(graph, query, core, seed_role, anchor, results)
        return
    qv = order[depth]
    want_label = query.vertex_labels[qv]
    # drive candidates from one already-mapped query neighbor
    drive: tuple[int, int] | None = None
    for qe_id, other in adj[qv]:
        if other in core and other != qv:
            drive = (qe_id, other)
            break
    if drive is None:  # isolated qv cannot happen in a connected query
        raise ContractError("query vertex unreachable from the seed edge")
    qe_id, mapped_qv = drive
    qe = query.edges[qe_id]
    pivot = core[mapped_qv]
    candidates: list[str] = []
    seen: set[str] = set()
    if qe.src == qv:  # qv --e--> mapped
        for _, src, _, _, _, label, _ in graph.in_edges(pivot):
            if label == qe.label and src not in seen:
                seen.add(src)
                candidates.append(src)
    else:  # mapped --e--> qv
        for _, _, dst, _, _, label, _ in graph.out_edges(pivot):
            if label == qe.label and dst not in seen:
                seen.add(dst)
                candidates.append(dst)
    for dv in candidates:
        if dv in used or graph.vertex_label(dv) != want_label:
            continue
        ok = True
        for other_qe, other_qv in adj[qv]:
            partner = dv if other_qv == qv else core.get(other_qv)
            if partner is None:
                continue
            e = query.edges[other_qe]
            s = dv if e.src == qv else core[e.src]
            d = dv if e.dst == qv else core[e.dst]
            if not _has_edge(graph, s, d, e.label):
                ok = False
                break
        if not ok:
            continue
        core[qv] = dv
        used.add(dv)
        _map_vertices(graph, query, adj, order, depth + 1, core, used, seed_role, anchor, results)
        del core[qv]
        used.discard(dv)


def _assign_edges(
    graph: DynamicGraph,
    query: QueryGraph,
    core: dict[int, str],
    seed_role: int,
    anchor: EdgeRecord,
    results: list[Match],
) -> None:
    """Enumerate concrete edge assignments for one completed vertex mapping."""
    n = query.n_edges
    chosen: dict[int, EdgeRecord] = {seed_role: anchor}
    used_ids = {anchor[0]}

    def rec_assign(qe_id: int) -> None:
        if qe_id == n:
            results.append(
                Match.of(query, [(q, r[0], r[6]) for q, r in chosen.items()], core)
            )
            return
        if qe_id == seed_role:
            rec_assign(qe_id + 1)
            return
        e = query.edges[qe_id]
        s, d = core[e.src], core[e.dst]
        for rec in graph.out_edges(s):
            edge_id = rec[0]
            if rec[2] != d or rec[5] != e.label or edge_id in used_ids:
                continue
            chosen[qe_id] = rec
            used_ids.add(edge_id)
            rec_assign(qe_id + 1)
            used_ids.discard(edge_id)
            del chosen[qe_id]

    # the seed must actually fit this mapping (it does by construction of the
    # search, but a parallel-edge mapping may route the anchor elsewhere)
    e = query.edges[seed_role]
    if core[e.src] != anchor[1] or core[e.dst] != anchor[2]:
        return
    rec_assign(0)


class RescanEngine:
    """Baseline: re-search the whole window around every arriving edge."""

    def __init__(self, query: QueryGraph, window: int | None = None):
        self.query = query
        self.graph = DynamicGraph(window)
        self.counters = Counters()

    def process(self, raw: WireEdge) -> list[Match]:
        """Ingest one edge; return the matches that contain it.  Each is
        new, as the edge is, and its span is inside the window: it holds
        the edge, the newest, and its other edges are live."""
        rec = self.graph.add_edge(raw)
        self.counters.edges += 1
        fresh = vf2_matches_containing(self.graph, self.query, rec)
        self.counters.emitted += len(fresh)
        return fresh


# ------------------------------------------------------------------- oracle

def _oracle_order(query: QueryGraph, start: int) -> list[int]:
    """Connectivity-first qedge order beginning at ``start``."""
    order = [start]
    verts = set(query.edge_endpoints(start))
    rest = [qe for qe in range(query.n_edges) if qe != start]
    while rest:
        for i, qe in enumerate(rest):
            s, d = query.edge_endpoints(qe)
            if s in verts or d in verts:
                verts.update((s, d))
                order.append(qe)
                del rest[i]
                break
        else:  # disconnected query is rejected at construction; keep stable anyway
            order.append(rest.pop(0))
    return order


def enumerate_matches(
    graph: DynamicGraph,
    query: QueryGraph,
    *,
    containing: EdgeRecord | None = None,
    max_query_edges: int = ORACLE_MAX_QUERY_EDGES,
    max_graph_edges: int = ORACLE_MAX_GRAPH_EDGES,
) -> list[Match]:
    """Exhaustively enumerate windowed matches on the current snapshot.

    With ``containing`` the enumeration is restricted to matches that include
    that edge.  Guards refuse workloads beyond oracle scale.
    """
    if query.n_edges > max_query_edges:
        raise ContractError(f"oracle guard: query has {query.n_edges} edges (> {max_query_edges})")
    if graph.edge_count > max_graph_edges:
        raise ContractError(f"oracle guard: window has {graph.edge_count} edges (> {max_graph_edges})")

    all_edges = list(graph.live_edges())
    compatible: dict[int, list[EdgeRecord]] = {}
    for qe_id, e in enumerate(query.edges):
        s_lbl = query.vertex_labels[e.src]
        d_lbl = query.vertex_labels[e.dst]
        compatible[qe_id] = [
            rec
            for rec in all_edges
            if rec[5] == e.label
            and rec[3] == s_lbl
            and rec[4] == d_lbl
            and (e.src != e.dst or rec[1] == rec[2])
            and (e.src == e.dst or rec[1] != rec[2])
        ]

    results: list[Match] = []
    window = graph.window

    def admit(binding: dict[int, str], chosen: dict[int, EdgeRecord]) -> None:
        times = [r[6] for r in chosen.values()]
        if max(times) - min(times) < window:
            results.append(Match.of(query, [(q, r[0], r[6]) for q, r in chosen.items()], binding))

    def extend(order: list[int], depth: int, binding: dict[int, str], rev: dict[str, int],
               chosen: dict[int, EdgeRecord], used: set[int]) -> None:
        if depth == len(order):
            admit(binding, chosen)
            return
        qe_id = order[depth]
        e = query.edges[qe_id]
        for rec in compatible[qe_id]:
            edge_id = rec[0]
            if edge_id in used:
                continue
            ok = True
            trail: list[tuple[int, str]] = []
            for qv, dv in ((e.src, rec[1]), (e.dst, rec[2])):
                bound = binding.get(qv)
                if bound is not None:
                    if bound != dv:
                        ok = False
                        break
                elif rev.get(dv) is not None and rev[dv] != qv:
                    ok = False
                    break
                elif not any(qv == t[0] for t in trail):
                    trail.append((qv, dv))
            if ok:
                for qv, dv in trail:
                    binding[qv] = dv
                    rev[dv] = qv
                chosen[qe_id] = rec
                used.add(edge_id)
                extend(order, depth + 1, binding, rev, chosen, used)
                used.discard(edge_id)
                del chosen[qe_id]
                for qv, dv in trail:
                    del binding[qv]
                    del rev[dv]

    if containing is None:
        order = _oracle_order(query, 0)
        extend(order, 0, {}, {}, {}, set())
        return results

    anchor_id, src, dst = containing[:3]
    for role in range(query.n_edges):
        if not any(rec[0] == anchor_id for rec in compatible[role]):
            continue
        e = query.edges[role]
        binding: dict[int, str] = {}
        if e.src == e.dst:
            binding[e.src] = src
        else:
            binding[e.src] = src
            binding[e.dst] = dst
        rev = {dv: qv for qv, dv in binding.items()}
        if len(rev) != len(binding):
            continue
        order = _oracle_order(query, role)
        extend(order[1:], 0, binding, rev, {role: containing}, {anchor_id})
    return results


@dataclass
class DeltaOracle:
    """Tracks the cumulative oracle match set over a stream, step by step.

    Per step the delta is computed over matches containing the new edge.
    Lemma: a match whose edges are all live at step k+1 and which does not
    include the new edge was already a live match at step k, because every
    other edge arrived no later and ``t_last`` only grows — so cumulative
    novelty can only enter through the newest edge.  ``full_check`` runs the
    unrestricted oracle as an independent audit of that lemma.
    """

    query: QueryGraph
    seen: set[tuple[tuple[int, int], ...]] = field(default_factory=set)

    def step(self, graph: DynamicGraph, rec: EdgeRecord) -> set[tuple[tuple[int, int], ...]]:
        fresh = {
            m.pairs
            for m in enumerate_matches(graph, self.query, containing=rec)
            if m.pairs not in self.seen
        }
        self.seen |= fresh
        return fresh

    def full_check(self, graph: DynamicGraph) -> bool:
        """Every currently-live match must already be in the cumulative set."""
        live = {m.pairs for m in enumerate_matches(graph, self.query)}
        return live <= self.seen
