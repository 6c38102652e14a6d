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
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Counters
from .errors import ContractError
from .graph import DynamicGraph, EdgeRecord, RawEdge
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
    for rec in graph.neighbors(src, "out", label):
        if rec.dst == dst:
            return True
    return False


def vf2_matches_containing(
    graph: DynamicGraph, query: QueryGraph, anchor: EdgeRecord
) -> list[Match]:
    """All full-query matches in the live window that contain ``anchor``."""
    adj = _query_adjacency(query)
    results: list[Match] = []
    for role, qe in enumerate(query.edges):
        if (
            qe.label != anchor.edge_type
            or query.vertex_labels[qe.src] != anchor.src_type
            or query.vertex_labels[qe.dst] != anchor.dst_type
        ):
            continue
        if qe.src == qe.dst:
            if anchor.src != anchor.dst:
                continue
            core = {qe.src: anchor.src}
        else:
            if anchor.src == anchor.dst:
                continue
            core = {qe.src: anchor.src, qe.dst: anchor.dst}
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
        for rec in graph.neighbors(pivot, "in", qe.label):
            if rec.src not in seen:
                seen.add(rec.src)
                candidates.append(rec.src)
    else:  # mapped --e--> qv
        for rec in graph.neighbors(pivot, "out", qe.label):
            if rec.dst not in seen:
                seen.add(rec.dst)
                candidates.append(rec.dst)
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
    used_ids = {anchor.edge_id}

    def rec_assign(qe_id: int) -> None:
        if qe_id == n:
            results.append(
                Match.of(query, [(q, r.edge_id, r.timestamp) for q, r in chosen.items()], core)
            )
            return
        if qe_id == seed_role:
            rec_assign(qe_id + 1)
            return
        e = query.edges[qe_id]
        s, d = core[e.src], core[e.dst]
        for rec in graph.neighbors(s, "out", e.label):
            if rec.dst != d or rec.edge_id in used_ids:
                continue
            chosen[qe_id] = rec
            used_ids.add(rec.edge_id)
            rec_assign(qe_id + 1)
            used_ids.discard(rec.edge_id)
            del chosen[qe_id]

    # the seed must actually fit this mapping (it does by construction of the
    # search, but a parallel-edge mapping may route the anchor elsewhere)
    e = query.edges[seed_role]
    if core[e.src] != anchor.src or core[e.dst] != anchor.dst:
        return
    rec_assign(0)


class RescanEngine:
    """Baseline: re-search the whole window around every arriving edge."""

    def __init__(self, query: QueryGraph, window: int | None = None):
        self.query = query
        self.window = window
        self.graph = DynamicGraph(window)
        self.log: list[Match] = []
        self.counters = Counters()
        self._seen: set[tuple[tuple[int, int], ...]] = set()

    def process(self, raw: RawEdge) -> list[Match]:
        rec = self.graph.add_edge(raw)
        self.counters.edges += 1
        fresh: list[Match] = []
        for m in vf2_matches_containing(self.graph, self.query, rec):
            if self.window is not None and m.time_span() >= self.window:
                continue  # defensive: live edges already imply an in-window span
            if m.pairs in self._seen:
                continue
            self._seen.add(m.pairs)
            self.log.append(m)
            self.counters.emitted += 1
            fresh.append(m)
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
            if rec.edge_type == e.label
            and rec.src_type == s_lbl
            and rec.dst_type == d_lbl
            and (e.src != e.dst or rec.src == rec.dst)
            and (e.src == e.dst or rec.src != rec.dst)
        ]

    results: list[Match] = []
    window = graph.window

    def admit(binding: dict[int, str], chosen: dict[int, EdgeRecord]) -> None:
        m = Match.of(query, [(q, r.edge_id, r.timestamp) for q, r in chosen.items()], binding)
        if window is not None and m.time_span() >= window:
            return
        results.append(m)

    def extend(order: list[int], depth: int, binding: dict[int, str], rev: dict[str, int],
               chosen: dict[int, EdgeRecord], used: set[int]) -> None:
        if depth == len(order):
            admit(binding, chosen)
            return
        qe_id = order[depth]
        e = query.edges[qe_id]
        for rec in compatible[qe_id]:
            if rec.edge_id in used:
                continue
            ok = True
            trail: list[tuple[int, str]] = []
            for qv, dv in ((e.src, rec.src), (e.dst, rec.dst)):
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
                used.add(rec.edge_id)
                extend(order, depth + 1, binding, rev, chosen, used)
                used.discard(rec.edge_id)
                del chosen[qe_id]
                for qv, dv in trail:
                    del binding[qv]
                    del rev[dv]

    if containing is None:
        order = _oracle_order(query, 0)
        extend(order, 0, {}, {}, {}, set())
        return results

    for role in range(query.n_edges):
        if not any(rec.edge_id == containing.edge_id for rec in compatible[role]):
            continue
        e = query.edges[role]
        binding: dict[int, str] = {}
        if e.src == e.dst:
            binding[e.src] = containing.src
        else:
            binding[e.src] = containing.src
            binding[e.dst] = containing.dst
        rev = {dv: qv for qv, dv in binding.items()}
        if len(rev) != len(binding):
            continue
        order = _oracle_order(query, role)
        extend(order[1:], 0, binding, rev, {role: containing}, {containing.edge_id})
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
