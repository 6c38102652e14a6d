"""Query patterns and partial matches.

A query is a small typed directed multigraph with dense integer ids.  Matches
bind query edges to data edge ids and query vertices to data vertex ids; a
match is an isomorphism fragment, so vertex bindings are injective and no two
query edges share a data edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

from .errors import ContractError, ParseError

__all__ = [
    "QueryEdge",
    "QueryGraph",
    "QueryPiece",
    "Match",
    "join",
    "parse_query",
    "format_query",
]


@dataclass(frozen=True, slots=True)
class QueryEdge:
    src: int
    dst: int
    label: str


class QueryGraph:
    """An immutable connected query pattern.

    ``vertex_labels[i]`` is the label of query vertex i; ``edges[j]`` is query
    edge j.  Ids are positional, hence dense by construction.
    """

    __slots__ = ("vertex_labels", "edges")

    def __init__(self, vertex_labels: Sequence[str], edges: Sequence[QueryEdge]):
        if not vertex_labels:
            raise ValueError("query needs at least one vertex")
        if not edges:
            raise ValueError("query needs at least one edge")
        n = len(vertex_labels)
        for e in edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise ValueError(f"edge {e} references an unknown vertex")
        self.vertex_labels: tuple[str, ...] = tuple(vertex_labels)
        self.edges: tuple[QueryEdge, ...] = tuple(edges)
        if not self._connected():
            raise ValueError("query graph must be connected")

    def _connected(self) -> bool:
        n = len(self.vertex_labels)
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for e in self.edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_label(self, qv: int) -> str:
        return self.vertex_labels[qv]

    def edge_endpoints(self, qe: int) -> tuple[int, int]:
        e = self.edges[qe]
        return e.src, e.dst

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QueryGraph)
            and self.vertex_labels == other.vertex_labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_labels, self.edges))

    def __repr__(self) -> str:
        return f"QueryGraph({len(self.vertex_labels)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class QueryPiece:
    """A sub-pattern of a query: a set of qedge ids plus a set of qvertex ids.

    Vertex-only pieces (no edges) are legal; they appear as join cuts.
    """

    edges: frozenset[int]
    vertices: frozenset[int]

    @classmethod
    def from_edges(cls, query: QueryGraph, edge_ids: Iterable[int]) -> "QueryPiece":
        ids = frozenset(edge_ids)
        verts = set()
        for qe in ids:
            e = query.edges[qe]
            verts.add(e.src)
            verts.add(e.dst)
        return cls(edges=ids, vertices=frozenset(verts))

    def union(self, other: "QueryPiece") -> "QueryPiece":
        return QueryPiece(self.edges | other.edges, self.vertices | other.vertices)

    def intersection(self, other: "QueryPiece") -> "QueryPiece":
        return QueryPiece(self.edges & other.edges, self.vertices & other.vertices)

    def is_connected(self, query: QueryGraph) -> bool:
        """Edge-connectivity of the piece (vertex-only pieces of size <= 1 count)."""
        if not self.edges:
            return len(self.vertices) <= 1
        remaining = set(self.edges)
        first = min(remaining)
        remaining.discard(first)
        e = query.edges[first]
        verts = {e.src, e.dst}
        progress = True
        while remaining and progress:
            progress = False
            for qe in sorted(remaining):
                e = query.edges[qe]
                if e.src in verts or e.dst in verts:
                    verts.update((e.src, e.dst))
                    remaining.discard(qe)
                    progress = True
        return not remaining and self.vertices == frozenset(verts)


class Match:
    """A partial or complete match: (qedge -> data edge) pairs plus vertex bindings.

    ``pairs`` (sorted by qedge id) is the canonical signature used for
    deduplication.  ``t_min``/``t_max`` are cached over the bound data edges
    and are None for vertex-only matches.
    """

    __slots__ = ("pairs", "times", "_pm", "eids", "bindings", "rev", "t_min", "t_max")

    def __init__(self, items: Iterable[tuple[int, int, int]], bindings: Mapping[int, str]):
        ordered = sorted(items)
        self.pairs: tuple[tuple[int, int], ...] = tuple((q, e) for q, e, _ in ordered)
        self.times: tuple[int, ...] = tuple(t for _, _, t in ordered)
        self._pm: dict[int, int] | None = {q: e for q, e, _ in ordered}
        self.eids: frozenset[int] = frozenset(e for _, e, _ in ordered)
        if len(self._pm) != len(self.pairs):
            raise ContractError("a qedge appears twice in one match")
        self.bindings: dict[int, str] = dict(bindings)
        self.rev: dict[str, int] = {dv: qv for qv, dv in self.bindings.items()}
        if len(self.rev) != len(self.bindings):
            raise ContractError("vertex bindings must be injective")
        if self.times:
            self.t_min: int | None = min(self.times)
            self.t_max: int | None = max(self.times)
        else:
            self.t_min = None
            self.t_max = None

    @property
    def pair_map(self) -> dict[int, int]:
        # Built lazily: merged matches rarely need the dict form.
        pm = self._pm
        if pm is None:
            pm = self._pm = dict(self.pairs)
        return pm

    def time_span(self) -> int:
        if self.t_min is None:
            return 0
        return self.t_max - self.t_min

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.pairs == other.pairs and self.bindings == other.bindings

    def __hash__(self) -> int:
        return hash((self.pairs, tuple(sorted(self.bindings.items()))))

    def __repr__(self) -> str:
        inner = ";".join(f"{q}={e}" for q, e in self.pairs)
        return f"Match({inner})"

    @classmethod
    def _merged(
        cls,
        pairs: tuple[tuple[int, int], ...],
        times: tuple[int, ...],
        eids: frozenset[int],
        bindings: dict[int, str],
        rev: dict[str, int],
        t_min: int | None,
        t_max: int | None,
    ) -> Match:
        # Raw constructor for join(): the caller has already proven the
        # invariants __init__ would re-check, and the inputs are pre-sorted.
        m = cls.__new__(cls)
        m.pairs = pairs
        m.times = times
        m._pm = None
        m.eids = eids
        m.bindings = bindings
        m.rev = rev
        m.t_min = t_min
        m.t_max = t_max
        return m


def join(m1: Match, m2: Match) -> Match | None:
    """Merge two matches; None when they are inconsistent.

    Succeeds iff shared qvertices bind identically, the merged vertex binding
    stays injective, no qedge is bound to two different data edges, and no two
    distinct qedges share one data edge.  Commutative.
    """
    small, big = (m1, m2) if len(m1.bindings) <= len(m2.bindings) else (m2, m1)
    for qv, dv in small.bindings.items():
        bound = big.bindings.get(qv)
        if bound is not None:
            if bound != dv:
                return None
        elif dv in big.rev:
            return None  # same data vertex already serving another qvertex
    # Both pair tuples are sorted by qedge id; merge with two pointers.  A
    # shared qedge must carry the same data edge — checked as the pointers
    # meet, so no per-join ownership map is needed.
    p1, p2 = m1.pairs, m2.pairs
    ts1, ts2 = m1.times, m2.times
    n1, n2 = len(p1), len(p2)
    i = j = 0
    mp: list[tuple[int, int]] = []
    mt: list[int] = []
    while i < n1 and j < n2:
        q1 = p1[i][0]
        q2 = p2[j][0]
        if q1 <= q2:
            if q1 == q2:
                if p1[i][1] != p2[j][1]:
                    return None  # one qedge bound to two data edges
                j += 1
            mp.append(p1[i])
            mt.append(ts1[i])
            i += 1
        else:
            mp.append(p2[j])
            mt.append(ts2[j])
            j += 1
    if i < n1:
        mp.extend(p1[i:])
        mt.extend(ts1[i:])
    elif j < n2:
        mp.extend(p2[j:])
        mt.extend(ts2[j:])
    eids = m1.eids | m2.eids
    if len(eids) != len(mp):
        return None  # one data edge cannot serve two qedges
    bindings = dict(big.bindings)
    bindings.update(small.bindings)
    rev = dict(big.rev)
    rev.update(small.rev)
    if m1.t_min is None:
        t_min, t_max = m2.t_min, m2.t_max
    elif m2.t_min is None:
        t_min, t_max = m1.t_min, m1.t_max
    else:
        t_min = m1.t_min if m1.t_min <= m2.t_min else m2.t_min
        t_max = m1.t_max if m1.t_max >= m2.t_max else m2.t_max
    return Match._merged(tuple(mp), tuple(mt), eids, bindings, rev, t_min, t_max)


# ---------------------------------------------------------------------- files

def parse_query(lines: Iterable[str] | IO[str], source: str | None = None) -> QueryGraph:
    """Parse the query text format.

    ``node <id> <label>`` and ``edge <id> <src> <dst> <label>`` lines, ``#``
    comments; ids must be dense ordinals starting at 0.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    nodes: dict[int, str] = {}
    edges: dict[int, tuple[int, int, str]] = {}
    for line_no, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) != 3:
                    raise ValueError("want: node <id> <label>")
                nid = int(parts[1])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = parts[2]
            elif kind == "edge":
                if len(parts) != 5:
                    raise ValueError("want: edge <id> <src> <dst> <label>")
                eid = int(parts[1])
                if eid in edges:
                    raise ValueError(f"duplicate edge id {eid}")
                edges[eid] = (int(parts[2]), int(parts[3]), parts[4])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no, source=source) from None
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError("node ids must be dense ordinals from 0", source=source)
    if sorted(edges) != list(range(len(edges))):
        raise ParseError("edge ids must be dense ordinals from 0", source=source)
    labels = [nodes[i] for i in range(len(nodes))]
    try:
        qedges = []
        for i in range(len(edges)):
            s, d, lbl = edges[i]
            if s not in nodes or d not in nodes:
                raise ValueError(f"edge {i} references an unknown node")
            qedges.append(QueryEdge(s, d, lbl))
        return QueryGraph(labels, qedges)
    except ValueError as exc:
        raise ParseError(str(exc), source=source) from None


def format_query(query: QueryGraph) -> str:
    out = []
    for i, lbl in enumerate(query.vertex_labels):
        out.append(f"node {i} {lbl}")
    for i, e in enumerate(query.edges):
        out.append(f"edge {i} {e.src} {e.dst} {e.label}")
    return "\n".join(out) + "\n"
