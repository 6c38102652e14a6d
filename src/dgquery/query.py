"""Query patterns and partial matches.

A query is a small typed directed multigraph with dense integer ids.  Matches
bind query edges to data edge ids and query vertices to data vertex ids; a
match is an isomorphism fragment, so vertex bindings are injective and no two
query edges share a data edge.

:class:`Match` is the output type: what the engines emit and log and what
the oracles and the command line read.  The join tree keeps partial matches
as flat ``(t_min, *edges, *verts)`` tuples of the same slots
(``sjtree.Partial``), and the engine wraps the tuple of each complete match
it emits in a ``Match``.
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
    edge j.  Ids are positional, hence dense by construction.  Equal texts
    among the vertex labels and edge labels are one object, the first given;
    ``texts`` lists each distinct one, vertex labels first.
    """

    __slots__ = ("vertex_labels", "edges", "texts", "_hash")

    def __init__(self, vertex_labels: Sequence[str], edges: Sequence[QueryEdge]):
        if not vertex_labels:
            raise ValueError("query needs at least one vertex")
        if not edges:
            raise ValueError("query needs at least one edge")
        n = len(vertex_labels)
        for e in edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise ValueError(f"edge {e} references an unknown vertex")
        shared: dict[str, str] = {}
        self.vertex_labels: tuple[str, ...] = tuple(shared.setdefault(t, t) for t in vertex_labels)
        self.edges: tuple[QueryEdge, ...] = tuple(
            QueryEdge(e.src, e.dst, shared.setdefault(e.label, e.label)) for e in edges
        )
        self.texts: tuple[str, ...] = tuple(shared)
        whole = QueryPiece.from_edges(self, range(len(self.edges)))
        if len(whole.vertices) != n or not whole.is_connected(self):
            raise ValueError("query graph must be connected")
        self._hash = hash((self.vertex_labels, self.edges))

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
        return self._hash

    def __repr__(self) -> str:
        return f"QueryGraph({len(self.vertex_labels)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class QueryPiece:
    """A sub-pattern of a query: a set of qedge ids plus a set of qvertex ids."""

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

    def is_connected(self, query: QueryGraph) -> bool:
        """Whether the piece's qedges form one connected pattern that touches
        exactly its qvertices.  The piece holds at least one qedge."""
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
    """A partial or complete match in query-width slots.

    ``flat`` is the join tree's tuple ``(t_min, e_0 ... e_{E-1}, v_0 ...
    v_{V-1})`` with ``E = n_edges``: ``edges[qe]`` is the data edge id bound
    to query edge ``qe`` and ``verts[qv]`` the data vertex bound to query
    vertex ``qv``, None marking an unbound slot; both are read-only views of
    ``flat``.  ``t_min``/``t_max`` span the bound edges' timestamps and are
    None when no edge is bound.  Keeping the tuple the engine emits, rather
    than slicing it, leaves one object fewer per emission for the garbage
    collector to track.  The constructor trusts its caller; use :meth:`of`
    to build a match from unchecked parts.  A driven join tree builds each
    emission without it, setting these three slots one by one.
    """

    __slots__ = ("flat", "n_edges", "t_max")

    def __init__(self, flat: tuple[int | str | None, ...], n_edges: int, t_max: int | None):
        self.flat = flat
        self.n_edges = n_edges
        self.t_max = t_max

    @property
    def edges(self) -> tuple[int | None, ...]:
        return self.flat[1:1 + self.n_edges]

    @property
    def verts(self) -> tuple[str | None, ...]:
        return self.flat[1 + self.n_edges:]

    @property
    def t_min(self) -> int | None:
        return self.flat[0]

    @classmethod
    def of(
        cls,
        query: QueryGraph,
        items: Iterable[tuple[int, int, int]],
        bindings: Mapping[int, str],
    ) -> Match:
        """Build a match of ``query`` from (qedge, data edge, timestamp)
        triples and a {qvertex: data vertex} map, checking that no slot is
        bound twice and that edges and vertices are bound injectively."""
        edges: list[int | None] = [None] * query.n_edges
        times: list[int] = []
        for qe, eid, ts in items:
            if edges[qe] is not None:
                raise ContractError("a qedge appears twice in one match")
            if eid in edges:
                raise ContractError("one data edge serves two qedges")
            edges[qe] = eid
            times.append(ts)
        verts: list[str | None] = [None] * query.n_vertices
        for qv, dv in bindings.items():
            if dv in verts:
                raise ContractError("vertex bindings must be injective")
            verts[qv] = dv
        return cls((min(times, default=None), *edges, *verts), query.n_edges, max(times, default=None))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(qedge, data edge) for every bound qedge, in qedge order: the
        signature outputs and oracles compare."""
        return tuple((qe, e) for qe, e in enumerate(self.edges) if e is not None)

    def time_span(self) -> int:
        if self.t_min is None:
            return 0
        return self.t_max - self.t_min

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        # the edge and vertex slots; t_min follows from the edges
        return self.n_edges == other.n_edges and self.flat[1:] == other.flat[1:]

    def __hash__(self) -> int:
        return hash(self.flat[1:])

    def __repr__(self) -> str:
        inner = ";".join(f"{q}={e}" for q, e in self.pairs)
        return f"Match({inner})"


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
