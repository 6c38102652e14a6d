"""Sliding-window store for a typed, directed multigraph edge stream.

The store keeps exactly the indexed edges of the current time window: after
ingesting an edge with timestamp t, every retained edge satisfies
``timestamp > t - window``.  Parallel edges (same endpoints, same or
different type) are distinct records.

An edge is ingested indexed (the default) or unindexed.  An indexed edge
becomes a record in its endpoints' adjacency lists; an unindexed one is
checked and counted like any other, and keeps its endpoints live, but no
list holds it, so no search can reach it.  The continuous-query engine
ingests unindexed exactly the edges whose label no qedge of its query
carries; every other user of the store (the rescan baseline, the oracle)
indexes every edge.

A vertex is live while one of its lists is non-empty or an unindexed edge at
it is inside the window: each vertex carries ``stamp``, the timestamp of the
newest unindexed edge at it, or of the edge that made it (an indexed edge
that made it stays in its lists for as long as that stamp would keep it
live).  A vertex that is still in the table but not live is treated as new
by the next edge at it, so it may take a new label.

Design notes
------------
- Adjacency lists are kept in arrival order, so the globally oldest live edge
  is always at the front of its endpoints' deques and eviction is O(1) per
  evicted edge.  Every ingest evicts, indexed or not, so the lists hold only
  live edges and a non-empty list means a live vertex.
- A vertex gets its two deques with its first indexed edge and holds ``()``
  in their place until then, so a vertex kept live only by unindexed edges
  costs its slots object and no lists.  The append that finds ``()`` raises
  AttributeError, which hands the vertex its deques; every other append
  takes no branch for it.
- Timestamps must be non-decreasing across calls; ties are fine.  This is the
  property that makes front-of-deque eviction sound.
- A self-loop sits once in both the out- and in-list of its vertex.  Its two
  endpoint labels must agree.
- ``add_edge`` unpacks the raw edge once and runs every check (stream order,
  both endpoint labels against the live vertices, the self-loop's two labels)
  before it changes anything, so a rejected edge leaves the store as it was.
  The checks are the same on both kinds of ingest, so the engine's store
  rejects exactly the edges a store that indexes everything rejects.
- Eviction deletes a vertex once both its lists are empty and its stamp has
  expired.  A vertex kept only by its stamp expires without an event; such
  vertices leave in a prune of every dead vertex, run whenever the table
  has doubled since the last one (and holds more than ``_VERTEX_MIN_PRUNE``
  entries), so the table holds at most twice the live vertices of the last
  prune, at amortized O(1) per new vertex.
- ``edges_ingested`` counts every edge and gives each its id, its position
  in the stream; ``edge_count``, ``live_edges`` and ``edges_evicted`` count
  and list indexed edges only.
- ``parse_edge_line`` takes a well-formed data line in one pass: six
  non-empty tab-separated fields, the first led by an ASCII digit (which no
  blank or comment line is, and which leaves no room for a sign).  Any other
  line is parsed rule by rule, so both give the same edge or the same
  ``ParseError``.
- Edges are plain tuples: ``parse_edge_line`` returns a 6-tuple in wire
  order and ``add_edge`` stores a 7-tuple in ``EdgeRecord``'s field order,
  and every reader takes fields by position or by unpacking.  ``RawEdge``
  names the wire order for callers that build edges by name; ``add_edge``
  and the engines take it through the same code.  An exact tuple beats a
  NamedTuple on each edge in CPython: it is one allocation, not two; the
  interpreter's fast paths for indexing and unpacking accept only exact
  tuples; and a tuple of ints and strings leaves the garbage collector's
  tracking at its first collection, while a NamedTuple stays tracked.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import LabelConflictError, ParseError, StreamOrderError

__all__ = [
    "RawEdge",
    "WireEdge",
    "EdgeRecord",
    "DynamicGraph",
    "parse_edge_line",
    "format_edge_line",
    "read_edge_stream",
]


class RawEdge(NamedTuple):
    """One stream element, field order matching the TSV wire format.

    Only callers that build edges by name make these, ``generate_stream``
    among them.  ``parse_edge_line`` hands out plain tuples in the same
    order, and everything that takes an edge takes either form (see
    ``WireEdge``); the store hands out plain ``EdgeRecord`` tuples.
    """

    timestamp: int
    src: str
    src_type: str
    edge_type: str
    dst: str
    dst_type: str


# any stream element: a 6-tuple in RawEdge's (wire) order, a RawEdge or the
# plain tuple parse_edge_line returns
WireEdge = tuple[int, str, str, str, str, str]

# A stored edge, as the plain 7-tuple ``add_edge`` returns and the adjacency
# lists hold, read by position: ``(edge_id, src, dst, src_type, dst_type,
# edge_type, timestamp)`` at 0 to 6.  ``edge_id`` is assigned at ingest and
# strictly increases.
EdgeRecord = tuple[int, str, str, str, str, str, int]


# the errors of a rejected edge, built here for ``add_edge`` and for the
# statistics sample, which checks a stream by the same rules without a store
def disorder_error(ts: int, t_last: int) -> StreamOrderError:
    return StreamOrderError(f"timestamp {ts} arrived after t_last={t_last}")


def label_error(vid: str, seen: str, now: str) -> LabelConflictError:
    return LabelConflictError(f"vertex {vid!r} seen as {seen!r}, now {now!r}")


def loop_error(vid: str, src_type: str, dst_type: str) -> LabelConflictError:
    return LabelConflictError(
        f"self-loop on {vid!r} labels it both {src_type!r} and {dst_type!r}"
    )


# the fewest vertex-table entries worth a prune of the dead ones
_VERTEX_MIN_PRUNE = 1 << 10


@dataclass(slots=True)
class _Vertex:
    label: str
    stamp: int  # newest unindexed edge at the vertex, or the edge that made it
    # both () until the vertex's first indexed edge, then both deques
    out_edges: deque | tuple[()] = ()
    in_edges: deque | tuple[()] = ()


class DynamicGraph:
    """Time-windowed dynamic multigraph.

    ``window=None`` means an unbounded window (nothing ever expires).
    ``edge_count`` and ``edges_evicted`` count indexed edges only;
    ``edges_ingested`` counts every edge.
    """

    def __init__(self, window: int | None = None):
        if window is not None and window <= 0:
            raise ValueError("window must be positive or None")
        self.window = window
        self.t_last: int | None = None
        self.edges_ingested = 0
        self.edges_evicted = 0
        self._vertices: dict[str, _Vertex] = {}
        self._vertex_cap = _VERTEX_MIN_PRUNE
        self._arrivals: deque = deque()  # indexed EdgeRecords, oldest first

    # ------------------------------------------------------------------ ingest

    def add_edge(self, raw: WireEdge, index: bool = True) -> EdgeRecord | None:
        """Ingest one edge, then eagerly evict everything that just expired.

        With ``index`` the edge is stored and its record returned; without,
        it only keeps its endpoints live and advances the stream (its id is
        used up, ``t_last`` moves), and None is returned.

        Raises StreamOrderError on a timestamp older than ``t_last`` and
        LabelConflictError when a live endpoint re-appears under a new label
        or a self-loop gives its vertex two labels.  Every check runs before
        anything changes, so a rejected edge leaves the store as it was.
        """
        ts, src, src_type, edge_type, dst, dst_type = raw
        t_last = self.t_last
        if t_last is not None and ts < t_last:
            raise disorder_error(ts, t_last)
        vertices = self._vertices
        src_v = vertices.get(src)
        if src_v is None or src_v.label != src_type:
            if src_v is not None and self._live(src_v):
                raise label_error(src, src_v.label, src_type)
            # a new vertex, or a dead one taken as new, can only conflict
            # with itself, through a self-loop
            if src == dst and src_type != dst_type:
                raise loop_error(src, src_type, dst_type)
            src_v = None
        dst_v = vertices.get(dst)
        if dst_v is not None and dst_v.label != dst_type:
            # dst_v is src_v: a self-loop at a dead vertex kept under the
            # source label, which the loop would label twice
            if self._live(dst_v) or dst_v is src_v:
                raise label_error(dst, dst_v.label, dst_type)
            dst_v = None

        edge_id = self.edges_ingested
        self.edges_ingested = edge_id + 1
        self.t_last = ts

        if src_v is None or dst_v is None:
            if len(vertices) + 2 > self._vertex_cap:
                # a prune is due; an endpoint the table holds may be a dead
                # vertex about to be reused, so both are kept
                self._prune_vertices(src, dst)
            if src_v is None:
                src_v = vertices[src] = _Vertex(src_type, ts)
            if dst_v is None:
                if src == dst:
                    dst_v = src_v  # a self-loop on a new vertex: the one just made
                else:
                    dst_v = vertices[dst] = _Vertex(dst_type, ts)
        arrivals = self._arrivals
        if index:
            rec = (edge_id, src, dst, src_type, dst_type, edge_type, ts)
            # the () a vertex holds before its first indexed edge has no
            # append: the vertex gets its deques there
            try:
                src_v.out_edges.append(rec)
            except AttributeError:
                src_v.out_edges, src_v.in_edges = deque((rec,)), deque()
            try:
                dst_v.in_edges.append(rec)
            except AttributeError:
                dst_v.out_edges, dst_v.in_edges = deque(), deque((rec,))
            arrivals.append(rec)
        else:
            rec = None
            src_v.stamp = dst_v.stamp = ts

        window = self.window
        if window is not None and arrivals and arrivals[0][6] <= ts - window:  # [6]: timestamp
            self.evict_expired()
        return rec

    def evict_expired(self) -> None:
        """Drop every edge with ``timestamp <= t_last - window``, and every
        vertex that leaves with no edge in its lists and an expired stamp."""
        if self.window is None or self.t_last is None:
            return
        cutoff = self.t_last - self.window
        arrivals = self._arrivals
        vertices = self._vertices
        evicted = 0
        while arrivals and arrivals[0][6] <= cutoff:  # [6]: timestamp
            rec = arrivals.popleft()
            src, dst = rec[1], rec[2]
            src_v = vertices[src]
            dst_v = vertices[dst]
            # one record object sits in all three deques, oldest first
            popped = src_v.out_edges.popleft()
            assert popped is rec
            popped = dst_v.in_edges.popleft()
            assert popped is rec
            evicted += 1
            if not src_v.out_edges and not src_v.in_edges and src_v.stamp <= cutoff:
                del vertices[src]
            if src != dst and not dst_v.out_edges and not dst_v.in_edges and dst_v.stamp <= cutoff:
                del vertices[dst]
        self.edges_evicted += evicted

    def _live(self, v: _Vertex) -> bool:
        """Whether ``v`` has an edge in the window: one in its lists (which
        hold only live edges), or the unindexed one its stamp records."""
        if v.out_edges or v.in_edges:
            return True
        window = self.window
        return window is None or v.stamp > self.t_last - window

    def _prune_vertices(self, *keep: str) -> None:
        """Delete every dead vertex but those in ``keep``, in place (the
        caller holds the table), and let the table double before the next
        prune."""
        vertices = self._vertices
        live = self._live
        for vid in [vid for vid, v in vertices.items() if not live(v) and vid not in keep]:
            del vertices[vid]
        self._vertex_cap = max(2 * len(vertices), _VERTEX_MIN_PRUNE)

    # ------------------------------------------------------------------ access

    @property
    def edge_count(self) -> int:
        """Live indexed edges."""
        return len(self._arrivals)

    @property
    def vertex_count(self) -> int:
        """Live vertices."""
        return sum(1 for _ in self.vertices())

    def vertex_label(self, vid: str) -> str:
        """The label of a live vertex; KeyError for any other."""
        v = self._vertices[vid]
        if not self._live(v):
            raise KeyError(vid)
        return v.label

    def vertices(self) -> Iterator[tuple[str, str]]:
        """Yield (vertex id, label) for every live vertex."""
        live = self._live
        for vid, v in self._vertices.items():
            if live(v):
                yield vid, v.label

    def live_edges(self) -> Iterator[EdgeRecord]:
        """All live indexed edges, oldest first."""
        return iter(self._arrivals)

    def out_edges(self, vid: str) -> deque[EdgeRecord] | tuple[()]:
        """Live edges leaving ``vid``, oldest first; ``()`` for an unknown
        vertex or one that never had an indexed edge.  This is the store's
        own deque: read it, never change it."""
        v = self._vertices.get(vid)
        return () if v is None else v.out_edges

    def in_edges(self, vid: str) -> deque[EdgeRecord] | tuple[()]:
        """Live edges entering ``vid``, oldest first, as :meth:`out_edges`."""
        v = self._vertices.get(vid)
        return () if v is None else v.in_edges


# ---------------------------------------------------------------------- wire

_FIELDS = 6


def parse_edge_line(line: str, line_no: int | None = None, source: str | None = None) -> WireEdge | None:
    """Parse one TSV stream line into a plain 6-tuple in wire order (the
    order ``RawEdge`` names); returns None for comments and blank lines.

    Format: ``timestamp<TAB>src_id<TAB>src_type<TAB>edge_type<TAB>dst_id<TAB>dst_type``.

    A line of six non-empty fields whose timestamp starts with an ASCII
    digit and parses is taken in one pass: it is neither blank nor a
    comment, and a timestamp with no sign is never negative.  Every other
    line goes through :func:`_parse_checked`, which gives the same edge or
    the ``ParseError`` that names what is wrong.
    """
    parts = line.rstrip("\n").split("\t")
    if len(parts) == _FIELDS and "0" <= parts[0][:1] <= "9" and "" not in parts:
        try:
            parts[0] = int(parts[0], 10)
        except ValueError:
            pass
        else:
            return tuple(parts)
    return _parse_checked(line, line_no, source)


def _parse_checked(line: str, line_no: int | None, source: str | None) -> WireEdge | None:
    """:func:`parse_edge_line` one rule at a time, each failure its own error."""
    stripped = line.rstrip("\n")
    if not stripped.strip() or stripped.lstrip().startswith("#"):
        return None
    parts = stripped.split("\t")
    if len(parts) != _FIELDS:
        raise ParseError(
            f"expected {_FIELDS} tab-separated fields, got {len(parts)}",
            line=line_no,
            source=source,
        )
    ts_text, src, src_type, edge_type, dst, dst_type = parts
    try:
        ts = int(ts_text, 10)
    except ValueError:
        raise ParseError(f"bad timestamp {ts_text!r}", line=line_no, source=source) from None
    if ts < 0:
        raise ParseError(f"negative timestamp {ts}", line=line_no, source=source)
    if not (src and src_type and edge_type and dst and dst_type):
        raise ParseError("empty field", line=line_no, source=source)
    return (ts, src, src_type, edge_type, dst, dst_type)


def format_edge_line(edge: WireEdge) -> str:
    ts, src, src_type, edge_type, dst, dst_type = edge
    return "\t".join((str(ts), src, src_type, edge_type, dst, dst_type))


def read_edge_stream(lines: Iterable[str] | IO[str], source: str | None = None) -> Iterator[WireEdge]:
    """Yield the edge of every data line, as ``parse_edge_line`` gives it,
    raising ParseError with line numbers."""
    for line_no, line in enumerate(lines, start=1):
        raw = parse_edge_line(line, line_no, source)
        if raw is not None:
            yield raw
