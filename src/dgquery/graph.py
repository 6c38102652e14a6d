"""Sliding-window store for a typed, directed multigraph edge stream.

The store keeps exactly the indexed edges of the current time window: after
ingesting an edge with timestamp t, every retained edge satisfies
``timestamp > cutoff``, where ``cutoff = t - window`` is read by the join
tree too.  An unbounded window is ``math.inf``, and ``t_last`` and the cutoff
start at ``-math.inf``.  Parallel edges (same endpoints, same or different
type) are distinct records.

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
- Adjacency lists are kept in arrival order, and ``_arrivals`` holds, per
  live indexed edge and oldest first, its source's out-list and then its
  destination's in-list, so evicting the oldest edge is two
  ``popleft().popleft()`` with no vertex lookup.  A deadline, the oldest
  live edge's timestamp plus the window (``math.inf`` while none is live),
  lets an edge with nothing to evict pay one compare.  Every ingest evicts,
  indexed or not, so the lists hold only live edges and a non-empty list
  means a live vertex.
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
- Eviction deletes no vertex: a dead one keeps its record and lists until
  a returning edge takes them back (under a new label, if it brings one),
  or a prune of every
  dead vertex, run whenever the table has doubled since the last one (and
  holds more than ``_VERTEX_MIN_PRUNE`` entries), drops it.  The table holds
  at most twice the live vertices of the last prune, at amortized O(1) per
  new vertex.  It is the one rule for dead vertices: each vertex it deletes
  also leaves every set in ``vertex_sets`` (the engine's gate sets).
- ``edges_ingested`` counts every edge and gives each its id, its position
  in the stream; ``edge_count``, ``live_edges`` and ``edges_evicted`` count
  and list indexed edges only.
- ``parse_edge_line`` takes a well-formed data line in one pass: six
  non-empty tab-separated fields, the first a timestamp that ``int`` takes
  and finds not negative (no blank or comment line has one).  Any other
  line is parsed rule by rule, which reads the timestamp with the same
  ``int`` and sign rule, so both give the same edge or the same
  ``ParseError``.
- Stored records share their strings.  A vertex record keeps its id as the
  object its table key holds, and an indexed edge's record is built from its
  endpoint records' id and label objects, never from the strings of the
  parsed line, which die with their edge's call.  Vertex types and edge
  labels that the graph was given as ``texts`` (the engine gives its query's)
  are shared too: a new vertex's label and an indexed edge's label are that
  object when the texts are equal.  So the strings live records hold are at
  most one id and one label per table vertex plus the given texts, however
  long the stream.  Evicting an edge frees its record and two ints, and the
  collector, which reads every item of a young record before it stops
  tracking it, reads a few objects in use, not strings scattered over the
  heap by the lines that made them.  Ingest never adds a text, so texts
  from the stream cannot grow the shared set; no string is interned, as
  interned strings outlive the graph.
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

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import LabelConflictError, ParseError, StreamOrderError

__all__ = [
    "RawEdge",
    "WireEdge",
    "EdgeRecord",
    "DynamicGraph",
    "NO_VERTEX",
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
# strictly increases.  Its strings are shared: the endpoint records' ids and
# labels, and the graph's shared text for the label when it has one.
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
    vid: str  # the id object the table's key holds, which every record at the vertex holds
    label: str  # a shared text (see ``DynamicGraph``) when the vertex's type is one
    stamp: int  # newest unindexed edge at the vertex, or the edge that made it
    # the live indexed edges leaving and entering the vertex, oldest first:
    # both () until the vertex's first indexed edge, then both deques
    outgoing: deque | tuple[()] = ()
    incoming: deque | tuple[()] = ()


# what a read of the vertex table takes for a vertex it does not hold:
# ``table.get(vid, NO_VERTEX).outgoing`` is ``()``.  It is in no table, so no
# ingest ever changes it
NO_VERTEX = _Vertex("", "", 0)


class DynamicGraph:
    """Time-windowed dynamic multigraph.

    ``window=None`` means an unbounded window, kept as ``math.inf``.
    ``edge_count`` and ``edges_evicted`` count indexed edges only;
    ``edges_ingested`` counts every edge.

    ``vertex_table`` maps each vertex id the store holds to its record, whose
    ``outgoing`` and ``incoming`` slots are the adjacency lists that
    :meth:`out_edges` and :meth:`in_edges` return.  It is the store's own
    table, there for the engine's compiled searches, which read a list with
    one ``dict.get`` and one slot read: read it, never change it.  It may
    hold dead vertices (a prune drops them), whose lists are empty, and a
    vertex it lacks reads as :data:`NO_VERTEX`.  A prune also discards each
    vertex it deletes from every set of vertex ids listed in ``vertex_sets``.

    ``texts`` are the vertex types and edge labels that records share (see the
    module's design notes); ``self.texts`` maps each to the one object, the
    first given, and ingest never adds to it.  Without texts, a vertex's
    label is the first string it was made with, and an edge's label its
    line's own.
    """

    def __init__(self, window: int | None = None, texts: Iterable[str] = ()):
        self.window: float = math.inf if window is None else window
        if self.window <= 0:
            raise ValueError("window must be positive or None")
        # each shared text, keyed by its own value: the first object given
        # for it, never added to by ingest
        self.texts: dict[str, str] = {}
        for text in texts:
            self.texts.setdefault(text, text)
        self.t_last: float = -math.inf
        self.edges_ingested = 0
        self.edges_evicted = 0
        self.vertex_table: dict[str, _Vertex] = {}
        self._vertex_cap = _VERTEX_MIN_PRUNE
        self.vertex_sets: list[set[str]] = []
        # per live indexed edge, oldest first: its source's out-list, its destination's in-list
        self._arrivals: deque[deque] = deque()
        self._deadline: float = math.inf  # the oldest live edge's ts + window

    # ------------------------------------------------------------------ ingest

    def add_edge(self, raw: WireEdge, index: bool = True) -> EdgeRecord | None:
        """Ingest one edge, then evict everything that just expired.

        With ``index`` the edge is stored and its record returned; without,
        it only keeps its endpoints live and advances the stream (its id is
        used up, ``t_last`` moves), and None is returned.

        Raises StreamOrderError on a timestamp older than ``t_last`` and
        LabelConflictError when a live endpoint re-appears under a new label
        or a self-loop gives its vertex two labels.  Every check runs before
        anything changes, so a rejected edge leaves the store as it was.
        """
        ts, src, src_type, edge_type, dst, dst_type = raw
        if ts < self.t_last:
            raise disorder_error(ts, self.t_last)
        vertices = self.vertex_table
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
                src_v = self._take(src, src_type, ts)
            if dst_v is None:
                # a self-loop on a new vertex takes the one just made
                dst_v = src_v if src == dst else self._take(dst, dst_type, ts)
        arrivals = self._arrivals
        if index:
            # every string in the record is shared: the endpoints' id and
            # label objects, and the label's shared text when it has one
            rec = (edge_id, src_v.vid, dst_v.vid, src_v.label, dst_v.label, self.texts.get(edge_type, edge_type), ts)
            # the () a vertex holds before its first indexed edge has no
            # append: the vertex gets its deques there
            try:
                src_v.outgoing.append(rec)
            except AttributeError:
                src_v.outgoing, src_v.incoming = deque((rec,)), deque()
            try:
                dst_v.incoming.append(rec)
            except AttributeError:
                dst_v.outgoing, dst_v.incoming = deque(), deque((rec,))
            if not arrivals:
                self._deadline = ts + self.window
            arrivals.append(src_v.outgoing)
            arrivals.append(dst_v.incoming)
        else:
            rec = None
            src_v.stamp = dst_v.stamp = ts

        if ts >= self._deadline:
            # pop every expired edge off the front of its two lists, then
            # move the deadline to the oldest edge left
            queued = len(arrivals)
            cutoff = ts - self.window
            while arrivals and arrivals[0][0][6] <= cutoff:  # [6]: timestamp
                gone = arrivals.popleft().popleft()
                twin = arrivals.popleft().popleft()
                assert twin is gone
            self._deadline = arrivals[0][0][6] + self.window if arrivals else math.inf
            self.edges_evicted += (queued - len(arrivals)) >> 1
        return rec

    def _take(self, vid: str, label: str, ts: int) -> _Vertex:
        """The record of a vertex ``add_edge`` takes as new, made at ``ts``
        under ``label`` (its shared text when it has one): a fresh record, or
        the dead one the table holds, which keeps its id object and lists."""
        label = self.texts.get(label, label)
        v = self.vertex_table.get(vid)
        if v is None:
            v = self.vertex_table[vid] = _Vertex(vid, label, ts)
        else:
            v.label, v.stamp = label, ts
        return v

    def _live(self, v: _Vertex) -> bool:
        """Whether ``v`` has an edge in the window: one in its lists (which
        hold only live edges), or the unindexed one its stamp records."""
        if v.outgoing or v.incoming:
            return True
        return v.stamp > self.cutoff

    def _prune_vertices(self, *keep: str) -> None:
        """Delete every dead vertex but those in ``keep``, in place (the
        caller holds the table), and from each of ``vertex_sets``, and let
        the table double before the next prune."""
        vertices = self.vertex_table
        live = self._live
        dead = [vid for vid, v in vertices.items() if not live(v) and vid not in keep]
        for vid in dead:
            del vertices[vid]
        for vids in self.vertex_sets:
            vids.difference_update(dead)
        self._vertex_cap = max(2 * len(vertices), _VERTEX_MIN_PRUNE)

    # ------------------------------------------------------------------ access

    @property
    def cutoff(self) -> float:
        """``t_last - window``: an edge at or before it has left the window."""
        return self.t_last - self.window

    @property
    def edge_count(self) -> int:
        """Live indexed edges."""
        return len(self._arrivals) >> 1

    def vertex_label(self, vid: str) -> str:
        """The label of a live vertex; KeyError for any other."""
        v = self.vertex_table[vid]
        if not self._live(v):
            raise KeyError(vid)
        return v.label

    def vertices(self) -> Iterator[tuple[str, str]]:
        """Yield (vertex id, label) for every live vertex."""
        live = self._live
        for vid, v in self.vertex_table.items():
            if live(v):
                yield vid, v.label

    def live_edges(self) -> Iterator[EdgeRecord]:
        """All live indexed edges, oldest first."""
        # each record sits in one out-list, and its edge id leads it
        return heapq.merge(*(v.outgoing for v in self.vertex_table.values() if v.outgoing))

    def out_edges(self, vid: str) -> deque[EdgeRecord] | tuple[()]:
        """Live edges leaving ``vid``, oldest first; ``()`` for an unknown
        vertex or one that never had an indexed edge.  This is the store's
        own deque: read it, never change it."""
        return self.vertex_table.get(vid, NO_VERTEX).outgoing

    def in_edges(self, vid: str) -> deque[EdgeRecord] | tuple[()]:
        """Live edges entering ``vid``, oldest first, as :meth:`out_edges`."""
        return self.vertex_table.get(vid, NO_VERTEX).incoming


# ---------------------------------------------------------------------- wire

_FIELDS = 6


def parse_edge_line(line: str, line_no: int | None = None, source: str | None = None) -> WireEdge | None:
    """Parse one TSV stream line into a plain 6-tuple in wire order (the
    order ``RawEdge`` names); returns None for comments and blank lines.

    Format: ``timestamp<TAB>src_id<TAB>src_type<TAB>edge_type<TAB>dst_id<TAB>dst_type``.

    A line of six non-empty fields whose timestamp ``int`` takes and finds
    not negative is taken in one pass: such a timestamp holds a digit and no
    ``#``, so the line is neither blank nor a comment, and
    :func:`_parse_checked` reads it with the same ``int`` and the same sign
    rule.  Every other line goes through :func:`_parse_checked`, which gives
    the same edge or the ``ParseError`` that names what is wrong.
    """
    try:
        ts, src, src_type, edge_type, dst, dst_type = line.rstrip("\n").split("\t")
        t = int(ts)
        if t >= 0 and src and src_type and edge_type and dst and dst_type:
            return (t, src, src_type, edge_type, dst, dst_type)
    except ValueError:  # not six fields, or a timestamp int does not take
        pass
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
