"""Frequency statistics over a stream sample and the selectivity table built
from them.

Two primitive families are profiled:

* arity 1 — typed directed edges, keyed ``(src_type, edge_type, dst_type)``;
* arity 2 — 2-edge paths through a shared center vertex, keyed
  ``(center_type, d1, d2)`` where each descriptor is
  ``(edge_type, far_type, direction)`` with direction "out"/"in" relative to
  the center, and ``d1 <= d2`` canonically.

Path counting tallies each center vertex's incident edge descriptors, then
combines the counts pairwise — ``n*(n-1)/2`` within one descriptor,
``n1*n2`` across two.  Parallel edges therefore count with their
multiplicities, and total work is linear in edges plus the pair-combination
term, never quadratic in the vertex count.

``collect_stats`` tallies a stream sample as it streams, with no graph.  It
reads the sample a fixed-size chunk at a time and transposes each chunk into
columns.  It checks them in bulk, by the stream-order and label rules of
``DynamicGraph.add_edge`` over a window where nothing expires: no timestamp
falls, and each vertex keeps its first label.  A chunk that fails is walked
again edge by edge, in ``add_edge``'s order, to raise its error at the first
bad edge.  The chunk is then counted by ``Counter.update`` into two tallies:
``(src, edge_type, dst_type)`` for the out roles and ``(dst, edge_type,
src_type)`` for the in roles, self-loops left out, so a self-loop is one
descriptor at its vertex, in its out role.  After the last chunk, the edge
keys are summed from the out tally, and the two tallies become each vertex's
descriptor tally.  The sample's statistics hold one entry per vertex and per
(vertex, descriptor), never one per edge.

The table ``collect_stats`` returns keeps those tallies, grouped by center
label, in place of the path counts, since a planner reads only a few path
keys.  A key read from it (``frequency``, ``path_selectivity``) is summed over
the tallies of its center label alone, and kept.  ``total2`` needs no key: a
center holding ``s`` descriptors, a self-loop once, centers ``C(s, 2)`` paths
(the handshake identity), so it is summed as the table is built.  Every key
is summed, and the tallies dropped, when ``arity2`` is first read, as
``to_json`` reads it.

The full pair sum runs one center label at a time.  The label's descriptors are
numbered in sorted order, so ids ``i < j`` name the canonical pair
``(d_i, d_j)``, and each vertex's tally becomes two flat lists: its ids,
descending, and their counts.  Row ``i``, every pair whose first descriptor is
``d_i``, is summed into a dict keyed by ``j`` over the vertices whose least
unsummed id is ``i``; each of them then drops ``i`` and waits on its next id.
Every pair is added once, by ints, and each key of the result is built once.
Beyond the result, the pair sum holds one entry per (vertex, descriptor) —
the tallies, each dropped as its vertex is numbered, then the lists, which
shrink as rows are summed — and the one row being summed.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from itertools import compress, islice
from operator import eq, le, ne
from typing import Iterable

from .errors import ParseError, UnsupportedPrimitiveError
from .graph import WireEdge, disorder_error, label_error, loop_error
from .query import QueryGraph

__all__ = [
    "Descriptor",
    "EdgeKey",
    "PathKey",
    "SelectivityTable",
    "collect_stats",
    "primitive_key",
]

Descriptor = tuple[str, str, str]          # (edge_type, far_type, "out"|"in")
EdgeKey = tuple[str, str, str]             # (src_type, edge_type, dst_type)
PathKey = tuple[str, Descriptor, Descriptor]

STATS_VERSION = 1

# sample edges read, checked and counted at a time
_CHUNK = 4096


def _sum_pairs(tallies: dict[str, list[dict[Descriptor, int]]]) -> dict[PathKey, int]:
    """The 2-edge path counts of the centers whose descriptor tallies
    ``tallies`` lists by center label, one row at a time.  The tallies are
    used up."""
    counts: dict[PathKey, int] = {}
    for label, group in tallies.items():
        # d_i < d_j exactly when i < j, so an id pair (i, j) with i < j is a
        # canonical key
        descs = sorted({d for local in group for d in local})
        number = {d: i for i, d in enumerate(descs)}
        # the vertices whose least unsummed id is i, each as two flat lists:
        # its ids, descending, and their counts
        head_ids: list = [[] for _ in descs]
        head_ns: list = [[] for _ in descs]
        while group:
            local = group.pop()
            ids = sorted(map(number.__getitem__, local), reverse=True)
            head_ids[ids[-1]].append(ids)
            head_ns[ids[-1]].append([local[descs[i]] for i in ids])
        for i, d1 in enumerate(descs):
            # row i: the pairs whose first descriptor is d_i
            row: dict[int, int] = {}
            same = 0
            for ids, ns in zip(head_ids[i], head_ns[i]):
                ids.pop()
                n = ns.pop()
                same += n * (n - 1) // 2
                for j, m in zip(ids, ns):
                    row[j] = row.get(j, 0) + n * m
                if ids:
                    head_ids[ids[-1]].append(ids)
                    head_ns[ids[-1]].append(ns)
            head_ids[i] = head_ns[i] = None
            if same:
                counts[(label, d1, d1)] = same
            for j, c in row.items():
                counts[(label, d1, descs[j])] = c
    return counts


def _count(value: object, what: str, source: str | None) -> int:
    """``value`` of a stats document as a count, or a ParseError naming
    ``what``: JSON parses a count to an int, and a bool is no count."""
    if type(value) is not int or value < 0:
        raise ParseError(f"{what} must be a count (an int >= 0), not {value!r}", source=source)
    return value


def _row_key(labels: tuple, key: tuple, seen: dict, source: str | None) -> tuple:
    """``key`` of a stats row, or a ParseError when one of its ``labels`` is
    no string (JSON gives a label as one) or ``seen`` holds the key."""
    for label in labels:
        if type(label) is not str:
            raise ParseError(f"a label must be a string, not {label!r}", source=source)
    if key in seen:
        raise ParseError(f"repeated row {key!r}", source=source)
    return key


def _canonical_path_key(center_label: str, d1: Descriptor, d2: Descriptor) -> PathKey:
    if d2 < d1:
        d1, d2 = d2, d1
    return (center_label, d1, d2)


class SelectivityTable:
    """Primitive frequencies plus the totals that normalize them.

    A table built from its counts (the constructor, ``from_json``) sums its
    totals once, when it is built: build it whole from its counts, and do not
    change them afterwards.  A table from ``collect_stats`` holds the sample's
    descriptor tallies in place of its path counts (see the module
    docstring): it reads a path key off the tallies when the key is asked
    for, and sums every key into ``arity2`` when ``arity2`` is first read.
    """

    def __init__(
        self,
        sample_size: int,
        arity1: dict[EdgeKey, int] | None = None,
        arity2: dict[PathKey, int] | None = None,
    ) -> None:
        self.sample_size = sample_size
        self.arity1 = {} if arity1 is None else arity1
        # the path counts; while ``_tallies`` is held, the keys read so far
        self._arity2 = {} if arity2 is None else arity2
        self._tallies: dict[str, list[dict[Descriptor, int]]] | None = None
        self.total1 = sum(self.arity1.values())
        self.total2 = sum(self._arity2.values())

    @property
    def arity2(self) -> dict[PathKey, int]:
        if self._tallies is not None:
            self._arity2 = _sum_pairs(self._tallies)
            self._tallies = None
        return self._arity2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectivityTable):
            return NotImplemented
        mine = (self.sample_size, self.arity1, self.arity2)
        return mine == (other.sample_size, other.arity1, other.arity2)

    def _path_count(self, key: PathKey) -> int:
        counts = self._arity2
        tallies = self._tallies
        if tallies is None or key in counts:
            return counts.get(key, 0)
        label, d1, d2 = key
        group = tallies.get(label, ())
        if d1 == d2:
            # pairs within one descriptor: C(n, 2) at each center
            c = sum(n * (n - 1) for local in group if (n := local.get(d1, 0)) > 1) // 2
        elif d1 < d2:
            c = sum(local.get(d1, 0) * local.get(d2, 0) for local in group)
        else:
            c = 0  # not canonical, so never a key of the summed table
        counts[key] = c
        return c

    # ------------------------------------------------------------ selectivity

    def edge_selectivity(self, key: EdgeKey) -> float:
        total = self.total1
        if total == 0:
            return 0.0
        return self.arity1.get(key, 0) / total

    def path_selectivity(self, key: PathKey) -> float:
        total = self.total2
        if total == 0:
            return 0.0
        return self._path_count(key) / total

    def frequency(self, arity: int, key: EdgeKey | PathKey) -> int:
        if arity == 1:
            return self.arity1.get(key, 0)  # type: ignore[arg-type]
        return self._path_count(key)  # type: ignore[arg-type]

    def subgraph_selectivity(self, query: QueryGraph, edge_ids: Iterable[int]) -> float:
        """Selectivity of a 1- or 2-edge sub-pattern of ``query``."""
        arity, key = primitive_key(query, edge_ids)
        return self.edge_selectivity(key) if arity == 1 else self.path_selectivity(key)

    # ------------------------------------------------------------- persistence

    def to_json(self) -> str:
        doc = {
            "version": STATS_VERSION,
            "N": self.sample_size,
            "arity1": [
                {"src_type": s, "edge_type": e, "dst_type": d, "count": c}
                for (s, e, d), c in sorted(self.arity1.items())
            ],
            "arity2": [
                {
                    "center_type": center,
                    "d1": {"edge_type": d1[0], "far_type": d1[1], "dir": d1[2]},
                    "d2": {"edge_type": d2[0], "far_type": d2[1], "dir": d2[2]},
                    "count": c,
                }
                for (center, d1, d2), c in sorted(self.arity2.items())
            ],
            "totals": {"arity1": self.total1, "arity2": self.total2},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str | None = None) -> "SelectivityTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", source=source) from None
        if not isinstance(doc, dict):
            raise ParseError("stats document must be an object", source=source)
        for field_name in ("version", "N", "arity1", "arity2", "totals"):
            if field_name not in doc:
                raise ParseError(f"missing field {field_name!r}", source=source)
        if doc["version"] != STATS_VERSION:
            raise ParseError(
                f"unsupported stats version {doc['version']!r} (want {STATS_VERSION})",
                source=source,
            )
        arity1: dict[EdgeKey, int] = {}
        arity2: dict[PathKey, int] = {}
        try:
            for row in doc["arity1"]:
                key = (row["src_type"], row["edge_type"], row["dst_type"])
                arity1[_row_key(key, key, arity1, source)] = _count(row["count"], "row count", source)
            for row in doc["arity2"]:
                d1, d2 = ((d["edge_type"], d["far_type"], d["dir"]) for d in (row["d1"], row["d2"]))
                for d in (d1, d2):
                    if d[2] not in ("out", "in"):
                        raise ParseError(f"dir must be 'out' or 'in', not {d[2]!r}", source=source)
                center = row["center_type"]
                key2 = _row_key((center, *d1, *d2), _canonical_path_key(center, d1, d2), arity2, source)
                arity2[key2] = _count(row["count"], "row count", source)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed stats row: {exc}", source=source) from None
        table = cls(sample_size=_count(doc["N"], "N", source), arity1=arity1, arity2=arity2)
        totals = doc["totals"]
        if not isinstance(totals, dict) or "arity1" not in totals or "arity2" not in totals:
            raise ParseError("totals must carry arity1 and arity2", source=source)
        total1, total2 = (_count(totals[k], f"totals {k}", source) for k in ("arity1", "arity2"))
        if total1 != table.total1 or total2 != table.total2:
            raise ParseError("totals do not match the row sums", source=source)
        return table

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "SelectivityTable":
        with open(path, encoding="utf-8") as fp:
            try:
                return cls.from_json(fp.read(), source=path)
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: {exc}", source=path) from None


def primitive_key(query: QueryGraph, edge_ids: Iterable[int]) -> tuple[int, EdgeKey | PathKey]:
    """Canonical statistics key of a 1- or 2-edge query sub-pattern."""
    ids = sorted(edge_ids)
    if len(ids) == 1:
        e = query.edges[ids[0]]
        return 1, (query.vertex_label(e.src), e.label, query.vertex_label(e.dst))
    if len(ids) != 2:
        raise UnsupportedPrimitiveError(
            f"selectivity is defined for 1- or 2-edge primitives, got {len(ids)} edges"
        )
    e1, e2 = query.edges[ids[0]], query.edges[ids[1]]
    shared = {e1.src, e1.dst} & {e2.src, e2.dst}
    if not shared:
        raise UnsupportedPrimitiveError("2-edge primitive must share a vertex")

    def keyed_at(center: int) -> PathKey:
        descs = []
        for e in (e1, e2):
            if e.src == center:
                descs.append((e.label, query.vertex_label(e.dst), "out"))
            else:
                descs.append((e.label, query.vertex_label(e.src), "in"))
        return _canonical_path_key(query.vertex_label(center), descs[0], descs[1])

    # parallel qedges have two candidate centers; take the lexically smaller key
    return 2, min(keyed_at(c) for c in sorted(shared))


def collect_stats(records: Iterable[WireEdge]) -> SelectivityTable:
    """Build the table from a stream sample (full window, nothing expires).

    Raises what ``DynamicGraph(window=None).add_edge`` raises at the sample's
    first bad edge.  An error ``records`` raises is raised once the edges
    read before it are checked.
    """
    labels, outs, ins = _tally(records)
    arity1: dict[EdgeKey, int] = {}
    for (src, edge_type, dst_type), c in outs.items():
        key = (labels[src], edge_type, dst_type)
        arity1[key] = arity1.get(key, 0) + c
    # each vertex's descriptor tally; the role keeps a vertex's out and in
    # descriptors apart, so each is counted by one key of one tally
    tallies: dict[str, dict[Descriptor, int]] = {}
    for role, counted in (("out", outs), ("in", ins)):
        for (vid, edge_type, far_type), c in counted.items():
            local = tallies.get(vid)
            if local is None:
                tallies[vid] = {(edge_type, far_type, role): c}
            else:
                local[(edge_type, far_type, role)] = c
    # the tallies of the vertices that center a path, by label; a vertex
    # holding s descriptors centers C(s, 2) paths, whatever their keys
    groups: dict[str, list[dict[Descriptor, int]]] = {}
    total2 = 0
    for vid, local in tallies.items():
        s = sum(local.values())
        if s > 1:
            groups.setdefault(labels[vid], []).append(local)
            total2 += s * (s - 1) // 2
    # the pair sum drops each vertex's tally as it numbers it, once nothing
    # else holds the tally
    del tallies
    table = SelectivityTable(sample_size=sum(outs.values()), arity1=arity1)
    table._tallies = groups
    table.total2 = total2
    return table


def _tally(records: Iterable[WireEdge]) -> tuple[dict[str, str], Counter, Counter]:
    """Check and count ``records`` a chunk at a time: each vertex's label,
    the out tally ``(src, edge_type, dst_type)`` and the in tally ``(dst,
    edge_type, src_type)`` of the edges that are not self-loops."""
    labels: dict[str, str] = {}
    outs: Counter = Counter()
    ins: Counter = Counter()
    t_last = -math.inf
    records = iter(records)
    while True:
        chunk: list = []
        failure = None
        try:
            # extend keeps the edges read before a failure
            chunk.extend(islice(records, _CHUNK))
        except Exception as exc:
            failure = exc
        if chunk:
            ts, srcs, src_types, edge_types, dsts, dst_types = zip(*chunk, strict=True)
            # the chunk's vertices, each with its last label in the chunk
            seen = dict(zip(srcs, src_types))
            seen.update(zip(dsts, dst_types))
            if (
                t_last <= ts[0]
                and all(map(le, ts, islice(ts, 1, None)))
                and all(map(eq, map(seen.__getitem__, srcs), src_types))
                and all(map(eq, map(seen.__getitem__, dsts), dst_types))
                and all(map(eq, map(labels.get, seen, seen.values()), seen.values()))
            ):
                labels.update(seen)
            else:
                _check_edges(chunk, t_last, labels)
            t_last = ts[-1]
            outs.update(zip(srcs, edge_types, dst_types))
            ins.update(compress(zip(dsts, edge_types, src_types), map(ne, srcs, dsts)))
        if failure is not None:
            raise failure
        if len(chunk) < _CHUNK:
            return labels, outs, ins


def _check_edges(chunk: list[WireEdge], t_last: float, labels: dict[str, str]) -> None:
    """Check ``chunk`` one edge at a time, by ``add_edge``'s rules and in its
    order over a store where nothing expires, and raise its error at the
    first bad edge; ``labels`` takes each vertex as it is met."""
    for ts, src, src_type, _, dst, dst_type in chunk:
        if ts < t_last:
            raise disorder_error(ts, t_last)
        label = labels.get(src)
        if label is None:
            if src == dst and src_type != dst_type:
                raise loop_error(src, src_type, dst_type)
            labels[src] = src_type
        elif label != src_type:
            raise label_error(src, label, src_type)
        label = labels.setdefault(dst, dst_type)
        if label != dst_type:
            raise label_error(dst, label, dst_type)
        t_last = ts
