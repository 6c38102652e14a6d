"""Decomposition planning: a greedy leaf set in a cost-based left-deep order.

The leaf set comes from a greedy pass: the globally rarest primitive becomes
leaf 0, and every later leaf is the rarest primitive instance that touches
the vertices already covered (the frontier).  The expected selectivity, and
so the strategy choice, depends on that set only.

The order of the leaves after leaf 0 is then chosen by cost: a Selinger-style
DP over leaf subsets minimises the sum of the estimated stored sizes of the
spine nodes below the root, each estimate built from the table's edge and
2-path counts by the chain rule (Mhedhbi & Salihoglu's catalogue costing).
It may take a leaf that shares no vertex with the prefix, a cross join, when
the frontier would otherwise hold a large intermediate table.  The greedy
order stands unless the DP's is strictly cheaper.

Catalog modes:

* ``single`` — 1-edge primitives only;
* ``path``   — 2-edge path primitives preferred, 1-edge fallback for leftover
  isolated edges;
* ``auto``   — plan both, compare their expected selectivities, and pick the
  runtime strategy by the relative-selectivity threshold.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ContractError
from .query import QueryGraph, QueryPiece
from .sjtree import SJTree
from .stats import EdgeKey, PathKey, SelectivityTable, primitive_key

__all__ = [
    "CatalogEntry",
    "PrimitiveCatalog",
    "expected_selectivity",
    "relative_selectivity",
    "choose_strategy",
    "Plan",
    "plan_query",
    "decomposition_advisories",
    "STRATEGY_THRESHOLD",
]

STRATEGY_THRESHOLD = 1e-3

DP_MAX_LEAVES = 8

CATALOG_MODES = ("single", "path", "auto")


@dataclass(frozen=True)
class CatalogEntry:
    arity: int
    key: EdgeKey | PathKey
    selectivity: float


class PrimitiveCatalog:
    """The primitive templates present in one query, cheapest-to-match first.

    Entries are sorted ascending by selectivity with a lexicographic key
    tie-break; in path mode every 2-edge template sorts before any 1-edge
    fallback template.
    """

    def __init__(self, mode: str, entries: list[CatalogEntry], unseen: list[CatalogEntry]):
        if mode not in ("single", "path"):
            raise ValueError(f"bad catalog mode {mode!r}")
        self.mode = mode
        self.entries = entries
        self.unseen = unseen  # entries with zero observed frequency (advisory)

    @classmethod
    def from_query(cls, query: QueryGraph, table: SelectivityTable, mode: str) -> "PrimitiveCatalog":
        keys1: set[EdgeKey] = set()
        keys2: set[PathKey] = set()
        for qe in range(query.n_edges):
            keys1.add(primitive_key(query, [qe])[1])  # type: ignore[arg-type]
        if mode == "path":
            for qe1 in range(query.n_edges):
                e1 = query.edges[qe1]
                for qe2 in range(qe1 + 1, query.n_edges):
                    e2 = query.edges[qe2]
                    if {e1.src, e1.dst} & {e2.src, e2.dst}:
                        keys2.add(primitive_key(query, [qe1, qe2])[1])  # type: ignore[arg-type]

        def order(entries: Iterable[CatalogEntry]) -> list[CatalogEntry]:
            return sorted(entries, key=lambda c: (c.selectivity, repr(c.key)))

        tier2 = order(CatalogEntry(2, k, table.path_selectivity(k)) for k in keys2)
        tier1 = order(CatalogEntry(1, k, table.edge_selectivity(k)) for k in keys1)
        entries = tier2 + tier1 if mode == "path" else tier1
        unseen = [c for c in entries if c.selectivity == 0.0]
        return cls(mode, entries, unseen)


def _instances(query: QueryGraph, entry: CatalogEntry, remaining: set[int]) -> list[tuple[int, ...]]:
    """All instances of a catalog template among the remaining qedges, sorted."""
    found: list[tuple[int, ...]] = []
    if entry.arity == 1:
        for qe in sorted(remaining):
            if primitive_key(query, [qe])[1] == entry.key:
                found.append((qe,))
        return found
    rem = sorted(remaining)
    for i, qe1 in enumerate(rem):
        e1 = query.edges[qe1]
        for qe2 in rem[i + 1:]:
            e2 = query.edges[qe2]
            if not ({e1.src, e1.dst} & {e2.src, e2.dst}):
                continue
            if primitive_key(query, [qe1, qe2])[1] == entry.key:
                found.append((qe1, qe2))
    return found


def _greedy_tree(query: QueryGraph, catalog: PrimitiveCatalog) -> SJTree:
    """The greedy leaf set, left-deep in extraction order.

    Leaf 0 is the globally rarest primitive instance; each later leaf is the
    rarest instance touching the covered vertices, or the rarest left when
    none does.  Deterministic: same query and catalog, same tree.
    """
    remaining = set(range(query.n_edges))
    frontier: dict[int, None] = {}  # ordered set of covered qvertices
    pieces: list[QueryPiece] = []

    def touches_frontier(inst: tuple[int, ...]) -> bool:
        for qe in inst:
            e = query.edges[qe]
            if e.src in frontier or e.dst in frontier:
                return True
        return False

    while remaining:
        chosen: tuple[int, ...] | None = None
        if frontier:
            for entry in catalog.entries:
                cands = [i for i in _instances(query, entry, remaining) if touches_frontier(i)]
                if cands:
                    chosen = cands[0]
                    break
        if chosen is None:
            # first leaf, or nothing touches the frontier: global rarest pick
            for entry in catalog.entries:
                cands = _instances(query, entry, remaining)
                if cands:
                    chosen = cands[0]
                    break
        if chosen is None:
            raise ContractError("catalog does not cover the query")  # unreachable by construction
        piece = QueryPiece.from_edges(query, chosen)
        pieces.append(piece)
        remaining -= piece.edges
        for qv in sorted(piece.vertices):
            frontier.setdefault(qv)
    return SJTree.from_leaf_pieces(query, pieces)


class _SpineCost:
    """Estimated stored cardinalities of a left-deep spine, from the table.

    ``factor(i, mask)`` is the multiplier leaf ``i`` applies to the estimate
    of the prefix made of the leaves in bitmask ``mask``.  Each of the leaf's
    edges is added in turn by the chain rule: an edge meeting the covered
    vertices at ``w`` multiplies by (2-path count of it with a covered edge
    ``f`` through ``w``) / (count of ``f``), taking the least such ratio when
    several ``(w, f)`` qualify.  A leaf that shares no vertex with the prefix
    is a cross join and multiplies by its own count.  Every count is floored
    at 1, so a 2-path the sample never saw cannot make the rest of an order
    look free.  A factor depends only on the prefix's leaf set, never on its
    order, which is what makes the subset DP in ``best_order`` exact.
    """

    def __init__(self, query: QueryGraph, pieces: list[QueryPiece], table: SelectivityTable):
        self.query = query
        self.pieces = pieces
        self.count1 = [
            max(table.frequency(*primitive_key(query, [qe])), 1) for qe in range(query.n_edges)
        ]
        self.count2: dict[tuple[int, int], int] = {}
        for a in range(query.n_edges):
            ea = query.edges[a]
            for b in range(a + 1, query.n_edges):
                eb = query.edges[b]
                if {ea.src, ea.dst} & {eb.src, eb.dst}:
                    self.count2[(a, b)] = max(table.frequency(*primitive_key(query, [a, b])), 1)
        self.own = [max(table.frequency(*primitive_key(query, p.edges)), 1) for p in pieces]

    def factor(self, i: int, mask: int) -> float:
        piece = self.pieces[i]
        covered_edges = [qe for j, p in enumerate(self.pieces) if mask >> j & 1 for qe in p.edges]
        covered_verts = {v for j, p in enumerate(self.pieces) if mask >> j & 1 for v in p.vertices}
        if not (piece.vertices & covered_verts):
            return float(self.own[i])
        got = 1.0
        todo = sorted(piece.edges)
        while todo:
            # an edge meeting the covered vertices first (a 2-edge leaf
            # always has one once its first edge is covered)
            e = next(qe for qe in todo if self._ends(qe) & covered_verts)
            todo.remove(e)
            got *= min(
                self.count2[min(f, e), max(f, e)] / self.count1[f]
                for f in covered_edges
                if self._ends(f) & self._ends(e) & covered_verts
            )
            covered_edges.append(e)
            covered_verts |= self._ends(e)
        return got

    def _ends(self, qe: int) -> set[int]:
        e = self.query.edges[qe]
        return {e.src, e.dst}

    def sizes(self, order: list[int]) -> list[float]:
        """Estimated size of each spine node of ``order``: leaf 0 up to the root."""
        est = [float(self.own[order[0]])]
        mask = 1 << order[0]
        for i in order[1:]:
            est.append(est[-1] * self.factor(i, mask))
            mask |= 1 << i
        return est

    def best_order(self) -> list[int]:
        """Leaf 0 then the order minimising the sum of ``sizes`` below the root.

        Selinger-style DP over the leaf subsets holding leaf 0.  Since factors
        depend only on the prefix set, the cost still to come after a prefix
        ``S`` with estimate ``x`` is ``x * G(S)`` whatever order built ``S``,
        with ``G(S) = min_i factor(i, S) * (1 + G(S + i))`` and ``G = 0`` once
        one leaf (the root's right child) is left.  Ties keep the lower leaf.
        """
        k = len(self.pieces)
        best: dict[int, tuple[float, list[int]]] = {}

        def g(mask: int) -> tuple[float, list[int]]:
            if mask in best:
                return best[mask]
            rest = [i for i in range(k) if not mask >> i & 1]
            if len(rest) <= 1:
                out = (0.0, rest)
            else:
                out = (math.inf, [])
                for i in rest:
                    tail, order = g(mask | 1 << i)
                    cost = self.factor(i, mask) * (1.0 + tail)
                    if cost < out[0]:
                        out = (cost, [i] + order)
            best[mask] = out
            return out

        return [0] + g(1)[1]


def _cheapest_order(tree: SJTree, table: SelectivityTable) -> tuple[SJTree, list[float]]:
    """``tree``'s leaves in their cheapest left-deep order, with its estimates.

    Leaf 0 and the leaf set stay; the rest keep their order unless the DP's
    order costs strictly less (beyond float rounding), the cost being the sum
    of the estimated spine sizes below the root.  Past ``DP_MAX_LEAVES``
    leaves the DP's 2^(k-1) subsets cost more than planning should, and the
    greedy order stands.
    """
    pieces = [leaf.piece for leaf in tree.leaves()]
    spine = _SpineCost(tree.query, pieces, table)
    sizes = spine.sizes(list(range(len(pieces))))
    if 2 < len(pieces) <= DP_MAX_LEAVES:
        order = spine.best_order()
        dp_sizes = spine.sizes(order)
        if sum(dp_sizes[:-1]) < sum(sizes[:-1]) * (1.0 - 1e-9):
            return SJTree.from_leaf_pieces(tree.query, [pieces[i] for i in order]), dp_sizes
    return tree, sizes


def expected_selectivity(tree: SJTree, table: SelectivityTable) -> float:
    """Product of the leaf primitive selectivities."""
    prod = 1.0
    for leaf in tree.leaves():
        prod *= table.subgraph_selectivity(tree.query, leaf.piece.edges)
    return prod


def relative_selectivity(tree: SJTree, single_tree: SJTree, table: SelectivityTable) -> float:
    """Expected selectivity of ``tree`` relative to the 1-edge decomposition.

    A zero baseline means the query uses an edge pattern the sample never
    produced; no decomposition can then be distinguished on the evidence, so
    the ratio defaults to 1.0 (callers warn about the unseen primitive).
    """
    base = expected_selectivity(single_tree, table)
    if base == 0.0:
        return 1.0
    return expected_selectivity(tree, table) / base


def choose_strategy(xi: float, threshold: float = STRATEGY_THRESHOLD) -> str:
    """PathLazy below the relative-selectivity threshold, SingleLazy otherwise."""
    if math.isnan(xi) or xi < 0.0:
        raise ValueError(f"bad relative selectivity {xi!r}")
    return "PathLazy" if xi < threshold else "SingleLazy"


@dataclass
class Plan:
    """A planned decomposition plus the metrics that justified it.

    ``estimated_sizes`` is the cost model's bet on each spine node, leaf 0 up
    to the root, in sample-count units (see ``_SpineCost``).
    """

    tree: SJTree
    catalog_mode: str
    strategy: str
    expected: float
    relative: float
    candidates: dict[str, dict[str, float]]
    warnings: list[str]
    estimated_sizes: list[float]

    def sidecar_json(self) -> str:
        doc = {
            "expected_selectivity": self.expected,
            "relative_selectivity": self.relative,
            "strategy": self.strategy,
            "catalog_mode": self.catalog_mode,
            "estimated_sizes": self.estimated_sizes,
        }
        if self.candidates:
            doc["candidates"] = self.candidates
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_query(query: QueryGraph, table: SelectivityTable, mode: str = "auto") -> Plan:
    """Plan a query under the requested catalog mode.

    ``single`` and ``path`` force the decomposition family (recommending the
    matching lazy strategy); ``auto`` builds both and chooses by threshold.
    The selectivities are read off the greedy trees; only the chosen tree's
    leaves are then put in their cheapest order, which leaves them unchanged.
    """
    if mode not in CATALOG_MODES:
        raise ValueError(f"bad catalog mode {mode!r}; want one of {CATALOG_MODES}")
    warnings: list[str] = []

    single_cat = PrimitiveCatalog.from_query(query, table, "single")
    tree = _greedy_tree(query, single_cat)
    expected = expected_selectivity(tree, table)
    xi = 1.0
    metrics = {"single": {"expected_selectivity": expected, "relative_selectivity": xi}}
    catalogs = [single_cat]
    strategy = "SingleLazy"

    if mode != "single":
        path_cat = PrimitiveCatalog.from_query(query, table, "path")
        catalogs.append(path_cat)
        path_tree = _greedy_tree(query, path_cat)
        s_path = expected_selectivity(path_tree, table)
        xi = relative_selectivity(path_tree, tree, table)
        metrics["path"] = {"expected_selectivity": s_path, "relative_selectivity": xi}
        strategy = "PathLazy" if mode == "path" else choose_strategy(xi)
        if strategy == "PathLazy":
            tree, expected = path_tree, s_path

    for cat in catalogs:
        for entry in cat.unseen:
            warnings.append(f"primitive {entry.key!r} was never observed in the sample")
    tree, sizes = _cheapest_order(tree, table)
    return Plan(tree, mode, strategy, expected, xi, metrics, warnings, sizes)


def decomposition_advisories(
    tree: SJTree, table: SelectivityTable, mean_degree: float | None
) -> list[str]:
    """Flag multi-edge leaves built from far more frequent single edges.

    When a 1-edge sub-pattern's frequency exceeds
    ``frequency(leaf) / (mean_degree * |V(leaf)|)``, most arrivals of that
    common label trigger a pair search that fails to complete, so the coarser
    primitive's matching cost is carried by its commonest constituent.
    Advisory only; needs the data graph's mean degree, which frequency tables
    alone do not carry.
    """
    if mean_degree is None or mean_degree <= 0:
        return []
    notes: list[str] = []
    for leaf in tree.leaves():
        if len(leaf.piece.edges) < 2:
            continue
        arity, key = primitive_key(tree.query, leaf.piece.edges)
        leaf_freq = table.frequency(arity, key)
        bound = leaf_freq / (mean_degree * len(leaf.piece.vertices))
        for qe in sorted(leaf.piece.edges):
            sub_arity, sub_key = primitive_key(tree.query, [qe])
            if table.frequency(sub_arity, sub_key) > bound:
                notes.append(
                    f"leaf {leaf.leaf_index}: sub-primitive {sub_key!r} is more frequent "
                    f"({table.frequency(sub_arity, sub_key)}) than the leaf bound ({bound:.1f})"
                )
    return notes
