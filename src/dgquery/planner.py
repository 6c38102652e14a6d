"""Greedy decomposition planning driven by primitive selectivities.

The planner peels search primitives off the query one at a time: the globally
rarest primitive becomes leaf 0, and every later leaf is the rarest primitive
instance that touches the vertices already covered (the frontier), so partial
matches stay joinable through shared vertices.  Rarest-first ordering keeps
the intermediate match tables small: the first join's cardinality tracks the
product of the two smallest frequencies.

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
    "build_sj_tree",
    "expected_selectivity",
    "relative_selectivity",
    "choose_strategy",
    "Plan",
    "plan_query",
    "decomposition_advisories",
    "STRATEGY_THRESHOLD",
]

STRATEGY_THRESHOLD = 1e-3

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


def build_sj_tree(query: QueryGraph, catalog: PrimitiveCatalog) -> SJTree:
    """Left-deep tree via greedy rarest-first extraction.

    Deterministic: same query and catalog always give the identical tree.
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
    """A planned decomposition plus the metrics that justified it."""

    tree: SJTree
    catalog_mode: str
    strategy: str
    expected: float
    relative: float
    candidates: dict[str, dict[str, float]]
    warnings: list[str]

    def sidecar_json(self) -> str:
        doc = {
            "expected_selectivity": self.expected,
            "relative_selectivity": self.relative,
            "strategy": self.strategy,
            "catalog_mode": self.catalog_mode,
        }
        if self.candidates:
            doc["candidates"] = self.candidates
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_query(query: QueryGraph, table: SelectivityTable, mode: str = "auto") -> Plan:
    """Plan a query under the requested catalog mode.

    ``single`` and ``path`` force the decomposition family (recommending the
    matching lazy strategy); ``auto`` builds both and chooses by threshold.
    """
    if mode not in CATALOG_MODES:
        raise ValueError(f"bad catalog mode {mode!r}; want one of {CATALOG_MODES}")
    warnings: list[str] = []

    single_cat = PrimitiveCatalog.from_query(query, table, "single")
    single_tree = build_sj_tree(query, single_cat)
    metrics: dict[str, dict[str, float]] = {}
    s_single = expected_selectivity(single_tree, table)
    metrics["single"] = {"expected_selectivity": s_single, "relative_selectivity": 1.0}

    path_tree = None
    if mode in ("path", "auto"):
        path_cat = PrimitiveCatalog.from_query(query, table, "path")
        path_tree = build_sj_tree(query, path_cat)
        for cat in (single_cat, path_cat):
            for entry in cat.unseen:
                warnings.append(f"primitive {entry.key!r} was never observed in the sample")
        xi_path = relative_selectivity(path_tree, single_tree, table)
        metrics["path"] = {
            "expected_selectivity": expected_selectivity(path_tree, table),
            "relative_selectivity": xi_path,
        }
    else:
        for entry in single_cat.unseen:
            warnings.append(f"primitive {entry.key!r} was never observed in the sample")

    if mode == "single":
        return Plan(single_tree, mode, "SingleLazy", s_single, 1.0, metrics, warnings)
    if mode == "path":
        assert path_tree is not None
        return Plan(
            path_tree,
            mode,
            "PathLazy",
            metrics["path"]["expected_selectivity"],
            metrics["path"]["relative_selectivity"],
            metrics,
            warnings,
        )
    assert path_tree is not None
    xi = metrics["path"]["relative_selectivity"]
    strategy = choose_strategy(xi)
    if strategy == "PathLazy":
        return Plan(path_tree, mode, strategy,
                    metrics["path"]["expected_selectivity"], xi, metrics, warnings)
    return Plan(single_tree, mode, strategy, s_single, xi, metrics, warnings)


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
