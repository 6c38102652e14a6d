"""Decomposition planning: a greedy leaf set in a cost-based left-deep order.

Each decomposition family ranks every primitive instance in the query, a
tuple of qedge ids, cheapest first: by selectivity, then ``repr`` of its
statistics key, then its qedges.  The leaf set comes from one greedy pass
over that list: leaf 0 is the first instance, and every later leaf is the
first instance whose qedges are all still free and that touches a covered
qvertex, or the first free instance when none does.  The expected
selectivity, and so the strategy choice, depends on that set only.

The order of the leaves after leaf 0 is then chosen by cost: a Selinger-style
DP over leaf subsets minimises the sum of the estimated stored sizes of the
spine nodes below the root, each estimate built from the table's edge and
2-path counts by the chain rule (Mhedhbi & Salihoglu's catalogue costing).
It may take a leaf that shares no vertex with the prefix, a cross join, when
the frontier would otherwise hold a large intermediate table.  Among orders
of equal cost it keeps the lower leaf at each step; past ``DP_MAX_LEAVES``
leaves the greedy order stands.

Catalog modes:

* ``single`` — the 1-edge instances only;
* ``path``   — every 2-edge path instance ranks before any 1-edge instance,
  which is left as the fallback for isolated edges;
* ``auto``   — plan both, compare their expected selectivities, and pick the
  runtime strategy by the relative-selectivity threshold.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .query import QueryGraph, QueryPiece
from .sjtree import SJTree
from .stats import EdgeKey, PathKey, SelectivityTable, primitive_key

__all__ = [
    "choose_strategy",
    "Plan",
    "plan_query",
    "decomposition_advisories",
    "STRATEGY_THRESHOLD",
]

STRATEGY_THRESHOLD = 1e-3

DP_MAX_LEAVES = 8

CATALOG_MODES = ("single", "path", "auto")

# a ranked primitive instance: (selectivity, repr(key), qedges, key)
_Ranked = tuple[float, str, tuple[int, ...], EdgeKey | PathKey]


def _adjacent_pairs(query: QueryGraph) -> list[tuple[int, int]]:
    """Every qedge pair ``(a, b)``, ``a < b``, sharing a qvertex, sorted."""
    ends = [{e.src, e.dst} for e in query.edges]
    return [
        (a, b)
        for a in range(query.n_edges)
        for b in range(a + 1, query.n_edges)
        if ends[a] & ends[b]
    ]


def _ranked(
    query: QueryGraph, table: SelectivityTable, instances: list[tuple[int, ...]]
) -> list[_Ranked]:
    """``instances`` cheapest first: by selectivity, ``repr(key)``, qedges."""
    ranked = []
    for qedges in instances:
        arity, key = primitive_key(query, qedges)
        ranked.append((table.selectivity(arity, key), repr(key), qedges, key))
    ranked.sort(key=lambda r: r[:3])
    return ranked


def _greedy_pieces(query: QueryGraph, ranked: list[_Ranked]) -> list[QueryPiece]:
    """The greedy leaf set over a ranked list, in extraction order: each leaf
    is the first instance whose qedges are all free and that touches a
    covered qvertex, or the first free instance when none does."""
    pieces = [QueryPiece.from_edges(query, qedges) for _, _, qedges, _ in ranked]
    free = set(range(query.n_edges))
    covered: frozenset[int] = frozenset()
    chosen: list[QueryPiece] = []
    while free:
        usable = [p for p in pieces if p.edges <= free]
        # every free qedge is a 1-edge instance of its own, so usable is never empty
        piece = next((p for p in usable if p.vertices & covered), usable[0])
        chosen.append(piece)
        free -= piece.edges
        covered |= piece.vertices
    return chosen


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
        self.count2 = {
            pair: max(table.frequency(*primitive_key(query, pair)), 1)
            for pair in _adjacent_pairs(query)
        }
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


def _cheapest_order(
    query: QueryGraph, pieces: list[QueryPiece], table: SelectivityTable
) -> tuple[list[QueryPiece], list[float]]:
    """``pieces`` in their cheapest left-deep order, with its estimates.

    Leaf 0 and the leaf set stay; the rest take ``best_order``'s order, which
    minimises the sum of the estimated spine sizes below the root and keeps
    the lower leaf on a tie.  Past ``DP_MAX_LEAVES`` leaves the DP's 2^(k-1)
    subsets cost more than planning should, and the greedy order stands.
    """
    spine = _SpineCost(query, pieces, table)
    order = spine.best_order() if len(pieces) <= DP_MAX_LEAVES else list(range(len(pieces)))
    return [pieces[i] for i in order], spine.sizes(order)


def _expected_selectivity(query: QueryGraph, pieces: list[QueryPiece], table: SelectivityTable) -> float:
    """Product of the leaf primitive selectivities."""
    prod = 1.0
    for piece in pieces:
        prod *= table.selectivity(*primitive_key(query, piece.edges))
    return prod


def choose_strategy(xi: float) -> str:
    """PathLazy below the relative-selectivity threshold, SingleLazy otherwise."""
    if math.isnan(xi) or xi < 0.0:
        raise ValueError(f"bad relative selectivity {xi!r}")
    return "PathLazy" if xi < STRATEGY_THRESHOLD else "SingleLazy"


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
            "candidates": self.candidates,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_query(query: QueryGraph, table: SelectivityTable, mode: str = "auto") -> Plan:
    """Plan a query under the requested catalog mode.

    ``single`` and ``path`` force the decomposition family (recommending the
    matching lazy strategy); ``auto`` plans both and chooses by threshold.
    The selectivities are read off the greedy leaf sets; only the chosen set
    is then put in its cheapest order, which leaves them unchanged.
    """
    if mode not in CATALOG_MODES:
        raise ValueError(f"bad catalog mode {mode!r}; want one of {CATALOG_MODES}")
    single = _ranked(query, table, [(qe,) for qe in range(query.n_edges)])
    ranked = single
    pieces = _greedy_pieces(query, single)
    expected = _expected_selectivity(query, pieces, table)
    xi = 1.0
    metrics = {"single": {"expected_selectivity": expected, "relative_selectivity": xi}}
    strategy = "SingleLazy"

    if mode != "single":
        pairs = _ranked(query, table, _adjacent_pairs(query))
        ranked = single + pairs
        path_pieces = _greedy_pieces(query, pairs + single)
        s_path = _expected_selectivity(query, path_pieces, table)
        # a zero baseline means the query uses an edge pattern the sample
        # never produced: no decomposition can then be told apart on the
        # evidence, so the ratio is neutral (and the warnings name the edge)
        xi = s_path / expected if expected else 1.0
        metrics["path"] = {"expected_selectivity": s_path, "relative_selectivity": xi}
        strategy = "PathLazy" if mode == "path" else choose_strategy(xi)
        if strategy == "PathLazy":
            pieces, expected = path_pieces, s_path

    unseen = dict.fromkeys(key for sel, _, _, key in ranked if sel == 0.0)
    warnings = [f"primitive {key!r} was never observed in the sample" for key in unseen]
    pieces, sizes = _cheapest_order(query, pieces, table)
    tree = SJTree.from_leaf_pieces(query, pieces)
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
        leaf_freq = table.frequency(*primitive_key(tree.query, leaf.piece.edges))
        bound = leaf_freq / (mean_degree * len(leaf.piece.vertices))
        for qe in sorted(leaf.piece.edges):
            sub_arity, sub_key = primitive_key(tree.query, [qe])
            if table.frequency(sub_arity, sub_key) > bound:
                notes.append(
                    f"leaf {leaf.leaf_index}: sub-primitive {sub_key!r} is more frequent "
                    f"({table.frequency(sub_arity, sub_key)}) than the leaf bound ({bound:.1f})"
                )
    return notes
