"""Strategy factory and benchmark harness.

``make_engine`` is the one place a strategy name becomes an engine: the
rescan baseline for ``vf2``, otherwise a planned ``Engine``.  The harness
runs one stream under several strategies, and every strategy must emit the
same set of match signatures; a disagreement is a :class:`MismatchError`,
which the command line surfaces as its own exit code.  Timing uses
``time.perf_counter`` around the ingest loop only (graph and tree
construction are excluded).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .baseline import RescanEngine
from .engine import Engine
from .errors import ContractError, MismatchError
from .graph import WireEdge
from .planner import Plan, plan_query
from .query import QueryGraph
from .stats import SelectivityTable

__all__ = ["STRATEGIES", "BenchReport", "make_engine", "run_strategy", "run_sweep", "bin_reports"]

STRATEGIES = ("single", "singlelazy", "path", "pathlazy", "vf2")

REPORT_FIELDS = (
    "strategy",
    "edges",
    "wall_ms",
    "edges_per_sec",
    "emitted",
    "match_calls",
    "peak_stored",
    "expected_selectivity",
    "relative_selectivity",
)


@dataclass
class BenchReport:
    strategy: str
    edges: int
    wall_ms: float
    edges_per_sec: float
    emitted: int
    match_calls: int | None = None
    peak_stored: int | None = None
    expected_selectivity: float | None = None
    relative_selectivity: float | None = None

    def row(self) -> list[str]:
        out: list[str] = []
        for name in REPORT_FIELDS:
            v = getattr(self, name)
            if v is None:
                out.append("-")
            elif isinstance(v, float):
                out.append(f"{v:.6g}")
            else:
                out.append(str(v))
        return out


def make_engine(
    strategy: str,
    query: QueryGraph,
    window: int | None,
    table: SelectivityTable | None,
) -> tuple[Engine | RescanEngine, Plan | None, str]:
    """Build the engine for ``auto`` or any name in ``STRATEGIES``.

    Returns the engine, its plan (None for ``vf2``) and the resolved strategy
    name: ``auto`` resolves to the planner's choice.  ``vf2`` plans nothing,
    so its ``table`` may be None.
    """
    if strategy == "vf2":
        return RescanEngine(query, window), None, strategy
    if strategy == "auto":
        plan = plan_query(query, table, mode="auto")
        strategy = plan.strategy.lower()
    elif strategy in STRATEGIES:
        plan = plan_query(query, table, mode="path" if strategy.startswith("path") else "single")
    else:
        raise ContractError(f"unknown strategy {strategy!r}")
    return Engine(query, plan.tree, window, lazy=strategy.endswith("lazy")), plan, strategy


def run_strategy(
    strategy: str,
    query: QueryGraph,
    records: Sequence[WireEdge],
    window: int | None,
    table: SelectivityTable,
) -> tuple[BenchReport, set]:
    """Run one strategy; return its report and the signatures ``process``
    returned.  The report leaves ξ out: :func:`run_sweep` fills it in."""
    eng, plan, _ = make_engine(strategy, query, window, table)
    start = time.perf_counter()
    deltas = [eng.process(raw) for raw in records]
    wall = time.perf_counter() - start
    report = BenchReport(
        strategy=strategy,
        edges=len(records),
        wall_ms=wall * 1000.0,
        edges_per_sec=len(records) / wall if wall > 0 else float("inf"),
        emitted=eng.counters.emitted,
    )
    if plan is not None:
        report.match_calls = eng.counters.match_calls
        report.peak_stored = eng.tree.peak_stored
        report.expected_selectivity = plan.expected
    return report, {m.pairs for delta in deltas for m in delta}


def run_sweep(
    query: QueryGraph,
    records: Sequence[WireEdge],
    window: int | None,
    strategies: Iterable[str],
    table: SelectivityTable,
) -> list[BenchReport]:
    """Run several strategies and require signature-identical results.

    Every planned row reports the query's ξ, the relative selectivity of its
    ``auto`` plan, which weighs the path catalog against the single-edge
    one: a single-mode plan's own is 1 by definition."""
    reports: list[BenchReport] = []
    sigs: dict[str, set] = {}
    for strategy in strategies:
        report, got = run_strategy(strategy, query, records, window, table)
        reports.append(report)
        sigs[strategy] = got
    names = list(sigs)
    baseline = sigs[names[0]]
    for name in names[1:]:
        if sigs[name] != baseline:
            missing = len(baseline - sigs[name])
            extra = len(sigs[name] - baseline)
            raise MismatchError(
                f"strategy {name!r} disagrees with {names[0]!r}: "
                f"{missing} missing, {extra} extra matches"
            )
    planned = [r for r in reports if r.match_calls is not None]
    if planned:
        xi = plan_query(query, table, mode="auto").relative
        for r in planned:
            r.relative_selectivity = xi
    return reports


def bin_reports(values: Sequence[float], bins: int) -> list[int]:
    """Assign each relative-selectivity value to a log-spaced bin index.

    Bin 0 holds the smallest values.  All-equal inputs land in the last bin.
    """
    import math

    if bins < 1:
        raise ContractError("need at least one bin")
    if not values:
        return []
    logs = [math.log10(v) if v > 0 else float("-inf") for v in values]
    finite = [x for x in logs if x != float("-inf")]
    if not finite:
        return [0 for _ in values]
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out: list[int] = []
    for x in logs:
        if x == float("-inf"):
            out.append(0)
        elif span == 0:
            out.append(bins - 1)
        else:
            out.append(min(bins - 1, int((x - lo) / span * bins)))
    return out
