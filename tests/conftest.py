"""Shared helpers for the test suite.

Everything here is deterministic: randomized tests take an explicit seed and
build their own ``random.Random``.
"""
from __future__ import annotations

from random import Random

import pytest

from dgquery import engine as engine_module
from dgquery.baseline import DeltaOracle, RescanEngine
from dgquery.engine import Engine
from dgquery.graph import DynamicGraph, RawEdge
from dgquery.planner import plan_query
from dgquery.query import Match, QueryGraph, parse_query
from dgquery.stats import collect_stats


def q(text: str) -> QueryGraph:
    """Parse a query from inline text."""
    return parse_query(text)


def path_query(edge_labels: list[str], vertex_label: str = "ip") -> QueryGraph:
    """n-edge directed path v0 -> v1 -> ... -> vn."""
    lines = [f"node {i} {vertex_label}" for i in range(len(edge_labels) + 1)]
    lines += [
        f"edge {i} {i} {i + 1} {label}" for i, label in enumerate(edge_labels)
    ]
    return parse_query("\n".join(lines))


def raw(
    ts: int,
    src: str,
    edge_type: str,
    dst: str,
    src_type: str = "A",
    dst_type: str = "A",
) -> RawEdge:
    """RawEdge with the label fields defaulted, in a readable argument order."""
    return RawEdge(ts, src, src_type, edge_type, dst, dst_type)


def signatures(matches) -> set[tuple[tuple[int, int], ...]]:
    return {m.pairs for m in matches}


def stored_form(m: Match) -> tuple:
    """``m`` as the join tree holds it: one flat (t_min, *edges, *verts) tuple."""
    return (m.t_min, *m.edges, *m.verts)


def plan_facts(plan) -> tuple:
    """What a ``Plan`` says: its plan text, strategy, selectivities, the
    candidates they were chosen from, its warnings and estimated sizes."""
    return (
        plan.tree.serialize(),
        plan.catalog_mode,
        plan.strategy,
        plan.expected,
        plan.relative,
        plan.candidates,
        plan.warnings,
        plan.estimated_sizes,
    )


def live_records(graph: DynamicGraph) -> list[RawEdge]:
    """``graph``'s live edges as the stream elements that made them, in
    arrival order."""
    return [
        RawEdge(ts, src, src_type, edge_type, dst, dst_type)
        for _, src, dst, src_type, dst_type, edge_type, ts in graph.live_edges()
    ]


def engines_for(query, records, window, *, lazy_only: bool = False):
    """Fresh (name, engine) pairs for every strategy, planned from ``records``."""
    table = collect_stats(records)
    single = plan_query(query, table, mode="single")
    path = plan_query(query, table, mode="path")
    out = [
        ("singlelazy", Engine(query, single.tree, window, lazy=True)),
        ("pathlazy", Engine(query, path.tree, window, lazy=True)),
    ]
    if not lazy_only:
        table2 = collect_stats(records)
        single2 = plan_query(query, table2, mode="single")
        path2 = plan_query(query, table2, mode="path")
        out += [
            ("single", Engine(query, single2.tree, window)),
            ("path", Engine(query, path2.tree, window)),
        ]
    return out


def cross_check(query, records, window, *, with_vf2: bool = True) -> dict[str, int]:
    """Run every engine step-for-step against the brute-force delta oracle,
    and check each emitted match's ``t_min``/``t_max`` against its edges.

    Returns per-strategy ``match_calls`` counters so callers can also compare
    search effort.  Raises AssertionError on the first per-step disagreement.
    """
    engines = engines_for(query, records, window)
    if with_vf2:
        engines.append(("vf2", RescanEngine(query, window)))
    oracle = DeltaOracle(query)
    shadow = DynamicGraph(window)
    timestamp: dict[int, int] = {}  # data edge id -> its timestamp
    for step, r in enumerate(records):
        rec = shadow.add_edge(r)
        timestamp[rec[0]] = rec[6]
        expected = oracle.step(shadow, rec)
        for name, eng in engines:
            delta = eng.process(r)
            got = signatures(delta)
            assert got == expected, (
                f"{name} disagrees with the oracle at step {step}: "
                f"missing={expected - got} extra={got - expected}"
            )
            assert len(delta) == len(got), f"{name} emits a match twice at step {step}"
            for m in delta:
                times = [timestamp[e] for e in m.edges]
                assert (m.t_min, m.t_max) == (min(times), max(times)), (
                    f"{name} misstates the time span of {m} at step {step}"
                )
    calls: dict[str, int] = {}
    for name, eng in engines:
        if hasattr(eng, "counters") and hasattr(eng.counters, "match_calls"):
            calls[name] = eng.counters.match_calls
    return calls


def watch_searches(monkeypatch, eng: Engine) -> list[tuple[int, int]]:
    """Record every primitive search ``eng`` runs from now on, as (leaf
    index, anchor edge id), in the order they run.  Calls stack: each
    engine watched gets its own list."""
    searches: list[tuple[int, int]] = []
    leaf_of = {id(plan): i for i, plan in enumerate(eng._plans)}
    search = engine_module.match_primitive

    def watched(graph, plan, anchor):
        if graph is eng.graph:
            searches.append((leaf_of[id(plan)], anchor[0]))
        return search(graph, plan, anchor)

    monkeypatch.setattr(engine_module, "match_primitive", watched)
    return searches


@pytest.fixture
def rng() -> Random:
    return Random(0xD6)
