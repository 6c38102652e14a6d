"""The benchmark's seed-301 streams, replayed as the benchmark sets them up,
plan from fixed selectivity tables, end in fixed engine counters and graph
sizes and emit fixed matches.

The counters are deterministic, so a change that should only make the engine
faster must leave every one of them as it is.  The emissions are pinned by
the benchmark's own digest: ``emission_digest`` of each edge's matches, 0
for none, hashed over the stream as a replay hashes them.  The workloads
and the digest come from ``perfbench/workloads.py`` and
``perfbench/reference.py``, loaded as they are; each replay follows the
benchmark's set-up: statistics over the stream's sample prefix,
``plan_query(mode="auto")`` and ``Engine(lazy=True)``.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from array import array
from pathlib import Path

import pytest

from dgquery.engine import Engine
from dgquery.graph import parse_edge_line
from dgquery.planner import plan_query
from dgquery.stats import SelectivityTable, collect_stats

from conftest import plan_facts

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(module: str):
    name = f"perfbench_{module}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{module}.py")
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded  # dataclasses look their module up there
        spec.loader.exec_module(loaded)
    return sys.modules[name]


def load_workloads() -> dict:
    return load_perfbench("workloads").WORKLOADS


# the auto-mode plan each replay runs: its plan text and strategy
PLAN_301 = {
    "netflow-path4": ("sjtree\nleaf 0\nleaf 3\nleaf 2\nleaf 1\n", "SingleLazy"),
    "social-fanout": ("sjtree\nleaf 2\nleaf 0\nleaf 1\n", "SingleLazy"),
    "lowxi-chain": ("sjtree\nleaf 0 1\n", "PathLazy"),
}


# edges, match_calls, emitted, purged, peak_stored, stored_count
SEED_301 = {
    "netflow-path4": (50_000, 1_769, 1_749, 2_963, 3_393, 1_695),
    "social-fanout": (25_000, 18_319, 73_392, 325, 834, 773),
    "lowxi-chain": (100_000, 100_000, 299, 0, 0, 0),
}


# the engine's graph at the end of the stream: live edges of a query label,
# the only ones it indexes (every edge of lowxi-chain has one)
LIVE_EDGES_301 = {
    "netflow-path4": 9_618,
    "social-fanout": 293,
    "lowxi-chain": 396,
}


# the replay's digest of the per-edge emission digests
DIGEST_301 = {
    "netflow-path4": "06c3c8e6472ec5ce",
    "social-fanout": "f505f825356fa2dd",
    "lowxi-chain": "16344ba424534c8d",
}


# the selectivity table each replay plans from: a digest of its JSON, with
# its edge keys and path keys
TABLE_301 = {
    "netflow-path4": ("28216d9bd078ea09", 254, 52_735),
    "social-fanout": ("a0c2e3560ff1fc58", 5, 31),
    "lowxi-chain": ("b8200072e506fd28", 2, 8),
}


@pytest.mark.parametrize("name", sorted(TABLE_301))
def test_seed_301_tables(name):
    workload = load_workloads()[name]
    lines = workload.stream(301)[: workload.sample]
    table = collect_stats(parse_edge_line(line) for line in lines)
    digest = hashlib.blake2b(table.to_json().encode(), digest_size=8).hexdigest()
    assert (digest, len(table.arity1), len(table.arity2)) == TABLE_301[name]


@pytest.mark.parametrize("name", sorted(PLAN_301))
def test_seed_301_plans(name):
    workload = load_workloads()[name]
    lines = workload.stream(301)[: workload.sample]
    plan = plan_query(workload.query, collect_stats(parse_edge_line(line) for line in lines), mode="auto")
    assert (plan.tree.serialize(), plan.strategy) == PLAN_301[name]


@pytest.mark.parametrize("name", sorted(TABLE_301))
def test_seed_301_plans_read_on_demand_equal_the_saved_tables(name):
    # the replay plans from a fresh table, which sums only the path keys it
    # reads; the table saved and loaded again holds every key
    workload = load_workloads()[name]
    lines = workload.stream(301)[: workload.sample]
    table = collect_stats(parse_edge_line(line) for line in lines)
    plan = plan_query(workload.query, table, mode="auto")
    saved = SelectivityTable.from_json(table.to_json())
    assert plan_facts(plan) == plan_facts(plan_query(workload.query, saved, mode="auto"))


@pytest.mark.parametrize("name", sorted(SEED_301))
def test_seed_301_counters(name):
    workload = load_workloads()[name]
    emission_digest = load_perfbench("reference").emission_digest
    lines = workload.stream(301)
    table = collect_stats(parse_edge_line(line) for line in lines[: workload.sample])
    plan = plan_query(workload.query, table, mode="auto")
    eng = Engine(workload.query, plan.tree, workload.window, lazy=True)
    seen = array("q")
    for line in lines:
        out = eng.process(parse_edge_line(line))
        seen.append(emission_digest(out) if out else 0)
    c = eng.counters
    got = (c.edges, c.match_calls, c.emitted, c.purged, eng.tree.peak_stored, eng.tree.stored_count)
    assert got == SEED_301[name]
    assert eng.graph.edge_count == LIVE_EDGES_301[name]
    assert hashlib.blake2b(seen.tobytes(), digest_size=8).hexdigest() == DIGEST_301[name]
