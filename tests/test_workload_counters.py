"""The benchmark's seed-301 streams, replayed as the benchmark sets them up,
end in fixed engine counters.

The counters are deterministic, so a change that should only make the engine
faster must leave every one of them as it is.  The workloads come from
``perfbench/workloads.py``, loaded as it is; each replay follows the
benchmark's set-up: statistics over the stream's sample prefix,
``plan_query(mode="auto")`` and ``Engine(lazy=True)``.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from dgquery.engine import Engine
from dgquery.graph import parse_edge_line
from dgquery.planner import plan_query
from dgquery.stats import collect_stats

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads() -> dict:
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


# edges, match_calls, emitted, purged, peak_stored, stored_count
SEED_301 = {
    "netflow-path4": (50_000, 25_776, 1_749, 14_898, 22_700, 13_575),
    "social-fanout": (25_000, 18_363, 73_392, 325, 834, 773),
    "lowxi-chain": (100_000, 100_000, 299, 0, 0, 0),
}


@pytest.mark.parametrize("name", sorted(SEED_301))
def test_seed_301_counters(name):
    workload = load_workloads()[name]
    lines = workload.stream(301)
    table = collect_stats(parse_edge_line(line) for line in lines[: workload.sample])
    plan = plan_query(workload.query, table, mode="auto")
    eng = Engine(workload.query, plan.tree, workload.window, lazy=True)
    for line in lines:
        eng.process(parse_edge_line(line))
    c = eng.counters
    got = (c.edges, c.match_calls, c.emitted, c.purged, eng.tree.peak_stored, eng.tree.stored_count)
    assert got == SEED_301[name]
