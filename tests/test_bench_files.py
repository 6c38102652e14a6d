"""The committed benchmark results: one BENCH_<workload>.json per workload
that BENCHMARK.json declares, each carrying exactly its metrics."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_file_reports_the_declared_metrics(workload):
    bench = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert bench["workload"] == workload
    command = f"python3 perfbench/run.py --workload {workload} --seed 301 --seconds 25 --trace"
    assert bench["command"] == f"{command} 0"
    assert bench["traced"]["command"] == f"{command} 1"
    for run in (bench, bench["traced"]):
        assert {"env", "host", "snapshot"} <= run.keys()
        assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert set(bench["result"]["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(bench["traced"]["result"]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # tracing wraps the layers and changes nothing they do
    assert bench["snapshot"] == bench["traced"]["snapshot"]
