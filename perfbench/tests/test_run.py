"""Self-test of the benchmark on short streams.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
from dgquery import engine  # noqa: E402
from dgquery.baseline import RescanEngine  # noqa: E402
from dgquery.graph import parse_edge_line  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# short streams that still emit: the lowxi chains are planted from edge 30000 on
EDGES = {"netflow-path4": 8_000, "social-fanout": 3_000, "lowxi-chain": 32_000}


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "CACHE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    for name, edges in EDGES.items():
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(WORKLOADS[name], edges=edges))


def in_process(workload, lines_path, ref_path, trace, spans_path=None):
    """``run.spawn`` without the child process, so a test can patch the engine."""
    return replay.replay(workload, lines_path.read_text().splitlines(), array("q", ref_path.read_bytes()),
                         trace, spans_path)


def bench(capsys, workload: str, trace: int) -> tuple[int, list[str], dict]:
    code = run.main(["--workload", workload, "--trace", str(trace), "--seed", "3", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def check_line(lines: list[str]) -> dict:
    return json.loads(next(x for x in lines if x.startswith("check: "))[len("check: "):])


@pytest.mark.parametrize("workload", sorted(EDGES))
def test_reference_equals_a_direct_rescan_of_a_seeded_stream(workload):
    wl = WORKLOADS[workload]
    lines = wl.stream(11)
    eng = RescanEngine(wl.query, wl.window)
    direct = array("q", (reference.emission_digest(eng.process(parse_edge_line(x))) for x in lines))
    assert any(direct)
    assert reference.digests(wl) == direct


@pytest.mark.parametrize("workload", sorted(EDGES))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, workload, trace, section):
    code, lines, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == EDGES[workload] * (run.MIN_REPLAYS + trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(x.split()[:1] == [name] and x.split()[-1] == unit for x in lines), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _drop_one_match(process):
    done = []

    def corrupted(self, raw):
        out = process(self, raw)
        if out and not done:
            done.append(True)
            return out[1:]
        return out

    return corrupted


def _raise_once(process):
    done = []

    def raising(self, raw):
        out = process(self, raw)
        if out and not done:
            done.append(True)
            raise RuntimeError("injected failure")
        return out

    return raising


@pytest.mark.parametrize("corrupt", [_drop_one_match, _raise_once])
def test_corrupted_emission_counts_and_fails(capsys, monkeypatch, corrupt):
    monkeypatch.setattr(run, "spawn", in_process)
    monkeypatch.setattr(engine.Engine, "process", corrupt(engine.Engine.process))
    code, lines, result = bench(capsys, "social-fanout", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert check_line(lines)["error_rate"] == 1 / result["attempted"]


def test_traced_and_untraced_emissions_identical(capsys):
    _, untraced, _ = bench(capsys, "netflow-path4", 0)
    _, traced, _ = bench(capsys, "netflow-path4", 1)
    digests = check_line(untraced)["digests"] + check_line(traced)["digests"]
    assert len(digests) == 2 * run.MIN_REPLAYS + 1
    assert len(set(digests)) == 1


def test_self_times_account_for_traced_wall(capsys):
    _, _, result = bench(capsys, "netflow-path4", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    covered = sum(v for k, v in m.items() if k.endswith(".self_ms")) + m["gc.pause_ms"] + m["bench.unattributed_ms"]
    assert m["bench.unattributed_ms"] >= 0
    assert covered == pytest.approx(m["bench.traced_wall_ms"], rel=1e-9)
    assert m["bench.trace_overhead"] > 1


def test_traced_spans_lie_inside_the_loop(monkeypatch):
    tracers = []

    class Recording(replay.Tracer):
        def __init__(self):
            super().__init__()
            tracers.append(self)

    monkeypatch.setattr(replay, "Tracer", Recording)
    wl = WORKLOADS["netflow-path4"]
    result, layer = replay.traced(wl, wl.stream(5), reference.digests(wl), None)
    tr = tracers[-1]
    start, end = result["start_ns"], result["end_ns"]
    assert len(tr.gc_start) == len(tr.gc_end) > 0
    assert all(start <= t <= end for t in (*tr.start, *tr.end, *tr.gc_start, *tr.gc_end))
    assert 0 < layer["gc.pause_ms"][0] < layer["bench.traced_wall_ms"][0]


def test_times_are_scaled_by_the_probes(monkeypatch):
    monkeypatch.setattr(replay, "probe", lambda: 2 * replay.PROBE_REF_NS)  # a host at half speed
    monkeypatch.setattr(replay, "PROBE_EVERY_NS", 1_000_000)
    wl = WORKLOADS["social-fanout"]
    result = replay.replay(wl, wl.stream(5), reference.digests(wl), False)
    assert result["scaled_wall_ns"] == pytest.approx(result["wall_ns"] / 2)
    assert result["scaled_setup_ns"] == pytest.approx(result["setup_ns"] / 2)
    assert 0 < sum(result["edge_ns"]) < result["scaled_wall_ns"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "lowxi-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
