"""Where a workload's set-up goes: parsing, statistics, planning, the engine.

    python3 tools/setup_split.py --workload social-fanout --seed 301 --runs 5

Set-up is what a replay does before its first edge, the way perfbench's
replay does it: a selectivity table from the stream-prefix sample,
``plan_query(mode="auto")``, ``Engine(..., lazy=True)``.  Each run is a fresh
process that times its four steps one after the other:

- ``parse``: ``parse_edge_line`` over the sample's lines;
- ``collect_stats``: over the parsed lines;
- ``plan_query``: the ``auto`` plan from that table;
- ``Engine``: building the lazy engine on the plan's tree.

Each figure is its least over the runs, in ms, unscaled; ``total`` is the
least of each run's sum, so it can exceed the sum of the least steps.  The
output is a markdown table with one row per workload (every workload when
``--workload`` is not given).  It reads only ``perfbench/workloads.py`` of
the benchmark, for the workload's stream, query, window and sample size.
"""
from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from dgquery import engine, graph, planner, stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STEPS = ("parse", "collect_stats", "plan_query", "Engine")


def run_once(workload, sample: list[str]) -> dict[str, int]:
    """Set up once from the sample's lines; each step's time in ns."""
    clock = time.perf_counter_ns
    gc.collect()
    t0 = clock()
    records = [graph.parse_edge_line(line) for line in sample]
    t1 = clock()
    table = stats.collect_stats(records)
    t2 = clock()
    plan = planner.plan_query(workload.query, table, "auto")
    t3 = clock()
    engine.Engine(workload.query, plan.tree, workload.window, lazy=True)
    t4 = clock()
    return dict(zip(STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))


def least(runs: list[dict[str, int]]) -> dict[str, int]:
    """Each step's least time over ``runs``, and the least total."""
    best = {step: min(r[step] for r in runs) for step in STEPS}
    best["total"] = min(sum(r.values()) for r in runs)
    return best


def table(rows: dict[str, dict[str, int]]) -> str:
    """The markdown table, one row per workload, in ms."""
    columns = (*STEPS, "total")
    out = [
        "| workload | " + " | ".join(f"{c} ms" for c in columns) + " |",
        "| --- |" + " ---: |" * len(columns),
    ]
    for name, best in rows.items():
        out.append(f"| {name} | " + " | ".join(f"{best[c] / 1e6:.1f}" for c in columns) + " |")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="a workload to split (repeatable; default every workload)")
    ap.add_argument("--seed", type=int, default=301)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # sample file of one run
    args = ap.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.child is not None:
        # one run: the sample file in, the step times as JSON on stdout
        print(json.dumps(run_once(WORKLOADS[names[0]], args.child.read_text().splitlines())))
        return 0
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    rows: dict[str, dict[str, int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wl = WORKLOADS[name]
            path = Path(tmp) / f"{name}.tsv"
            path.write_text("".join(line + "\n" for line in wl.stream(args.seed)[: wl.sample]))
            cmd = [sys.executable, __file__, "--workload", name, "--child", str(path)]
            rows[name] = least([
                json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout)
                for _ in range(args.runs)
            ])
    print(f"set-up split, seed {args.seed}, least of {args.runs} fresh-process runs, unscaled\n")
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
