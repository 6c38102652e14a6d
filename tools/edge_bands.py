"""Which edges make a workload's tail: per-edge times and what each edge did.

    python3 tools/edge_bands.py --workload netflow-path4 --seed 301 --runs 3

Each run is a fresh process that sets the engine up the way perfbench's
replay does (a selectivity table from the stream-prefix sample,
``plan_query(mode="auto")``, ``Engine(..., lazy=True)``) and times
``Engine.process(parse_edge_line(line))`` for every line of the seeded
stream.  An edge's time is its least over the runs, unscaled, and it keeps
the flags of the run that gave that time.  The flags come from public state
read around each call and from ``gc.callbacks``:

- ``gc0``/``gc1``/``gc2``: the oldest generation a collection inside the call
  ran;
- ``evicts``: ``graph.edges_evicted`` rose;
- ``searches``: ``counters.match_calls`` rose;
- ``emits``: the call returned a match;
- ``none``: none of the above.

The output is a markdown table: the p50, p99 and p999 of the edge times,
then per band of edges ranked by time (p45-55, p98-99, p99-99.9 and the top
0.1%) its edge count, its median time and the share of its edges carrying
each flag.  It reads only ``perfbench/workloads.py`` of the benchmark, for
the workload's stream, query, window and sample size.
"""
from __future__ import annotations

import argparse
import gc
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from dgquery import engine, graph, planner, stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FLAGS = ("gc0", "gc1", "gc2", "evicts", "searches", "emits")
# (name, first rank, end rank) as shares of the edges ranked by time
BANDS = (("p45-55", 0.45, 0.55), ("p98-99", 0.98, 0.99), ("p99-99.9", 0.99, 0.999), ("top 0.1%", 0.999, 1.0))


def run_once(workload, lines: list[str]) -> dict[str, array]:
    """Set up, feed every line and return each edge's time in ns and its
    flags as a bit mask over ``FLAGS``."""
    gc.collect()
    table = stats.collect_stats(graph.parse_edge_line(line) for line in lines[: workload.sample])
    plan = planner.plan_query(workload.query, table, "auto")
    eng = engine.Engine(workload.query, plan.tree, workload.window, lazy=True)
    parse, process, counters, g = graph.parse_edge_line, eng.process, eng.counters, eng.graph
    clock = time.perf_counter_ns
    oldest = [-1]  # the oldest generation collected during the current edge

    def watch(phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] > oldest[0]:
            oldest[0] = info["generation"]

    edge_ns, flags = array("q"), array("B")
    gc.collect()
    gc.callbacks.append(watch)
    try:
        for line in lines:
            evicted, searches = g.edges_evicted, counters.match_calls
            oldest[0] = -1
            t0 = clock()
            out = process(parse(line))
            edge_ns.append(clock() - t0)
            mask = 1 << oldest[0] if oldest[0] >= 0 else 0
            mask |= (g.edges_evicted > evicted) << 3 | (counters.match_calls > searches) << 4 | bool(out) << 5
            flags.append(mask)
    finally:
        gc.callbacks.remove(watch)
    return {"edge_ns": edge_ns, "flags": flags}


def least(runs: list[dict[str, array]]) -> tuple[array, array]:
    """Each edge's least time over ``runs``, with that run's flags."""
    best_ns, best_flags = array("q", runs[0]["edge_ns"]), array("B", runs[0]["flags"])
    for r in runs[1:]:
        for i, t in enumerate(r["edge_ns"]):
            if t < best_ns[i]:
                best_ns[i], best_flags[i] = t, r["flags"][i]
    return best_ns, best_flags


def table(edge_ns: array, flags: array) -> str:
    """The markdown table of percentiles and band flag mixes."""
    permille = statistics.quantiles(edge_ns, n=1000, method="inclusive")
    rows = [
        f"p50 {statistics.median(edge_ns) / 1e3:.2f} µs, p99 {permille[989] / 1e3:.2f} µs, "
        f"p999 {permille[998] / 1e3:.2f} µs over {len(edge_ns)} edges",
        "",
        "| band | edges | median µs | " + " | ".join(FLAGS) + " | none |",
        "| --- | ---: | ---: |" + " ---: |" * (len(FLAGS) + 1),
    ]
    ranked = sorted(range(len(edge_ns)), key=edge_ns.__getitem__)
    n = len(ranked)
    for name, lo, hi in BANDS:
        band = ranked[int(lo * n):int(hi * n)]
        if not band:
            continue
        shares = [sum(flags[i] >> bit & 1 for i in band) / len(band) for bit in range(len(FLAGS))]
        none = sum(not flags[i] for i in band) / len(band)
        median = statistics.median(edge_ns[i] for i in band) / 1e3
        rows.append(f"| {name} | {len(band)} | {median:.2f} | " + " | ".join(f"{s:.0%}" for s in (*shares, none)) + " |")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=301)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # lines file of one run
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.child is not None:
        # one run: the lines file in, the pickled result on stdout
        sys.stdout.buffer.write(pickle.dumps(run_once(wl, args.child.read_text().splitlines())))
        return 0
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.tsv"
        path.write_text("".join(line + "\n" for line in wl.stream(args.seed)))
        cmd = [sys.executable, __file__, "--workload", wl.name, "--child", str(path)]
        runs = [pickle.loads(subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout) for _ in range(args.runs)]
    print(f"{wl.name}, seed {args.seed}, least of {args.runs} fresh-process runs, unscaled\n")
    print(table(*least(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
