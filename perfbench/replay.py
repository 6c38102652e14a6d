"""One replay of a workload's stream, in a process of its own.

    python3 perfbench/replay.py --workload NAME --lines FILE --reference FILE --trace 0|1 --out FILE

A replay sets the library up the way ``dgq run`` does (a selectivity table
from the stream-prefix sample, ``plan_query(mode="auto")``,
``Engine(..., lazy=True)``), then feeds every TSV line through
``parse_edge_line`` and ``Engine.process``, one call after the other.  Each
edge's time and emissions are recorded; an edge fails when its call raises or
its emissions' digest differs from the reference.  With ``--trace 1`` every
layer boundary is wrapped in a span (see spans.py) and the per-layer figures
are derived from them.

The host's speed is probed before and after the set-up and every
``PROBE_EVERY_NS`` of the loop (see ``probe``).  On a shared host it changes
by half from one second to the next, and the program slows with it, so
every end-to-end time is scaled to a fixed reference speed: a stretch of the
loop that took ``t`` between probes that took ``p0`` and ``p1`` counts
``t * PROBE_REF_NS / ((p0 + p1) / 2)``.  The per-layer figures are not
scaled.

The summary is printed as one JSON line; the scaled per-edge times (int64 ns)
are written to ``--out``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dgquery import engine, graph, planner, sjtree, stats  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


PROBE_EVERY_NS = 10_000_000  # loop time between two probes of the host's speed
PROBE_REF_NS = 300_000  # the probe's time on the reference host, to which every time is scaled


def probe() -> int:
    """The host's current speed: the least of three timings of a fixed loop of
    dict and int operations, in ns.

    The loop allocates no object the collector tracks, so the program's
    collections fall where they would without it.
    """
    clock = time.perf_counter_ns
    table = _PROBE_TABLE
    best = 1 << 62
    for _ in range(3):
        t0 = clock()
        table.clear()
        for i in range(3000):
            k = i * 7919 % 409
            table[k] = table.get(k, 0) + i
        best = min(best, clock() - t0)
    return best


_PROBE_TABLE: dict[int, int] = {}


def scaled(ns: float, before: int, after: int) -> float:
    """``ns`` as it would read on the reference host, from the probes around it."""
    return ns * 2 * PROBE_REF_NS / (before + after)


def set_up(workload, lines: list[str]):
    """Stats sample, plan and engine; returns (engine, plan, elapsed ns, the same scaled)."""
    gc.collect()
    before = probe()
    t0 = time.perf_counter_ns()
    table = stats.collect_stats(graph.parse_edge_line(line) for line in lines[: workload.sample])
    plan = planner.plan_query(workload.query, table, "auto")
    eng = engine.Engine(workload.query, plan.tree, workload.window, lazy=True)
    elapsed = time.perf_counter_ns() - t0
    return eng, plan, elapsed, scaled(elapsed, before, probe())


def feed(eng, lines: list[str], ref: array) -> dict:
    """Send every line through ``eng``, timing each edge and checking its output.

    The loop stops for a probe every ``PROBE_EVERY_NS``; each edge's time and
    the loop time are scaled by the probes around their stretch of the loop.
    ``wall_ns`` is the loop time without the probes, unscaled.
    """
    parse = graph.parse_edge_line  # looked up now, so a tracer's wrapper is used
    process = eng.process
    digest = reference.emission_digest
    clock = time.perf_counter_ns
    edge_ns = array("q")
    seen = array("q")
    failed = 0
    probes = array("q", [probe()])  # before each stretch, and after the last
    stretch_ns = array("q")  # loop time of each stretch
    stretch_end = array("q")  # index one past each stretch's last edge
    t_loop = t_stretch = clock()
    for i, line in enumerate(lines):
        t0 = clock()
        if t0 - t_stretch >= PROBE_EVERY_NS:
            stretch_ns.append(t0 - t_stretch)
            stretch_end.append(i)
            probes.append(probe())
            t0 = t_stretch = clock()
        try:
            out = process(parse(line))
        except Exception:
            edge_ns.append(clock() - t0)
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
            seen.append(-1)
            continue
        edge_ns.append(clock() - t0)
        d = digest(out) if out else 0
        seen.append(d)
        if d != ref[i]:
            if not failed:
                print(f"edge {i}: emissions differ from the reference", file=sys.stderr)
            failed += 1
    t_end = clock()
    stretch_ns.append(t_end - t_stretch)
    stretch_end.append(len(lines))
    probes.append(probe())

    scaled_edge_ns = array("q")
    scaled_wall_ns = 0.0
    first = 0
    for j, end in enumerate(stretch_end):
        f = scaled(1, probes[j], probes[j + 1])
        scaled_edge_ns.extend(round(t * f) for t in edge_ns[first:end])
        scaled_wall_ns += stretch_ns[j] * f
        first = end
    return {
        "start_ns": t_loop,
        "end_ns": t_end,
        "wall_ns": sum(stretch_ns),
        "scaled_wall_ns": scaled_wall_ns,
        "edge_ns": scaled_edge_ns,
        "probe_ns": statistics.median(probes),
        "failed": failed,
        "digest": hashlib.blake2b(seen.tobytes(), digest_size=8).hexdigest(),
    }


def snapshot(eng) -> dict:
    """End-of-stream state, from public attributes only."""
    return {
        "graph.edge_count": eng.graph.edge_count,
        "graph.edges_evicted": eng.graph.edges_evicted,
        "tree.stored_count": eng.tree.stored_count,
        "tree.peak_stored": eng.tree.peak_stored,
        "engine.log": len(eng.log),
        "engine.counters": vars(eng.counters),
    }


def traced(workload, lines: list[str], ref: array, spans_path: Path | None) -> tuple[dict, dict]:
    """A set-up and feed with spans around every layer; (feed result, layer metrics)."""
    setup = Tracer()
    setup.wrap(stats, "collect_stats", "stats.collect_stats")
    setup.wrap(planner, "plan_query", "planner.plan_query")
    try:
        eng, plan, setup_ns, scaled_setup_ns = set_up(workload, lines)
    finally:
        setup.restore()
    tr = Tracer()
    tr.wrap(graph, "parse_edge_line", "graph.parse_edge_line")
    tr.wrap(graph.DynamicGraph, "add_edge", "graph.add_edge")
    tr.wrap(engine.Engine, "process", "engine.process")
    tr.wrap(engine, "match_primitive", "engine.match_primitive", lambda r: 1 if r else 0)
    tr.wrap(sjtree.SJTree, "insert_and_propagate", "sjtree.insert_and_propagate")
    tr.wrap(sjtree.SJTree, "purge_stale", "sjtree.purge_stale", lambda r: r)
    tr.wrap(sjtree, "join", "query.join", lambda r: r is not None)
    gc.collect()  # before the watch starts, so only the loop's own collections are recorded
    tr.watch_gc()
    try:
        result = feed(eng, lines, ref)
    finally:
        tr.restore()
    result.update(setup_ns=setup_ns, scaled_setup_ns=scaled_setup_ns, plan=plan, snapshot=snapshot(eng))

    s, ss = tr.summary(), setup.summary()
    none = dict.fromkeys(("calls", "outer", "self_ns", "incl_ns", "top_ns", "max_ns"), 0)

    def get(name: str) -> dict:
        return s.get(name, none)

    ms = 1e-6
    mp, join, purge, ins = (get(n) for n in ("engine.match_primitive", "query.join", "sjtree.purge_stale",
                                               "sjtree.insert_and_propagate"))
    pauses = [get(f"gc.gen{g}") for g in range(3)]
    wall_ns = result["wall_ns"]
    layer = {
        "graph.parse_edge_line.self_ms": (get("graph.parse_edge_line")["self_ns"] * ms, "ms"),
        "graph.add_edge.calls": (get("graph.add_edge")["calls"], "count"),
        "graph.add_edge.self_ms": (get("graph.add_edge")["self_ns"] * ms, "ms"),
        "graph.edges_evicted": (eng.graph.edges_evicted, "count"),
        "graph.live_edges_end": (eng.graph.edge_count, "count"),
        "engine.process.self_ms": (get("engine.process")["self_ns"] * ms, "ms"),
        "engine.process.max_us": (get("engine.process")["max_ns"] / 1e3, "us"),
        "engine.match_primitive.calls": (mp["calls"], "count"),
        "engine.match_primitive.hits": (tr.counts["engine.match_primitive"], "count"),
        "engine.match_primitive.hit_ratio": (tr.counts["engine.match_primitive"] / max(mp["calls"], 1), "ratio"),
        "engine.match_primitive.self_ms": (mp["self_ns"] * ms, "ms"),
        "engine.emitted": (eng.counters.emitted, "count"),
        "engine.log_entries": (len(eng.log), "count"),
        "sjtree.insert_and_propagate.calls": (ins["outer"], "count"),
        "sjtree.insert_and_propagate.self_ms": (ins["self_ns"] * ms, "ms"),
        "sjtree.peak_stored": (eng.tree.peak_stored, "count"),
        "sjtree.stored_end": (eng.tree.stored_count, "count"),
        "sjtree.purge_stale.calls": (purge["calls"], "count"),
        "sjtree.purge_stale.removed": (tr.counts["sjtree.purge_stale"], "count"),
        "sjtree.purge_stale.self_ms": (purge["self_ns"] * ms, "ms"),
        "sjtree.purge_stale.max_ms": (purge["max_ns"] * ms, "ms"),
        "query.join.calls": (join["calls"], "count"),
        "query.join.ok": (tr.counts["query.join"], "count"),
        "query.join.ok_ratio": (tr.counts["query.join"] / max(join["calls"], 1), "ratio"),
        "query.join.self_ms": (join["self_ns"] * ms, "ms"),
        "stats.collect_stats.ms": (ss["stats.collect_stats"]["incl_ns"] * ms, "ms"),
        "planner.plan_query.ms": (ss["planner.plan_query"]["incl_ns"] * ms, "ms"),
        "gc.gen2.count": (get("gc.gen2")["calls"], "count"),
        "gc.pause_ms": (sum(p["incl_ns"] for p in pauses) * ms, "ms"),
        "gc.pause_max_ms": (max(p["max_ns"] for p in pauses) * ms, "ms"),
        "bench.traced_wall_ms": (wall_ns * ms, "ms"),
        # loop time outside every top-level span: the benchmark's own timing and checking
        "bench.unattributed_ms": ((wall_ns - sum(r["top_ns"] for r in s.values())) * ms, "ms"),
    }
    if spans_path is not None:
        tr.write(spans_path, {"workload": workload.name, "edges": len(lines), "wall_ns": wall_ns})
    print(f"spans: {len(tr.start)} + {len(tr.gc_start)} gc", file=sys.stderr)
    return result, layer


def replay(workload, lines: list[str], ref: array, trace: bool, spans_path: Path | None = None) -> dict:
    """One set-up and feed; the summary the parent aggregates."""
    if trace:
        result, layer = traced(workload, lines, ref, spans_path)
    else:
        eng, plan, setup_ns, scaled_setup_ns = set_up(workload, lines)
        gc.collect()
        result = feed(eng, lines, ref)
        result.update(setup_ns=setup_ns, scaled_setup_ns=scaled_setup_ns, plan=plan, snapshot=snapshot(eng))
        layer = None
    plan = result.pop("plan")
    result.update(
        layer=layer,
        strategy=plan.strategy,
        xi=plan.relative,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--lines", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    lines = args.lines.read_text().splitlines()
    ref = array("q", args.reference.read_bytes())
    if len(ref) != len(lines):
        raise SystemExit(f"{args.reference} has {len(ref)} digests for {len(lines)} lines")
    result = replay(WORKLOADS[args.workload], lines, ref, bool(args.trace), args.spans)
    args.out.write_bytes(result.pop("edge_ns").tobytes())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
