"""dgquery benchmark: one workload per run, closed loop, checked against the
rescan baseline.

    python3 perfbench/run.py --workload netflow-path4 --seed 7 --seconds 25 --trace 0

The seed makes the workload's stream (see workloads.py).  The run starts
fresh processes one after another, each doing one replay of the stream
(see replay.py): set-up, then one caller sending each edge when the previous
``Engine.process`` call has returned.  Replays continue until ``--seconds``
have passed and at least ``MIN_REPLAYS`` have run.  Every edge's emissions
are checked against per-edge digests from ``baseline.RescanEngine`` (see
reference.py).

Each replay is a fresh process because a second replay in one process runs
about a fifth slower than the first (the allocator keeps the first engine's
freed memory), and a user runs one engine per process.  Every time is scaled
to a reference speed of the host, probed every 10 ms of the loop (see
replay.py): on a shared host the speed changes by half from one second, or
one minute, to the next.  Each edge's time is the least over the replays,
because other tenants only ever add time; throughput, memory and set-up are
the median replay's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
replay and prints the per-layer metrics; its spans are written to
``.out/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every edge of every replay matched the reference.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
MIN_REPLAYS = 5
REPLAY_TIMEOUT_S = 170


def spawn(workload, lines_path: Path, ref_path: Path, trace: bool, spans_path: Path | None = None) -> dict:
    """Run one replay in a child process and wait for it; its summary plus ``edge_ns``."""
    out = lines_path.with_suffix(".times")
    cmd = [sys.executable, str(HERE / "replay.py"), "--workload", workload.name, "--lines", str(lines_path),
           "--reference", str(ref_path), "--trace", str(int(trace)), "--out", str(out)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=REPLAY_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["edge_ns"] = array("q", out.read_bytes())
    finally:
        out.unlink(missing_ok=True)
    return result


def end_to_end(replays: list[dict], ref) -> dict[str, tuple[float, str]]:
    """The metrics from the replays' scaled times (see replay.py): throughput,
    memory and set-up of the median replay, the percentiles over each edge's
    least time."""
    best = replays[0]["edge_ns"]
    for r in replays[1:]:
        best = array("q", map(min, best, r["edge_ns"]))
    permille = statistics.quantiles(best, n=1000, method="inclusive")
    return {
        "throughput_eps": (statistics.median(len(best) / (r["scaled_wall_ns"] / 1e9) for r in replays), "edges/s"),
        "edge_p50_us": (statistics.median(best) / 1e3, "us"),
        "edge_p99_us": (permille[989] / 1e3, "us"),
        "edge_p999_us": (permille[998] / 1e3, "us"),
        "detect_p50_us": (statistics.median(t for t, d in zip(best, ref) if d) / 1e3, "us"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in replays) / 1024, "MB"),
        "setup_s": (statistics.median(r["scaled_setup_ns"] for r in replays) / 1e9, "s"),
    }


def host(replays: list[dict], edges: int) -> dict:
    """The host's speed and the unscaled figures, medians over the replays."""
    return {
        "probe_us": statistics.median(r["probe_ns"] for r in replays) / 1e3,
        "probe_ref_us": replay.PROBE_REF_NS / 1e3,
        "unscaled_throughput_eps": statistics.median(edges / (r["wall_ns"] / 1e9) for r in replays),
        "unscaled_setup_s": statistics.median(r["setup_ns"] for r in replays) / 1e9,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    lines = wl.stream(args.seed)
    ref = reference.digests(wl)
    print("env: " + json.dumps({"python": platform.python_version(), "cpu_count": os.cpu_count()}))
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        lines_path, ref_path = work / "stream.tsv", work / "stream.ref"
        lines_path.write_text("".join(line + "\n" for line in lines))
        ref_path.write_bytes(ref.tobytes())
        return measure(args, wl, lines, ref, lines_path, ref_path)
    finally:
        shutil.rmtree(work)


def measure(args, wl, lines: list[str], ref: array, lines_path: Path, ref_path: Path) -> int:
    replays: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while len(replays) < MIN_REPLAYS or time.perf_counter() < deadline:
        replays.append(spawn(wl, lines_path, ref_path, False))
    done = list(replays)
    metrics = end_to_end(replays, ref)
    if args.trace:
        spans_path = OUT / "trace" / f"{wl.name}-seed{args.seed}-{len(lines)}.spans"
        traced = spawn(wl, lines_path, ref_path, True, spans_path)
        done.append(traced)
        metrics = {k: tuple(v) for k, v in traced["layer"].items()}
        untraced_ns = statistics.median(r["scaled_wall_ns"] for r in replays)
        metrics["bench.trace_overhead"] = (traced["scaled_wall_ns"] / untraced_ns, "ratio")
        print(f"spans: {spans_path}")

    last = done[-1]
    print("workload: " + json.dumps(dict(wl.describe(), edges=len(lines), seed=args.seed,
                                         strategy=last["strategy"], xi=last["xi"])))
    print("snapshot: " + json.dumps(last["snapshot"]))
    print("host: " + json.dumps(host(replays, len(lines))))
    attempted = len(lines) * len(done)
    failed = sum(r["failed"] for r in done)
    digests = [r["digest"] for r in done]
    print("check: " + json.dumps({
        "replay_s": [round(r["wall_ns"] / 1e9, 4) for r in done],
        "digests": digests,
        "edge_samples": len(lines),
        "detect_samples": sum(1 for d in ref if d),
        "error_rate": failed / attempted,
    }))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    correct = failed == 0 and len(set(digests)) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if not (SRC / "dgquery").is_dir():
    sys.exit(f"{SRC}/dgquery not found: run from a dgquery checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
