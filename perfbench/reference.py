"""Per-edge emission digests from the rescan baseline.

The reference for a stream is one 64-bit digest per edge: 0 when the edge
completes no match, else a hash of the sorted signatures it completes.
Replays hold digests, not matches, so the check costs them under a megabyte.

``baseline.RescanEngine`` is slow (about 30 s for the 50k netflow edges), so
it runs once per workload, untimed, in a child process, over the workload's
template stream; its complete matches are cached on disk under a key derived
from the stream, the query, the window and the source of the modules the
rescan runs (``REFERENCE_SOURCES``).  Every seeded stream is the
template with its vertices renamed within each type (see workloads.py),
which changes neither the matches nor their edge ids, so one reference
serves every seed.  Each match is emitted when the last of its edges
arrives.

Run as a script it computes one template's matches:
``python3 reference.py <workload> <edges> <out-file>``.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "dgquery"
CACHE_DIR = HERE / ".out" / "reference"
# the program code a reference depends on, hashed into its cache key
REFERENCE_SOURCES = ("baseline.py", "graph.py", "query.py")
TIMEOUT_S = 170


def emission_digest(matches) -> int:
    """Order-free digest of one edge's emissions; 0 means none."""
    if not matches:
        return 0
    return signature_digest([m.pairs for m in matches])


def signature_digest(signatures) -> int:
    # signatures are tuples of int pairs, whose hash is the same in every process
    return hash(tuple(sorted(signatures))) or 1


def template_matches(workload, lines: list[str]) -> array:
    """Every complete match in ``lines``: the data edge id of each query edge, flat."""
    from dgquery.baseline import RescanEngine
    from dgquery.graph import parse_edge_line

    k = workload.query.n_edges
    eng = RescanEngine(workload.query, workload.window)
    flat = array("q")
    for line in lines:
        for m in eng.process(parse_edge_line(line)):
            if [q for q, _ in m.pairs] != list(range(k)):
                raise RuntimeError(f"incomplete match {m.pairs}")
            flat.extend(e for _, e in m.pairs)
    return flat


def _cached_template_matches(workload, edges: int) -> array:
    lines = workload.template_lines(edges)
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{sys.hexversion}\n{workload.window}\n{workload.query_text}".encode())
    for module in REFERENCE_SOURCES:
        h.update((SRC / module).read_bytes())
    for line in lines:
        h.update(line.encode() + b"\n")
    path = CACHE_DIR / f"{workload.name}-{h.hexdigest()}.matches"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            subprocess.run([sys.executable, __file__, workload.name, str(edges), str(tmp)],
                           check=True, timeout=TIMEOUT_S)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    flat = array("q")
    flat.frombytes(path.read_bytes())
    return flat


def digests(workload) -> array:
    """Per-edge digests of the workload's stream, the same under every seed."""
    k = workload.query.n_edges
    flat = _cached_template_matches(workload, workload.edges)
    by_edge: dict[int, list[tuple]] = {}
    for j in range(0, len(flat), k):
        ids = flat[j:j + k]
        by_edge.setdefault(max(ids), []).append(tuple(enumerate(ids)))
    ref = array("q", bytes(8 * workload.edges))
    for i, signatures in by_edge.items():
        ref[i] = signature_digest(signatures)
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    name, edges, out = sys.argv[1:]
    workload = WORKLOADS[name]
    Path(out).write_bytes(template_matches(workload, workload.template_lines(int(edges))).tobytes())
