"""Release acceptance: nine gate criteria, one test (and one verdict line) each.

Every tolerance is pinned in the assertion itself.  Randomized criteria fix
their seeds so a failure replays exactly; timed criteria measure best-of-N
walls to damp scheduler noise but never relax the pinned bound.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from dgquery.baseline import DeltaOracle, RescanEngine
from dgquery.engine import Engine
from dgquery.errors import ContractError
from dgquery.generate import (
    generate_stream,
    kpartite_query,
    kpartite_schema,
    netflow_schema,
    random_query,
    random_schema,
    social_schema,
)
from dgquery.graph import DynamicGraph, RawEdge
from dgquery.planner import choose_strategy, plan_query
from dgquery.query import QueryEdge, QueryGraph, QueryPiece
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable, collect_stats, primitive_key

from conftest import engines_for, live_records, raw, signatures
from test_stats import brute_force_path_counts


# --------------------------------------------------------------- workload kit

def _random_path_query(schema, n: int, rng: Random, tries: int = 50) -> QueryGraph | None:
    """Directed n-edge chain whose labels follow the schema's triples."""
    for _ in range(tries):
        t0 = rng.choice(schema.triples)
        labels = [t0[0], t0[2]]
        edges = [QueryEdge(0, 1, t0[1])]
        ok = True
        while len(edges) < n:
            cands = [t for t in schema.triples if t[0] == labels[-1]]
            if not cands:
                ok = False
                break
            t = rng.choice(cands)
            labels.append(t[2])
            edges.append(QueryEdge(len(labels) - 2, len(labels) - 1, t[1]))
        if ok:
            return QueryGraph(labels, edges)
    return None


def _is_tree(query: QueryGraph) -> bool:
    return (
        all(e.src != e.dst for e in query.edges)
        and query.n_vertices == query.n_edges + 1
    )


def _star_query(labels: list[str], rng: Random) -> QueryGraph:
    """Three edges sharing vertex 0, one per label, random orientation."""
    edges = [
        QueryEdge(0, j + 1, lab) if rng.random() < 0.5 else QueryEdge(j + 1, 0, lab)
        for j, lab in enumerate(labels)
    ]
    return QueryGraph(["ip"] * (len(labels) + 1), edges)


def _make_trial(i: int):
    """One randomized cross-check trial: (query, records, window, skewed)."""
    kind = i % 10
    if kind in (5, 6):
        # designated skewed-stream trials: power-law protocol mix, the
        # workload where lazy search should actually save anchored calls
        rng = Random(7_777_777 * i + 3)
        schema = netflow_schema(
            hosts=rng.randint(25, 60), skew=rng.uniform(1.2, 1.8), protocols=6
        )
        protos = [t[1] for t in schema.triples]
        n_q = rng.randint(2, 4)
        labels = rng.sample(protos, n_q)
        if rng.random() < 0.5:
            query = QueryGraph(
                ["ip"] * (n_q + 1),
                [QueryEdge(j, j + 1, lab) for j, lab in enumerate(labels)],
            )
        else:
            query = _star_query(labels, rng)
        records = generate_stream(
            schema, rng.randint(100, 200), rng, edges_per_tick=rng.choice([2, 4])
        )
        return query, records, rng.choice([5, None]), True
    rng = Random(1_000_003 * i + 17)
    window = rng.choice([5, None])
    if kind == 9:
        schema = kpartite_schema(2, pool=4)
        query = kpartite_query(2)
        records = generate_stream(
            schema, rng.randint(120, 200), rng, edges_per_tick=rng.choice([2, 4])
        )
        return query, records, window, False
    while True:
        schema = random_schema(rng)
        n_q = rng.randint(1, 5)
        query = None
        if kind in (7, 8):
            query = _random_path_query(schema, min(n_q, 4), rng)
        if query is None:
            try:
                query = random_query(schema, n_q, rng, reuse_prob=0.0)
            except ContractError:
                continue
            if not _is_tree(query):
                continue
        n_rec = rng.randint(40, 120) if query.n_edges >= 4 else rng.randint(60, 200)
        records = generate_stream(
            schema, n_rec, rng, edges_per_tick=rng.choice([1, 2, 4])
        )
        return query, records, window, False


@dataclass
class TrialResult:
    skewed: bool
    emitted: int
    calls: dict[str, int]


@lru_cache(maxsize=1)
def _delta_trials() -> tuple[list[TrialResult], float]:
    """300 randomized trials, every engine checked per step against the oracle.

    Shared by criteria 1 and 5 so the stream is only replayed once.
    """
    results: list[TrialResult] = []
    t0 = time.perf_counter()
    for i in range(300):
        query, records, window, skewed = _make_trial(i)
        engines = engines_for(query, records, window)
        engines.append(("vf2", RescanEngine(query, window)))
        oracle = DeltaOracle(query)
        shadow = DynamicGraph(window)
        emitted = 0
        for step, r in enumerate(records):
            rec = shadow.add_edge(r)
            expected = oracle.step(shadow, rec)
            emitted += len(expected)
            for name, eng in engines:
                got = signatures(eng.process(r))
                assert got == expected, (
                    f"trial {i} step {step}: {name} != oracle "
                    f"(missing {expected - got}, extra {got - expected})"
                )
        calls = {
            name: eng.counters.match_calls
            for name, eng in engines
            if isinstance(eng, Engine)
        }
        results.append(TrialResult(skewed, emitted, calls))
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_per_step_delta_equality():
    """300 randomized trials: Single, SingleLazy, Path, PathLazy and VF2 all
    equal the brute-force per-step delta oracle exactly (set equality)."""
    results, elapsed = _delta_trials()
    assert len(results) == 300
    emitting = sum(1 for t in results if t.emitted)
    total = sum(t.emitted for t in results)
    assert emitting >= 100, f"only {emitting} trials produced matches"
    assert elapsed < 120.0, f"trial loop took {elapsed:.1f}s (pinned < 2 min)"
    print(
        f"criterion 1: PASS — 300 trials exact vs oracle, {total} emissions "
        f"across {emitting} emitting trials, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_path_census_matches_pairwise_oracle():
    """collect_stats over each of 100 random graphs' live edges equals
    pairwise enumeration, and its counts summed per center label satisfy the
    handshake identity."""
    for i in range(100):
        rng = Random(31_337 * i + 5)
        schema = [
            social_schema(),
            netflow_schema(hosts=40, skew=1.2, protocols=7),
            kpartite_schema(2, pool=20),
            random_schema(rng),
        ][i % 4]
        graph = DynamicGraph(rng.choice([None, 5, 20]))
        for r in generate_stream(
            schema, rng.randint(50, 500), rng, edges_per_tick=rng.choice([1, 4, 10])
        ):
            graph.add_edge(r)
        counts = collect_stats(live_records(graph)).arity2
        assert counts == brute_force_path_counts(graph), f"graph {i}"
        by_label: dict[str, int] = {}
        for (center_label, _, _), n in counts.items():
            by_label[center_label] = by_label.get(center_label, 0) + n
        # a self-loop is one incident edge of its vertex
        degree: dict[str, int] = {}
        for e in graph.live_edges():
            for vid in {e[1], e[2]}:
                degree[vid] = degree.get(vid, 0) + 1
        handshake: dict[str, int] = {}
        for vid, d in degree.items():
            label = graph.vertex_label(vid)
            handshake[label] = handshake.get(label, 0) + d * (d - 1) // 2
        assert by_label == {k: v for k, v in handshake.items() if v}, f"graph {i}"
    print("criterion 2: PASS — 100 graphs, census == pairwise oracle == handshake")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_decomposition_invariants():
    """For 100 random queries and both catalog modes: leaves partition the
    query, the tree is left-deep, leaf 0 has globally minimal primitive
    frequency, and serialization round-trips byte-identically."""
    checked = 0
    for i in range(100):
        rng = Random(7_001 * i + 2)
        schema = [
            random_schema(rng),
            random_schema(rng),
            netflow_schema(hosts=30, skew=1.3, protocols=6),
            social_schema(),
        ][i % 4]
        while True:
            try:
                query = random_query(schema, rng.randint(1, 6), rng)
                break
            except ContractError:
                continue
        table = collect_stats(generate_stream(schema, 300, rng))
        for mode in ("single", "path"):
            tree = plan_query(query, table, mode=mode).tree
            leaves = tree.leaves()
            # leaves partition the query's edge set
            seen: list[int] = []
            for leaf in leaves:
                seen.extend(leaf.piece.edges)
            assert sorted(seen) == list(range(query.n_edges)), f"query {i} {mode}"
            assert len(seen) == len(set(seen)), f"query {i} {mode}: overlap"
            # left-deep: every internal right child is a leaf
            node = tree.nodes[tree.root_id]
            while not node.is_leaf:
                assert tree.nodes[node.right].is_leaf, f"query {i} {mode}"
                node = tree.nodes[node.left]
            # leaf 0 is the globally rarest primitive of its arity family
            leaf0 = leaves[0]
            freq0 = table.frequency(*primitive_key(query, leaf0.piece.edges))
            if mode == "single":
                best = min(
                    table.frequency(*primitive_key(query, (e,)))
                    for e in range(query.n_edges)
                )
            elif len(leaf0.piece.edges) == 2:
                best = min(
                    table.frequency(*primitive_key(query, (a, b)))
                    for a in range(query.n_edges)
                    for b in range(a + 1, query.n_edges)
                    if {query.edges[a].src, query.edges[a].dst}
                    & {query.edges[b].src, query.edges[b].dst}
                )
            else:  # single-edge query: the lone edge is trivially minimal
                best = freq0
            assert freq0 == best, f"query {i} {mode}: leaf0 freq {freq0} != min {best}"
            # byte-identical round trip
            text = tree.serialize()
            assert SJTree.deserialize(text, query).serialize() == text, f"query {i}"
            checked += 1
    print(f"criterion 3: PASS — {checked} decompositions over 100 queries")


# ---------------------------------------------------------------- criterion 4

RANK_TRIPLES = [(1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 6), (2, 4, 6)]


def test_criterion_4_ascending_order_minimizes_peak_storage():
    """On 20 skewed 10k-edge streams, the ascending-frequency leaf ordering's
    peak stored-match count is <= every other left-deep ordering's."""
    for i in range(20):
        rng = Random(900_001 * i + 11)
        schema = netflow_schema(hosts=rng.randint(120, 200), skew=1.5, protocols=7)
        protos = [t[1] for t in schema.triples]
        labels = [protos[r] for r in rng.choice(RANK_TRIPLES)]
        rng.shuffle(labels)
        query = _star_query(labels, rng)
        records = generate_stream(schema, 10_000, rng, edges_per_tick=8)
        table = collect_stats(records)
        freq = {e: table.frequency(*primitive_key(query, (e,))) for e in range(3)}
        assert len(set(freq.values())) == 3, f"trial {i}: tie {freq}"
        ascending = tuple(sorted(range(3), key=lambda e: freq[e]))
        peaks: dict[tuple[int, ...], int] = {}
        for perm in itertools.permutations(range(3)):
            tree = SJTree.from_leaf_pieces(
                query, [QueryPiece.from_edges(query, [e]) for e in perm]
            )
            eng = Engine(query, tree, None)
            for r in records:
                eng.process(r)
            peaks[perm] = tree.peak_stored
        worst = max(peaks.values())
        assert all(peaks[ascending] <= p for p in peaks.values()), (
            f"trial {i}: ascending {ascending} peaked {peaks[ascending]}, {peaks}"
        )
        # and the planner's single-edge catalog picks exactly that ordering
        planned = plan_query(query, table, mode="single").tree
        plan_order = tuple(next(iter(leaf.piece.edges)) for leaf in planned.leaves())
        assert plan_order == ascending, f"trial {i}: {plan_order} != {ascending}"
    print(
        "criterion 4: PASS — 20 trials, ascending order never beaten "
        f"(last trial: {peaks[ascending]} vs worst {worst})"
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_lazy_never_searches_more():
    """Lazy call counts <= eager for the same tree on every criterion-1 trial;
    strictly fewer on >= 80% of the designated skewed-stream trials."""
    results, _ = _delta_trials()
    for idx, t in enumerate(results):
        assert t.calls["singlelazy"] <= t.calls["single"], f"trial {idx}"
        assert t.calls["pathlazy"] <= t.calls["path"], f"trial {idx}"
    skewed = [t for t in results if t.skewed]
    strict = sum(1 for t in skewed if t.calls["singlelazy"] < t.calls["single"])
    assert len(skewed) == 60
    assert strict >= 0.8 * len(skewed), f"strict on only {strict}/{len(skewed)}"
    print(
        f"criterion 5: PASS — lazy <= eager on 300/300, strict on "
        f"{strict}/{len(skewed)} skewed trials"
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_lazy_outruns_rescan_baseline():
    """100k-edge skewed netflow stream, 4-edge path: SingleLazy total wall time
    <= 1/5 of the per-edge VF2 rescan baseline; identical emissions."""
    t_start = time.perf_counter()
    schema = netflow_schema(hosts=150, skew=1.5, protocols=256)
    records = generate_stream(schema, 100_000, Random(7), edges_per_tick=30)
    query = QueryGraph(
        ["ip"] * 5,
        [
            QueryEdge(0, 1, "proto250"),
            QueryEdge(1, 2, "TCP"),
            QueryEdge(2, 3, "TCP"),
            QueryEdge(3, 4, "proto252"),
        ],
    )
    plan = plan_query(query, collect_stats(records[:20_000]), mode="single")

    eng = Engine(query, plan.tree, 800, lazy=True)
    lazy_sigs = set()
    t0 = time.perf_counter()
    for r in records:
        for m in eng.process(r):
            lazy_sigs.add(m.pairs)
    w_lazy = time.perf_counter() - t0

    base = RescanEngine(query, 800)
    base_sigs = set()
    t0 = time.perf_counter()
    for r in records:
        for m in base.process(r):
            base_sigs.add(m.pairs)
    w_vf2 = time.perf_counter() - t0

    total = time.perf_counter() - t_start
    assert lazy_sigs == base_sigs and lazy_sigs
    assert w_lazy * 5 <= w_vf2, f"lazy {w_lazy:.2f}s vs vf2 {w_vf2:.2f}s"
    assert total < 300.0, f"criterion took {total:.0f}s (pinned < 5 min)"
    print(
        f"criterion 6: PASS — lazy {w_lazy:.2f}s vs rescan {w_vf2:.2f}s "
        f"({w_vf2 / w_lazy:.1f}x), {len(lazy_sigs)} identical emissions"
    )


# ---------------------------------------------------------------- criterion 7

def _plan_for_xi(c2: int, total2: int = 4_000_000):
    """Plan a 2-edge path against a synthetic table with xi = 4 * c2/total2."""
    query = QueryGraph(
        ["X", "Y", "Z"], [QueryEdge(0, 1, "a"), QueryEdge(1, 2, "b")]
    )
    _, ka = primitive_key(query, (0,))
    _, kb = primitive_key(query, (1,))
    _, kp = primitive_key(query, (0, 1))
    filler = ("W", ("w", "W", "out"), ("w", "W", "out"))
    table = SelectivityTable(
        sample_size=2_000_000,
        arity1={ka: 1_000_000, kb: 1_000_000},
        arity2={kp: c2, filler: total2 - c2},
    )
    return plan_query(query, table, mode="auto")


def _low_xi_stream(rng: Random) -> list[RawEdge]:
    """Two equally common labels on disjoint host groups; an 'a' edge reaches
    into the 'b' group only every 8000th arrival, plus a few planted chains
    after the stats sample so the pattern genuinely occurs."""
    group = 80
    groups = {lab: [f"{lab.upper()}{j}" for j in range(group)] for lab in "ab"}
    out: list[RawEdge] = []
    n_a = 0
    for i in range(120_000):
        ts = i // 10
        if i >= 30_000 and i % 15_000 == 0:
            k = i // 15_000
            out.append(RawEdge(ts, f"A{k}", "ip", "a", f"B{k}", "ip"))
            out.append(RawEdge(ts, f"B{k}", "ip", "b", f"B{k + 1}", "ip"))
        lab = "ab"[rng.randrange(2)]
        src = rng.choice(groups[lab])
        dst = rng.choice(groups[lab])
        if lab == "a":
            n_a += 1
            if n_a % 8_000 == 0:
                dst = rng.choice(groups["b"])
        out.append(RawEdge(ts, src, "ip", lab, dst, "ip"))
    return out


def test_criterion_7_strategy_threshold_and_low_xi_win():
    """choose_strategy flips exactly at 0.001 across a xi sweep spanning 1e-6
    to 1e-1, and on a constructed low-xi workload PathLazy beats SingleLazy
    on wall time (directional, no fixed ratio)."""
    assert choose_strategy(math.nextafter(0.001, 0.0)) == "PathLazy"
    assert choose_strategy(0.001) == "SingleLazy"

    sweep = [1, 10, 100, 999, 1_000, 10_000, 100_000]  # c2 -> xi = c2 / 1e6
    strategies = []
    for c2 in sweep:
        plan = _plan_for_xi(c2)
        xi = c2 / 1_000_000
        assert plan.relative == (0.001 if c2 == 1_000 else xi) or math.isclose(
            plan.relative, xi, rel_tol=1e-12
        ), f"c2={c2}: relative {plan.relative!r}"
        assert plan.strategy == choose_strategy(plan.relative)
        strategies.append(plan.strategy)
    assert strategies == ["PathLazy"] * 4 + ["SingleLazy"] * 3, strategies

    # constructed low-xi workload: the auto planner flips to PathLazy and wins
    query = QueryGraph(["ip"] * 3, [QueryEdge(0, 1, "a"), QueryEdge(1, 2, "b")])
    records = _low_xi_stream(Random(413))
    table = collect_stats(records[:20_000])
    auto = plan_query(query, table, mode="auto")
    assert auto.relative < 1e-3, f"xi {auto.relative:.2e}"
    assert auto.strategy == "PathLazy"
    # both engines take the stream in alternating 500-edge chunks, the one
    # that goes first swapping every chunk, and each engine's wall is the sum
    # of its chunk times: a slow phase of a shared host, which lasts from a
    # second to a minute, falls on both.  Best of three.
    walls = {"single": math.inf, "path": math.inf}
    for _ in range(3):
        engines = {
            mode: Engine(query, plan_query(query, table, mode=mode).tree, 40, lazy=True)
            for mode in ("single", "path")
        }
        spent = dict.fromkeys(engines, 0.0)
        sigs: dict[str, set] = {mode: set() for mode in engines}
        order = ["single", "path"]
        for start in range(0, len(records), 500):
            chunk = records[start:start + 500]
            for mode in order:
                eng, got = engines[mode], sigs[mode]
                t0 = time.perf_counter()
                for r in chunk:
                    for m in eng.process(r):
                        got.add(m.pairs)
                spent[mode] += time.perf_counter() - t0
            order.reverse()
        for mode, wall in spent.items():
            walls[mode] = min(walls[mode], wall)
    assert sigs["single"] == sigs["path"] and sigs["path"]
    assert walls["path"] < walls["single"], walls
    print(
        f"criterion 7: PASS — flip pinned at 0.001; low-xi (xi={auto.relative:.1e}) "
        f"PathLazy {walls['path']:.2f}s < SingleLazy {walls['single']:.2f}s "
        f"(ratio {walls['path'] / walls['single']:.3f}), "
        f"{len(sigs['path'])} identical emissions"
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_window_boundary_is_strict():
    """A completing edge arriving exactly t_W after the match's earliest edge
    yields zero emissions; arriving at t_W - 1 yields exactly one."""
    query = QueryGraph(["A"] * 3, [QueryEdge(0, 1, "a"), QueryEdge(1, 2, "b")])
    window = 10
    for gap, want in ((window, 0), (window - 1, 1)):
        records = [raw(0, "u", "a", "v"), raw(gap, "v", "b", "w")]
        engines = engines_for(query, records, window)
        engines.append(("vf2", RescanEngine(query, window)))
        for name, eng in engines:
            emitted = [m.pairs for r in records for m in eng.process(r)]
            assert len(emitted) == want, f"{name} at gap {gap}: {emitted}"
            if want:
                assert emitted == [((0, 0), (1, 1))], f"{name}: {emitted}"
    print("criterion 8: PASS — span == t_W emits 0, span == t_W - 1 emits 1")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_census_wall_time_is_linear():
    """collect_stats wall time per edge, its full table read, stays within
    2x across stream sizes 100k..800k (linear-in-E trend)."""
    sizes = [100_000, 200_000, 400_000, 800_000]
    schema = netflow_schema(hosts=300, skew=1.0, protocols=7)
    records = generate_stream(schema, sizes[-1], Random(99), edges_per_tick=50)
    per_edge: list[float] = []
    for size in sizes:
        sample = records[:size]
        census(sample)  # warm caches before timing
        best = min(
            _timed(census, sample) for _ in range(3)
        )
        per_edge.append(best / size)
    ratio = max(per_edge) / min(per_edge)
    assert ratio <= 2.0, f"per-edge times {per_edge} span {ratio:.2f}x"
    print(
        "criterion 9: PASS — per-edge census time "
        + ", ".join(f"{t * 1e6:.2f}us@{s // 1000}k" for t, s in zip(per_edge, sizes))
        + f" (spread {ratio:.2f}x)"
    )


def census(records) -> dict:
    """Every 2-edge path count of ``records``, as ``dgq stats`` writes them:
    the pair sum runs when the full table is read."""
    return collect_stats(records).arity2


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
