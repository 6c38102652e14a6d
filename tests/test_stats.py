"""Frequency statistics: 2-edge path counts, selectivity tables."""
from __future__ import annotations

import gc
import json
import tracemalloc
from collections import Counter
from random import Random

import pytest

from dgquery import stats
from dgquery.errors import (
    LabelConflictError,
    ParseError,
    StreamOrderError,
    UnsupportedPrimitiveError,
)
from dgquery.generate import generate_stream, netflow_schema, random_schema
from dgquery.graph import DynamicGraph, EdgeRecord, RawEdge
from dgquery.stats import SelectivityTable, collect_stats, primitive_key

from conftest import live_records, path_query, q, raw


def describe(e: EdgeRecord, center: str):
    """``e`` as seen from ``center``, one of its endpoints: (edge label, far
    label, role).  A self-loop is described once, in its out role."""
    _, src, _, src_type, dst_type, edge_type, _ = e
    if src == center:
        return (edge_type, dst_type, "out")
    return (edge_type, src_type, "in")


def brute_force_path_counts(graph: DynamicGraph):
    """Independent oracle: classify every unordered pair of live edges that
    shares an endpoint, once per shared center vertex."""
    counts: dict = {}
    edges = list(graph.live_edges())
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            for center in {e1[1], e1[2]} & {e2[1], e2[2]}:
                d1 = describe(e1, center)
                d2 = describe(e2, center)
                if d2 < d1:
                    d1, d2 = d2, d1
                key = (graph.vertex_label(center), d1, d2)
                counts[key] = counts.get(key, 0) + 1
    return counts


def graph_census(graph: DynamicGraph):
    """The 2-edge path counts of ``graph``'s live window, walked vertex by
    vertex: each vertex's descriptor tally over its out- and in-lists (a
    self-loop once, from the out-list), its pairs summed by a double loop."""
    counts: dict = {}
    for vid, label in graph.vertices():
        tally = Counter(describe(e, vid) for e in graph.out_edges(vid))
        tally.update(describe(e, vid) for e in graph.in_edges(vid) if e[1] != e[2])
        descs = sorted(tally)
        for i, d1 in enumerate(descs):
            n = tally[d1]
            for d2 in descs[i:]:
                pairs = n * (n - 1) // 2 if d1 == d2 else n * tally[d2]
                if pairs:
                    key = (label, d1, d2)
                    counts[key] = counts.get(key, 0) + pairs
    return counts


def census(records) -> dict:
    return collect_stats(records).arity2


def graph_of(records, window=None) -> DynamicGraph:
    g = DynamicGraph(window)
    for r in records:
        g.add_edge(r)
    return g


# ---------------------------------------------------------------- path counts

def test_star_path_counts_hand_derived():
    # center c with 3 out-edges 'e' to posts and 2 in-edges 'f' from users:
    # same-descriptor pairs C(3,2)=3 and C(2,2)=1, cross pairs 3*2=6
    records = [raw(0, "c", "e", f"p{i}", src_type="C", dst_type="P") for i in range(3)]
    records += [raw(0, f"u{i}", "f", "c", src_type="U", dst_type="C") for i in range(2)]
    got = census(records)
    out_d = ("e", "P", "out")
    in_d = ("f", "U", "in")
    assert got == {
        ("C", out_d, out_d): 3,
        ("C", in_d, in_d): 1,
        ("C", min(in_d, out_d), max(in_d, out_d)): 6,
    }
    assert sum(got.values()) == 10  # C(5,2) at the center


def test_path_counts_parallel_and_loop_edges():
    records = [
        raw(0, "a", "e", "b"),
        raw(0, "a", "e", "b"),  # parallel: counted at both endpoints
        raw(0, "a", "e", "a"),  # loop: one descriptor at 'a'
    ]
    got = census(records)
    assert got == brute_force_path_counts(graph_of(records))
    # a: descriptors {e-out-to-A: 2 parallel, e-A-out(loop): +1 same desc!} ->
    # the loop and the parallels share ("e","A","out"), so C(3,2)=3 pairs at a
    assert got[("A", ("e", "A", "out"), ("e", "A", "out"))] == 3
    assert got[("A", ("e", "A", "in"), ("e", "A", "in"))] == 1  # at b


def test_path_counts_match_oracle_randomized(rng):
    for trial in range(25):
        schema = random_schema(rng)
        window = rng.choice((None, 6))
        g = graph_of(generate_stream(schema, rng.randrange(10, 120), rng, edges_per_tick=3), window)
        assert census(live_records(g)) == brute_force_path_counts(g), f"trial {trial}"


def test_path_counts_handshake_identity(rng):
    # summed over every key, the census counts the unordered pairs of
    # incident edges, i.e. sum over v of C(d(v), 2), a self-loop once at v
    for _ in range(10):
        schema = random_schema(rng)
        g = graph_of(generate_stream(schema, 150, rng), rng.choice((None, 9)))
        degree: Counter = Counter()
        for e in g.live_edges():
            degree.update({e[1], e[2]})
        expected = sum(d * (d - 1) // 2 for d in degree.values())
        assert sum(census(live_records(g)).values()) == expected


def test_path_counts_numbering_edge_cases():
    # the census numbers each center label's descriptors in sorted order;
    # each case is checked against the oracle
    assert census([]) == {}
    records = [
        raw(0, "a", "x", "b"),
        raw(0, "a", "x", "b"),  # parallel to the one before
        raw(0, "a", "a", "a"),  # a self-loop
        raw(0, "a", "y", "b"),
        raw(0, "a", "y", "c", dst_type="C"),
        raw(0, "d", "z", "a"),
        raw(0, "c", "z", "e", src_type="C", dst_type="C"),  # a second center label
        raw(0, "f", "x", "c", dst_type="C"),
        raw(0, "c", "y", "c", src_type="C", dst_type="C"),  # a self-loop there
        raw(0, "k", "x", "m"),  # k holds one descriptor twice
        raw(0, "k", "x", "n"),
        raw(0, "p", "z", "q"),  # p and q hold one descriptor once
    ]
    reverse = {"a": "z", "x": "y", "y": "x", "z": "a"}
    relabelings = [
        lambda label: label,
        reverse.__getitem__,  # reverses the label order
        lambda label: "*",  # merges descriptors at a and at c
    ]
    for i, relabel in enumerate(relabelings):
        relabeled = [r._replace(edge_type=relabel(r.edge_type)) for r in records]
        got = census(relabeled)
        assert got == brute_force_path_counts(graph_of(relabeled)), f"relabeling {i}"
        assert {center for center, _, _ in got} == {"A", "C"}
        assert all(d1 <= d2 for _, d1, d2 in got)
    # merged (the last relabeling), the parallel pair, the loop and the
    # y-edge at a are one descriptor held 4 times, C(4,2) pairs, and k adds
    # its one pair
    assert got[("A", ("*", "A", "out"), ("*", "A", "out"))] == 6 + 1


def test_path_census_holds_little_beyond_its_table():
    # the census holds one tally entry per (vertex, descriptor), then flat
    # lists in their place, and one row at a time: its peak above the sample
    # stays near the size of the table it returns
    schema = netflow_schema(hosts=150, skew=1.5, protocols=256)
    records = generate_stream(schema, 20_000, Random(7), edges_per_tick=10)
    gc.collect()
    tracemalloc.start()
    try:
        counts = census(records)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) > 10_000
    assert peak <= 1.3 * kept, (peak, kept)


# ---------------------------------------------------------------------- table

def make_table():
    return SelectivityTable(
        sample_size=10,
        arity1={("A", "e", "A"): 6, ("A", "f", "B"): 4},
        arity2={("A", ("e", "A", "out"), ("f", "B", "out")): 5},
    )


def test_table_selectivities():
    t = make_table()
    assert t.total1 == 10
    assert t.total2 == 5
    assert t.selectivity(1, ("A", "e", "A")) == pytest.approx(0.6)
    assert t.selectivity(1, ("Z", "z", "Z")) == 0.0
    assert t.selectivity(2, ("A", ("e", "A", "out"), ("f", "B", "out"))) == pytest.approx(1.0)
    assert t.frequency(1, ("A", "f", "B")) == 4
    assert t.frequency(2, ("A", ("e", "A", "out"), ("f", "B", "out"))) == 5
    assert t.frequency(2, ("A", ("f", "B", "out"), ("e", "A", "out"))) == 0  # not canonical
    assert t == make_table()
    assert t != SelectivityTable(sample_size=10, arity1=t.arity1, arity2={})


def test_table_empty_totals_give_zero_selectivity():
    t = SelectivityTable(sample_size=0)
    assert t.selectivity(1, ("A", "e", "A")) == 0.0
    assert t.selectivity(2, ("A", ("e", "A", "out"), ("e", "A", "out"))) == 0.0


def test_table_json_round_trip(tmp_path):
    t = make_table()
    again = SelectivityTable.from_json(t.to_json())
    assert again.sample_size == t.sample_size
    assert again.arity1 == t.arity1
    assert again.arity2 == t.arity2
    path = tmp_path / "stats.json"
    path.write_text(t.to_json(), encoding="utf-8")
    assert SelectivityTable.from_json(path.read_text(encoding="utf-8")).arity2 == t.arity2


def repeat_row(text, arity):
    """The stats document ``text`` with its first ``arity`` row listed twice."""
    doc = json.loads(text)
    doc[arity].append(doc[arity][0])
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: "not json", "bad JSON"),
        (lambda d: "[]", "must be an object"),
        (lambda d: d.replace('"version": 1', '"version": 9'), "unsupported stats version"),
        (lambda d: d.replace('"count": 6', '"count": 7', 1), "totals do not match"),
        (lambda d: d.replace('"count": 6', '"count": "x"'), "row count must be a count"),
        (lambda d: d.replace('"count": 5', '"count": Infinity'), "row count must be a count"),
        (lambda d: d.replace('"count": 6', '"count": 6.9'), "row count must be a count"),
        (lambda d: d.replace('"N": 10', '"N": true'), "N must be a count"),
        (lambda d: d.replace('"N": 10', '"N": "many"'), "N must be a count"),
        (lambda d: d.replace('"arity2": 5', '"arity2": "x"'), "totals arity2 must be a count"),
        # negative counts are refused even when the totals match them
        (lambda d: d.replace('"count": 6', '"count": -4').replace('"arity1": 10', '"arity1": 0'),
         "row count must be a count"),
        (lambda d: d.replace('"N": 10', '"N": -1'), "N must be a count"),
        (lambda d: d.replace('"src_type": "A"', '"src_type": 5', 1), "a label must be a string, not 5"),
        (lambda d: d.replace('"edge_type": "f"', '"edge_type": null', 1), "a label must be a string, not None"),
        (lambda d: d.replace('"center_type": "A"', '"center_type": ["A"]'), "a label must be a string"),
        (lambda d: d.replace('"far_type": "B"', '"far_type": 1'), "a label must be a string, not 1"),
        (lambda d: d.replace('"dir": "out"', '"dir": "sideways"', 1), "dir must be 'out' or 'in', not 'sideways'"),
        # a repeated row is refused even when the totals match the rows
        # left after the later one replaced the earlier
        (lambda d: repeat_row(d, "arity1"), "repeated row ('A', 'e', 'A')"),
        (lambda d: repeat_row(d, "arity2"), "repeated row ('A', ('e', 'A', 'out')"),
    ],
)
def test_table_json_validation(mangle, fragment):
    text = mangle(make_table().to_json())
    assert text != make_table().to_json()
    with pytest.raises(ParseError) as ei:
        SelectivityTable.from_json(text)
    assert fragment in str(ei.value)


def test_subgraph_selectivity_products():
    t = make_table()
    query = q("node 0 A\nnode 1 A\nnode 2 B\nedge 0 0 1 e\nedge 1 0 2 f")
    assert t.selectivity(*primitive_key(query, [0])) == pytest.approx(0.6)
    assert t.selectivity(*primitive_key(query, [0, 1])) == pytest.approx(1.0)


def test_collect_stats_counts_whole_sample():
    records = [
        raw(0, "a", "e", "b"),
        raw(3, "b", "e", "c"),
        raw(50, "c", "f", "a", dst_type="A"),
    ]
    t = collect_stats(records)
    assert t.sample_size == 3
    assert t.total1 == 3
    # nothing expires while sampling: the ts=0 edge still pairs at b and a
    assert t.arity1 == {("A", "e", "A"): 2, ("A", "f", "A"): 1}
    assert t.arity2 == graph_census(graph_of(records))


# ------------------------------------------------- collect_stats, differential

# sample sizes and bad-edge positions sit at and around multiples of it
CHUNK = 4096


def reference_stats(records):
    """collect_stats through the store: every record into a full-window
    graph, then a walk of the graph's census and an edge-key tally."""
    g = DynamicGraph(window=None)
    arity1: dict = {}
    n = 0
    for r in records:
        rec = g.add_edge(r)
        key = (rec[3], rec[5], rec[4])
        arity1[key] = arity1.get(key, 0) + 1
        n += 1
    return n, arity1, graph_census(g)


def outcome(build, records):
    """What ``build`` makes of ``records()``: its counts, or the type and
    message of what it raised."""
    try:
        result = build(records())
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, SelectivityTable):
        return result.sample_size, result.arity1, result.arity2
    return result


def random_sample(rng: Random, n: int) -> list[RawEdge]:
    """``n`` edges over 40 vertices of two labels and three edge labels, so
    parallel edges abound; one in 20 is a self-loop."""
    labels = {f"v{i}": rng.choice("AB") for i in range(40)}
    names = sorted(labels)
    out = []
    ts = 10
    for _ in range(n):
        ts += rng.random() < 0.3
        src = rng.choice(names)
        dst = src if rng.random() < 0.05 else rng.choice(names)
        out.append(RawEdge(ts, src, labels[src], rng.choice("xyz"), dst, labels[dst]))
    return out


def other(label: str) -> str:
    return "B" if label == "A" else "A"


def assert_same_outcome(records):
    want = outcome(reference_stats, lambda: iter(records))
    assert outcome(collect_stats, lambda: iter(records)) == want
    return want


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
def test_collect_stats_matches_the_graph_census(n):
    rng = Random(1400 + n)
    records = random_sample(rng, n)
    got = assert_same_outcome(records)
    assert got[0] == n
    if n > 1:
        # both center labels hold paths, self-loops and parallel edges occur
        assert {center for center, _, _ in got[2]} == {"A", "B"}
        assert any(r.src == r.dst for r in records)
        assert len({(r.src, r.edge_type, r.dst) for r in records}) < n


@pytest.mark.parametrize("at", [2, 100, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 3])
def test_collect_stats_raises_what_the_store_raises(at):
    # each case puts its bad edges at position ``at`` of a good stream
    base = random_sample(Random(1500 + at), 2 * CHUNK + 3)
    prior = next(r for r in base[:at] if r.src != r.dst)  # two vertices met before ``at``
    a, a_type, b, b_type = prior.src, prior.src_type, prior.dst, prior.dst_type
    ts = base[at].timestamp
    cases = {
        "disorder": (StreamOrderError, [base[at]._replace(timestamp=base[at - 1].timestamp - 1)]),
        "source label": (LabelConflictError, [RawEdge(ts, a, other(a_type), "x", "fresh", "A")]),
        "destination label": (LabelConflictError, [RawEdge(ts, "fresh", "A", "x", b, other(b_type))]),
        # the source is checked first
        "both labels": (LabelConflictError, [RawEdge(ts, a, other(a_type), "x", b, other(b_type))]),
        "new two-label loop": (LabelConflictError, [RawEdge(ts, "fresh", "A", "x", "fresh", "B")]),
        # the loop's source label agrees; its destination label is the conflict
        "old vertex, two-label loop": (LabelConflictError, [RawEdge(ts, a, a_type, "x", a, other(a_type))]),
        "old vertex, loop of its other label": (LabelConflictError, [
            RawEdge(ts, a, other(a_type), "x", a, other(a_type))
        ]),
        # two faults: the first one is raised
        "conflict, then disorder": (LabelConflictError, [
            RawEdge(ts, a, other(a_type), "x", "fresh", "A"),
            base[at]._replace(timestamp=0),
        ]),
        "disorder, then conflict": (StreamOrderError, [
            base[at]._replace(timestamp=0),
            RawEdge(ts, a, other(a_type), "x", "fresh", "A"),
        ]),
    }
    messages = {}
    for name, (error, bad) in cases.items():
        got = assert_same_outcome(base[:at] + bad + base[at + 1:])
        assert got[0] is error, name
        messages[name] = got[1]
    assert messages["both labels"] == f"vertex {a!r} seen as {a_type!r}, now {other(a_type)!r}"
    assert messages["old vertex, two-label loop"] == messages["both labels"]
    assert messages["new two-label loop"].startswith("self-loop on 'fresh'")
    # a vertex met once, at the head of the stream, and not again before
    # ``at`` (in an earlier chunk, once ``at`` is past the first)
    records = [RawEdge(0, "early", "A", "x", "fresh", "A")] + base[1:at]
    records += [RawEdge(ts, "other", "A", "x", "early", "B")] + base[at + 1:]
    assert assert_same_outcome(records) == (LabelConflictError, "vertex 'early' seen as 'A', now 'B'")


@pytest.mark.parametrize("at", [50, CHUNK - 1, CHUNK + 50])
def test_collect_stats_checks_the_edges_read_before_a_failing_source(at):
    # the store would have rejected a bad edge before the source failed, so
    # a chunk cut short by a failure is still checked first
    base = random_sample(Random(1600 + at), at)
    prior = base[at // 2]

    def failing(records):
        yield from records
        raise ParseError("unreadable", line=len(records) + 1)

    conflicted = base[:]
    conflicted[at - 10] = conflicted[at - 10]._replace(src=prior.src, src_type=other(prior.src_type))
    for records, error in ((base, ParseError), (conflicted, LabelConflictError)):
        # a generator is used up by one run, so each side gets its own
        want = outcome(reference_stats, lambda: failing(records))
        assert want[0] is error
        assert outcome(collect_stats, lambda: failing(records)) == want


def test_collect_stats_reads_nothing_past_the_first_bad_edge():
    pulled = 0

    def counting(records):
        nonlocal pulled
        for r in records:
            pulled += 1
            yield r

    base = random_sample(Random(1650), 10_000)
    prior = next(r for r in base[:10] if r.src != r.dst)
    conflicted = base[:]
    conflicted[10] = RawEdge(base[10].timestamp, prior.src, other(prior.src_type), "x", "fresh", "A")
    with pytest.raises(LabelConflictError):
        collect_stats(counting(conflicted))
    assert pulled == 11
    # a clean stream is read once, whole
    pulled = 0
    assert collect_stats(counting(base)).sample_size == 10_000
    assert pulled == 10_000


def test_collect_stats_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("collect_stats used the store")

    records = random_sample(Random(17), 300)
    want = reference_stats(records)
    monkeypatch.setattr(DynamicGraph, "__init__", refuse)
    monkeypatch.setattr(DynamicGraph, "add_edge", refuse)
    t = collect_stats(records)
    assert (t.sample_size, t.arity1, t.arity2) == want


# ------------------------------------------------------ path keys on demand

def key_universe(records):
    """Every path key, canonical or not, over the labels of ``records`` plus
    an unseen edge label "q" and an unseen vertex label "Z"."""
    vertex_labels = sorted({r.src_type for r in records} | {r.dst_type for r in records} | {"Z"})
    edge_labels = sorted({r.edge_type for r in records} | {"q"})
    descs = [(e, far, role) for e in edge_labels for far in vertex_labels for role in ("in", "out")]
    return [(center, d1, d2) for center in vertex_labels for d1 in descs for d2 in descs]


@pytest.mark.parametrize("n", [0, 1, 2, 60, CHUNK + 1, 2 * CHUNK + 7])
def test_path_keys_read_on_demand_equal_the_full_table(n, monkeypatch):
    # parallel edges, self-loops and chunk boundaries (random_sample), read
    # from a fresh table with the sum of every key refused
    def refuse(tallies):
        raise AssertionError("a path key read summed every key")

    records = random_sample(Random(1700 + n), n)
    keys = key_universe(records)
    with monkeypatch.context() as patched:
        patched.setattr(stats, "_sum_pairs", refuse)
        table = collect_stats(records)
        read = {key: table.frequency(2, key) for key in keys}
        total2 = table.total2
        selectivity = {key: table.selectivity(2, key) for key in keys}
    full = table.arity2
    assert full == collect_stats(records).arity2 == graph_census(graph_of(records))
    assert set(full) <= set(keys)
    # every built key and every absent one: an unseen descriptor, an unseen
    # center label, d1 == d2, and a key out of canonical order
    assert read == {key: full.get(key, 0) for key in keys}
    assert total2 == sum(full.values()) == table.total2
    assert selectivity == {key: full.get(key, 0) / total2 if total2 else 0.0 for key in keys}
    if n > 2:
        absent = [key for key in keys if key not in full]
        assert any(center == "Z" for center, _, _ in absent)
        assert any(d1[0] == "q" for _, d1, _ in absent)
        assert any(d1 == d2 for _, d1, d2 in absent)
        assert any(d2 < d1 and (center, d2, d1) in full for center, d1, d2 in absent)
    # the table that read on demand saves and compares as the full one
    again = SelectivityTable.from_json(table.to_json())
    assert again == table == collect_stats(records)
    assert (again.total1, again.total2) == (table.total1, table.total2)


def saturating_stream(n: int):
    """``n`` edges among 150 hosts over 7 protocols, made one at a time: every
    key the statistics can hold turns up early."""
    rng = Random(23)
    hosts = [f"h{i}" for i in range(150)]
    for i in range(n):
        yield RawEdge(i // 8, rng.choice(hosts), "host", f"p{rng.randrange(7)}", rng.choice(hosts), "host")


def test_collect_stats_memory_is_bounded_by_its_keys_not_the_sample():
    def traced_peak(n: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            table = collect_stats(saturating_stream(n))
            table.arity2  # the full table, as ``dgq stats`` writes it
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.sample_size == n
        return peak

    short = traced_peak(50_000)
    assert traced_peak(200_000) <= 1.2 * short


# -------------------------------------------------------------- primitive key

def test_primitive_key_single_edge():
    query = q("node 0 A\nnode 1 B\nedge 0 0 1 e")
    assert primitive_key(query, [0]) == (1, ("A", "e", "B"))


def test_primitive_key_pair_canonical_center():
    query = path_query(["e", "f"], vertex_label="A")
    arity, key = primitive_key(query, [0, 1])
    assert arity == 2
    assert key == ("A", ("e", "A", "in"), ("f", "A", "out"))
    # the same answer regardless of edge id order
    assert primitive_key(query, [1, 0])[1] == key


def test_primitive_key_parallel_edges_take_min_center():
    query = q("node 0 A\nnode 1 B\nedge 0 0 1 e\nedge 1 0 1 f")
    _, key = primitive_key(query, [0, 1])
    a_key = ("A", ("e", "B", "out"), ("f", "B", "out"))
    b_key = ("B", ("e", "A", "in"), ("f", "A", "in"))
    assert key == min(a_key, b_key)


def test_primitive_key_rejects_bad_pieces():
    query = path_query(["e", "f", "g"])
    with pytest.raises(UnsupportedPrimitiveError):
        primitive_key(query, [0, 2])  # no shared vertex
    with pytest.raises(UnsupportedPrimitiveError):
        primitive_key(query, [0, 1, 2])
