"""Sliding-window multigraph store."""
from __future__ import annotations

import io
import math
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquery import graph as graph_module
from dgquery.errors import LabelConflictError, ParseError, StreamOrderError
from dgquery.graph import (
    _VERTEX_MIN_PRUNE,
    DynamicGraph,
    RawEdge,
    _parse_checked,
    format_edge_line,
    parse_edge_line,
    read_edge_stream,
)
from dgquery.stats import collect_stats

from conftest import raw


def test_add_edge_assigns_increasing_ids():
    g = DynamicGraph()
    r0 = g.add_edge(raw(0, "a", "e", "b"))
    r1 = g.add_edge(raw(0, "b", "e", "c"))
    r2 = g.add_edge(raw(3, "a", "f", "c"))
    assert (r0[0], r1[0], r2[0]) == (0, 1, 2)
    assert g.edges_ingested == 3
    assert g.edge_count == 3
    assert len(dict(g.vertices())) == 3


def test_window_eviction_boundary():
    # retained iff timestamp > t_last - window: an edge exactly one full
    # window old is gone, one tick younger survives
    g = DynamicGraph(window=5)
    g.add_edge(raw(0, "a", "e", "b"))
    g.add_edge(raw(4, "c", "e", "d"))
    assert g.edge_count == 2
    g.add_edge(raw(5, "c", "e", "a"))  # cutoff 0: evicts the ts=0 edge
    assert g.edge_count == 2
    live = dict(g.vertices())
    assert "b" not in live
    assert "a" in live  # resurrected by the new edge
    g.add_edge(raw(10, "x", "e", "y"))  # cutoff 5: evicts ts=4 and ts=5
    assert g.edge_count == 1
    assert g.edges_evicted == 3


@pytest.mark.parametrize("window", [5, None])
def test_fresh_graph_cutoff_is_minus_infinity(window):
    # before the first edge t_last is -inf, and so is the cutoff, bounded
    # window or not: nothing has expired, and a first edge at 0 is in order
    g = DynamicGraph(window)
    assert g.cutoff == -math.inf
    assert (g.edge_count, g.edges_evicted, len(dict(g.vertices())), g.t_last) == (0, 0, 0, -math.inf)
    g.add_edge(raw(0, "a", "e", "b"))
    assert (g.edge_count, g.edges_evicted, g.t_last) == (1, 0, 0)
    assert g.cutoff == (-math.inf if window is None else -5)


def test_unbounded_window_keeps_everything():
    g = DynamicGraph(window=None)
    for i in range(100):
        g.add_edge(raw(i * 10, f"v{i}", "e", f"v{i + 1}"))
    assert g.edge_count == 100
    assert g.edges_evicted == 0


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        DynamicGraph(window=0)
    with pytest.raises(ValueError):
        DynamicGraph(window=-3)


def test_stream_order_enforced():
    g = DynamicGraph()
    g.add_edge(raw(5, "a", "e", "b"))
    g.add_edge(raw(5, "b", "e", "c"))  # ties are fine
    with pytest.raises(StreamOrderError):
        g.add_edge(raw(4, "c", "e", "d"))


# each rejection test sends its bad edge in indexed, as every store but the
# engine's takes it, and then, on a fresh store, unindexed, as the engine's
# store takes an edge whose label no qedge carries: both kinds of ingest run
# the same checks
INGESTS = (True, False)


def test_label_conflict_detected_and_cleared_by_eviction():
    for index in INGESTS:
        g = DynamicGraph(window=2)
        g.add_edge(raw(0, "a", "e", "b"))
        with pytest.raises(LabelConflictError):
            g.add_edge(raw(1, "a", "e", "c", src_type="B"), index)
        # after 'a' has no live edges it may return under a new label
        g.add_edge(raw(10, "x", "e", "y"))
        assert "a" not in dict(g.vertices())
        g.add_edge(raw(11, "a", "e", "x", src_type="B"), index)
        assert g.vertex_label("a") == "B"


def test_self_loop_with_two_labels_is_rejected():
    # both endpoint checks would pass on a new vertex; the loop itself must
    # not label it twice, in the store or in the statistics sample
    for index in INGESTS:
        g = DynamicGraph()
        with pytest.raises(LabelConflictError):
            g.add_edge(RawEdge(0, "a", "A", "e", "a", "B"), index)
        assert list(g.vertices()) == [] and g.edges_ingested == 0
        with pytest.raises(LabelConflictError):
            collect_stats([RawEdge(0, "a", "A", "e", "a", "B")])
        g.add_edge(RawEdge(0, "a", "A", "e", "a", "A"), index)
        assert g.vertex_label("a") == "A"


def test_unindexed_edge_is_checked_and_counted_but_stored_nowhere():
    g = DynamicGraph(window=5)
    rec = g.add_edge(raw(0, "a", "e", "b"))
    assert g.add_edge(raw(1, "b", "x", "c"), False) is None
    assert g.add_edge(raw(2, "c", "e", "a"))[0] == 2  # the unindexed edge used id 1
    assert (g.edges_ingested, g.edge_count, g.t_last) == (3, 2, 2)
    assert [r[0] for r in g.live_edges()] == [0, 2]
    assert list(g.out_edges("b")) == [] and list(g.in_edges("b")) == [rec]
    assert list(g.out_edges("c")) == [r for r in g.live_edges() if r[1] == "c"]
    assert list(g.in_edges("c")) == []
    with pytest.raises(StreamOrderError):
        g.add_edge(raw(1, "p", "x", "q"), False)
    # an unindexed edge moves t_last, so it evicts what expired
    g.add_edge(raw(6, "p", "x", "q"), False)
    assert [r[0] for r in g.live_edges()] == [2] and g.edges_evicted == 1


def test_vertex_kept_live_only_by_an_unindexed_edge():
    g = DynamicGraph(window=5)
    g.add_edge(raw(0, "a", "x", "b"), False)
    assert sorted(g.vertices()) == [("a", "A"), ("b", "A")]
    assert g.vertex_label("a") == "A"
    # live: a conflicting edge of either kind is rejected and changes nothing
    for index in INGESTS:
        with pytest.raises(LabelConflictError):
            g.add_edge(raw(4, "a", "e", "c", src_type="B"), index)
        with pytest.raises(LabelConflictError):
            g.add_edge(raw(4, "c", "e", "b", dst_type="B"), index)
        with pytest.raises(LabelConflictError):
            g.add_edge(RawEdge(4, "a", "A", "e", "a", "B"), index)
    assert (g.edges_ingested, g.t_last) == (1, 0)
    # at t=5 the stamp of t=0 has expired: the vertices are dead, though the
    # table still holds them, and the next edge at one takes it as new
    g.add_edge(raw(5, "p", "x", "q"), False)
    assert sorted(g.vertices()) == [("p", "A"), ("q", "A")]
    with pytest.raises(KeyError):
        g.vertex_label("a")
    # a self-loop on a dead vertex still may not label it twice, with the
    # dead vertex's old label on either end
    for bad in (RawEdge(6, "a", "A", "e", "a", "B"), RawEdge(6, "a", "B", "e", "a", "A")):
        for index in INGESTS:
            with pytest.raises(LabelConflictError):
                g.add_edge(bad, index)
    assert "a" not in dict(g.vertices())
    g.add_edge(raw(6, "a", "e", "z", src_type="B"))
    g.add_edge(raw(6, "c", "x", "b", dst_type="B"), False)
    assert g.vertex_label("a") == "B" and g.vertex_label("b") == "B"
    # q, kept by its stamp of t=5, is live: a self-loop may not relabel it
    with pytest.raises(LabelConflictError):
        g.add_edge(RawEdge(7, "q", "C", "e", "q", "C"), False)


def test_each_unindexed_edge_renews_its_endpoints():
    # a and b come in with an indexed edge and are touched again by an
    # unindexed one: when the indexed edge is evicted, that stamp keeps them
    g = DynamicGraph(window=5)
    g.add_edge(raw(0, "a", "e", "b"))
    g.add_edge(raw(3, "b", "x", "a"), False)
    g.add_edge(raw(5, "p", "x", "q"), False)
    assert g.edge_count == 0 and g.edges_evicted == 1
    assert sorted(v for v, _ in g.vertices()) == ["a", "b", "p", "q"]
    with pytest.raises(LabelConflictError):
        g.add_edge(raw(7, "a", "x", "p", src_type="B"), False)
    g.add_edge(raw(8, "p", "x", "q"), False)
    assert sorted(v for v, _ in g.vertices()) == ["p", "q"]


def test_a_vertex_gets_its_lists_with_its_first_indexed_edge():
    # a vertex of unindexed edges alone holds no lists: 10,000 such edges
    # between fresh vertices cost the table entries and the vertices, which
    # with two empty deques each would take over 1.5 kB a vertex
    records = [raw(0, f"v{i}", "x", f"w{i}") for i in range(10_000)]
    g = DynamicGraph()
    tracemalloc.start()
    try:
        for r in records:
            g.add_edge(r, False)
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dict(g.vertices())) == 20_000
    assert used / 20_000 < 200, used / 20_000
    # its first indexed edge gives it both lists, whichever end it is at,
    # a self-loop included, and they are read and evicted as any others
    g = DynamicGraph(window=5)
    for r in (raw(0, "a", "x", "b"), raw(0, "c", "x", "d")):
        g.add_edge(r, False)
    loop = g.add_edge(raw(1, "a", "e", "a"))
    cb = g.add_edge(raw(2, "c", "e", "b"))
    assert list(g.out_edges("a")) == list(g.in_edges("a")) == [loop]
    assert list(g.out_edges("c")) == list(g.in_edges("b")) == [cb]
    assert list(g.in_edges("c")) == list(g.out_edges("b")) == []
    assert g.out_edges("d") == g.in_edges("d") == ()
    lists = g.out_edges("a"), g.in_edges("a")
    g.add_edge(raw(6, "p", "x", "q"), False)  # evicts the loop, and a dies with it
    assert sorted(v for v, _ in g.vertices()) == ["b", "c", "p", "q"]
    assert g.edges_evicted == 1 and list(g.out_edges("a")) == list(g.in_edges("a")) == []
    g.add_edge(raw(7, "p", "x", "q"), False)
    assert sorted(v for v, _ in g.vertices()) == ["p", "q"]
    # a dead vertex that returns under its label takes its lists back
    back = g.add_edge(raw(7, "a", "e", "p"))
    assert g.out_edges("a") is lists[0] and g.in_edges("a") is lists[1]
    assert list(g.out_edges("a")) == [back] and sorted(v for v, _ in g.vertices()) == ["a", "p", "q"]
    # the other dead vertices wait in the table for the next prune, which
    # drops every one of them
    i = 0
    while len(g.vertex_table) + 2 <= _VERTEX_MIN_PRUNE:
        g.add_edge(raw(7, f"v{i}", "x", f"w{i}"), False)
        i += 1
    g.add_edge(raw(7, "m", "x", "n"), False)
    assert not {"b", "c", "d"} & set(g.vertex_table)
    assert len(g.vertex_table) == len(dict(g.vertices())) == 2 * i + 5


def test_dead_vertices_leave_the_table_by_the_doubling_prune():
    # vertices kept only by their stamps expire without an event; the table
    # drops them once it holds more than the floor, and then again whenever
    # it has doubled since the last prune
    g = DynamicGraph(window=10)
    peak = 0
    for i in range(20_000):
        g.add_edge(raw(i // 4, f"v{i}", "x", f"w{i}"), False)
        peak = max(peak, len(g.vertex_table))
    assert len(dict(g.vertices())) == 80  # two vertices per edge of the last 10 ticks
    assert peak <= _VERTEX_MIN_PRUNE
    # the prune runs as an edge brings a new vertex in; a dead vertex that
    # edge reuses stays, with the edge
    g = DynamicGraph(window=5)
    g.add_edge(raw(0, "a", "x", "b"), False)
    i = 0
    while len(g.vertex_table) + 2 <= _VERTEX_MIN_PRUNE:
        g.add_edge(raw(10, f"v{i}", "x", f"w{i}"), False)
        i += 1
    rec = g.add_edge(raw(11, "a", "e", "new"))
    assert "b" not in g.vertex_table and len(g.vertex_table) == _VERTEX_MIN_PRUNE
    assert list(g.out_edges("a")) == [rec] and dict(g.vertices())["a"] == "A"
    # an unbounded window keeps every vertex live: the prune finds nothing
    g = DynamicGraph()
    for i in range(3_000):
        g.add_edge(raw(i, f"v{i}", "x", f"v{i + 1}"), False)
    assert len(dict(g.vertices())) == len(g.vertex_table) == 3_001


def _store_state(g: DynamicGraph, extra: tuple[str, ...]) -> tuple:
    """Everything an ingest could change, incident edge lists and each
    vertex's stamp included."""
    vids = sorted({vid for vid, _ in g.vertices()} | set(extra))
    return (
        g.edges_ingested,
        g.edges_evicted,
        g.t_last,
        g.edge_count,
        sorted(g.vertices()),
        sorted((vid, v.label, v.stamp) for vid, v in g.vertex_table.items()),
        [(vid, list(g.out_edges(vid)), list(g.in_edges(vid))) for vid in vids],
    )


@pytest.mark.parametrize(
    "bad, error",
    [
        (raw(4, "c", "e", "d"), StreamOrderError),
        (raw(9, "a", "e", "new", src_type="B"), LabelConflictError),  # source
        (raw(9, "new", "e", "b", dst_type="B"), LabelConflictError),  # destination
        (raw(9, "z", "e", "z", dst_type="B"), LabelConflictError),  # a new self-loop
        (raw(9, "a", "e", "a", dst_type="B"), LabelConflictError),  # a live self-loop
    ],
    ids=["order", "source", "destination", "new-self-loop", "live-self-loop"],
)
def test_rejected_edge_changes_nothing(bad, error):
    # the rejected edges at t=9 would evict t <= 6 if they were taken
    for index in INGESTS:
        g = DynamicGraph(window=3)
        for t, (s, d) in enumerate([("x", "y"), ("a", "b"), ("b", "a"), ("a", "a")], start=3):
            g.add_edge(raw(t, s, "e", d))
        g.add_edge(raw(6, "b", "f", "c"))
        assert g.edges_evicted == 1
        before = _store_state(g, (bad.src, bad.dst))
        with pytest.raises(error):
            g.add_edge(bad, index)
        assert _store_state(g, (bad.src, bad.dst)) == before


def test_vertices_live_only_while_touched():
    g = DynamicGraph(window=3)
    g.add_edge(raw(0, "a", "e", "b"))
    assert sorted(v for v, _ in g.vertices()) == ["a", "b"]
    g.add_edge(raw(10, "c", "e", "c"))
    assert sorted(v for v, _ in g.vertices()) == ["c"]
    assert g.vertex_label("c") == "A"


def test_out_and_in_edges_split_by_direction():
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    g.add_edge(raw(0, "b", "e", "a"))
    g.add_edge(raw(0, "a", "f", "b"))
    assert [r[0] for r in g.out_edges("a")] == [0, 2]
    assert [r[0] for r in g.in_edges("a")] == [1]
    assert g.out_edges("missing") == g.in_edges("missing") == ()


def test_self_loop_reported_once_and_counted_once():
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "a"))
    g.add_edge(raw(0, "a", "e", "b"))
    # the loop sits once in each list of its vertex
    assert [r[0] for r in g.out_edges("a")] == [0, 1]
    assert [r[0] for r in g.in_edges("a")] == [0]
    assert g.edge_count == 2 and len(dict(g.vertices())) == 2  # the loop is one edge


def test_parallel_edges_are_distinct_records():
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    g.add_edge(raw(1, "a", "e", "b"))
    assert [r[0] for r in g.out_edges("a")] == [0, 1]
    assert [r[0] for r in g.in_edges("b")] == [0, 1]


def test_window_invariant_randomized(monkeypatch):
    # after every ingest the store holds exactly the indexed edges younger
    # than one window, oldest first, and every vertex in its table, dead or
    # not, lists exactly its live edges in arrival order; over indexed and
    # unindexed edges, self-loops, tied timestamps, dead vertices that come
    # back under a new label (and live ones that may not), and a prune floor
    # low enough that the table is pruned about once in nine edges
    monkeypatch.setattr(graph_module, "_VERTEX_MIN_PRUNE", 6)
    for window in (7, None):
        rng = Random(11)
        g = DynamicGraph(window=window)
        span = math.inf if window is None else window
        ts = 0
        taken: list[tuple[tuple, bool]] = []  # (record, indexed) of every edge taken
        for step in range(800):
            ts += rng.choice((0, 0, 1, 1, 2, 5))
            # a few fresh vertices among twelve that keep coming back
            src, dst = (f"v{rng.randrange(12)}" if rng.random() < 0.8 else f"u{step}{end}" for end in "sd")
            dst = src if rng.random() < 0.1 else dst
            src_type, dst_type = ("A" if rng.random() < 0.9 else "B" for _ in "sd")
            index = rng.random() < 0.7
            labels = {}
            for (_, s, d, st, dt, _, t), _ in taken:
                if t > g.t_last - span:
                    labels[s], labels[d] = st, dt
            conflict = (
                labels.get(src, src_type) != src_type
                or labels.get(dst, dst_type) != dst_type
                or (src == dst and src_type != dst_type)
            )
            edge = raw(ts, src, rng.choice("ef"), dst, src_type, dst_type)
            if conflict:
                with pytest.raises(LabelConflictError):
                    g.add_edge(edge, index)
            else:
                rec = (g.edges_ingested, src, dst, src_type, dst_type, edge.edge_type, ts)
                assert g.add_edge(edge, index) == (rec if index else None)
                taken.append((rec, index))
            alive = [(rec, index) for rec, index in taken if rec[6] > g.t_last - span]
            live = [rec for rec, index in alive if index]
            assert list(g.live_edges()) == live
            assert g.edge_count == len(live)
            assert g.edges_evicted == sum(index for _, index in taken) - len(live)
            labels = {}
            for (_, s, d, st, dt, _, _), _ in alive:
                labels[s], labels[d] = st, dt
            assert dict(g.vertices()) == labels
            for vid in g.vertex_table:
                assert list(g.out_edges(vid)) == [rec for rec in live if rec[1] == vid]
                assert list(g.in_edges(vid)) == [rec for rec in live if rec[2] == vid]


# ---------------------------------------------------------------------- wire

def test_edge_line_round_trip():
    e = raw(42, "a", "e", "b", src_type="T1", dst_type="T2")
    assert parse_edge_line(format_edge_line(e)) == e


def test_edge_line_skips_comments_and_blanks():
    assert parse_edge_line("# comment") is None
    assert parse_edge_line("   ") is None
    assert parse_edge_line("") is None


@pytest.mark.parametrize(
    "line",
    [
        "1\ta\tA\te\tb",  # five fields
        "1\ta\tA\te\tb\tB\textra",
        "x\ta\tA\te\tb\tB",  # bad timestamp
        "-1\ta\tA\te\tb\tB",  # negative timestamp
        "1\t\tA\te\tb\tB",  # empty field
    ],
)
def test_edge_line_errors(line):
    with pytest.raises(ParseError):
        parse_edge_line(line, line_no=3, source="s.tsv")


def test_edge_line_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_edge_line("nope", line_no=7, source="s.tsv")
    assert "s.tsv" in str(ei.value)
    assert "line 7" in str(ei.value)


def test_read_edge_stream():
    text = "# header\n0\ta\tA\te\tb\tB\n\n1\tb\tB\tf\tc\tC\n"
    got = list(read_edge_stream(io.StringIO(text)))
    assert got == [
        RawEdge(0, "a", "A", "e", "b", "B"),
        RawEdge(1, "b", "B", "f", "c", "C"),
    ]


def test_read_edge_stream_reports_line():
    with pytest.raises(ParseError) as ei:
        list(read_edge_stream(["0\ta\tA\te\tb\tB\n", "broken\n"], source="x"))
    assert "line 2" in str(ei.value)


def _reference_parse(line: str, line_no: int | None = None, source: str | None = None) -> tuple | None:
    """The stream format's rules, one at a time, as the parser had them
    before it took well-formed lines in one pass."""
    stripped = line.rstrip("\n")
    if not stripped.strip() or stripped.lstrip().startswith("#"):
        return None
    parts = stripped.split("\t")
    if len(parts) != 6:
        raise ParseError(f"expected 6 tab-separated fields, got {len(parts)}", line=line_no, source=source)
    ts_text, src, src_type, edge_type, dst, dst_type = parts
    try:
        ts = int(ts_text, 10)
    except ValueError:
        raise ParseError(f"bad timestamp {ts_text!r}", line=line_no, source=source) from None
    if ts < 0:
        raise ParseError(f"negative timestamp {ts}", line=line_no, source=source)
    if not (src and src_type and edge_type and dst and dst_type):
        raise ParseError("empty field", line=line_no, source=source)
    return (ts, src, src_type, edge_type, dst, dst_type)


def _outcome(parse, line: str):
    try:
        got = parse(line, 9, "s.tsv")
    except ParseError as e:
        return "error", str(e), e.line, e.source
    return "ok", type(got), got


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=3)
# a timestamp field: plain digits most often, else a sign, a leading space,
# a non-ASCII digit, an underscore, a comment mark, a letter or nothing
_TIMESTAMP = st.one_of(
    _DIGITS,
    _DIGITS,
    st.builds(str.__add__, st.sampled_from(["+", "-", " ", "  ", "#", "٣", "x", ""]), _DIGITS),
    st.builds(str.__add__, _DIGITS, st.sampled_from(["٣", "_1", " ", "-", "x"])),
    st.just(""),
)
_FIELD = st.text(alphabet="abAB01٣ #-", min_size=1, max_size=3)


@st.composite
def _lines(draw) -> str:
    """A line of 5–7 tab-joined fields, sometimes behind a comment mark or a
    space, with zero to two trailing newlines."""
    n = draw(st.sampled_from([5, 6, 6, 6, 7]))
    fields = [draw(_TIMESTAMP)] + [draw(_FIELD) if draw(st.integers(0, 9)) else "" for _ in range(n - 1)]
    prefix = draw(st.sampled_from(["", "", "", "#", " ", " #"]))
    return prefix + "\t".join(fields) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_lines())
def test_parse_edge_line_equals_the_reference_rules(line):
    # the one-pass path and the rule-by-rule path give what the rules give:
    # an equal tuple of the same type, or the same error at the same line
    assert _outcome(parse_edge_line, line) == _outcome(_reference_parse, line)


# timestamp texts on the edge of the one-pass path: int takes each of the
# first seven (underscores, surrounding spaces, a sign, non-ASCII digits),
# and the last two it refuses (more digits than it converts, on an
# interpreter with a conversion limit, and a base prefix)
_TRICKY_TIMESTAMPS = ["12", "0", "1_000", " 12", "12 ", "+5", "-0", "-5", "١٢", "１２", "9" * 5_000, "0x10"]
_FIELD_SHAPES = [
    "{ts}\ta\tA\te\tb\tB",
    "{ts}\ta\tA\te\tb\tB\n",
    "{ts}\ta\tA\te\tb\tB\r\n",
    "{ts}\ta\tA\te\tb\tB\n\n",
    "{ts}\t\tA\te\tb\tB",
    "{ts}\ta\tA\te\tb\t\n",
    "{ts}\ta\t\t\t\t",
    "{ts}\ta\tA\te\tb",
    "{ts}\ta\tA\te\tb\tB\tC",
    "# {ts}\ta\tA\te\tb\tB",
    " #{ts}\ta\tA\te\tb\tB",
    "{ts}",
    " \t{ts}\t \t \t \t ",
    "",
    "\n",
    " \t \t \t \t \t \n",
]


@pytest.mark.parametrize("shape", _FIELD_SHAPES)
@pytest.mark.parametrize("ts", _TRICKY_TIMESTAMPS, ids=lambda ts: ts if len(ts) < 10 else f"{len(ts)} digits")
def test_one_pass_parse_equals_the_checked_parse(ts, shape):
    # wherever the one-pass path returns, the rule-by-rule parse returns the
    # same tuple; everywhere else the line falls through to it, with its
    # error
    line = shape.format(ts=ts)
    assert _outcome(parse_edge_line, line) == _outcome(_parse_checked, line)
