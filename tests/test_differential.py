"""Property-based differential test: the incremental engine against the
brute-force delta oracle on generated schemas, queries and streams.

Hypothesis draws the query and the stream from small integer choices, so a
failing case shrinks to few edges, few query edges and small vertex pools.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dgquery.graph import RawEdge  # noqa: E402
from dgquery.query import QueryEdge, QueryGraph  # noqa: E402

from conftest import cross_check  # noqa: E402

VERTEX_TYPES = ("T0", "T1")
EDGE_LABELS = ("a", "b")


@st.composite
def cases(draw) -> tuple[QueryGraph, list[RawEdge], int | None]:
    """A connected 1–4 edge query over a random schema, a stream whose edges
    each fit some query edge's typed triple, and a window."""
    types = VERTEX_TYPES[: draw(st.integers(1, len(VERTEX_TYPES)))]
    labels = EDGE_LABELS[: draw(st.integers(1, len(EDGE_LABELS)))]
    vertex_labels = [draw(st.sampled_from(types))]
    qedges: list[QueryEdge] = []
    for _ in range(draw(st.integers(1, 4))):
        # every edge touches a vertex already in the query, so it stays connected
        base = draw(st.integers(0, len(vertex_labels) - 1))
        far = draw(st.integers(0, len(vertex_labels)))
        if far == len(vertex_labels):
            vertex_labels.append(draw(st.sampled_from(types)))
        label = draw(st.sampled_from(labels))
        qedges.append(QueryEdge(base, far, label) if draw(st.booleans()) else QueryEdge(far, base, label))
    query = QueryGraph(vertex_labels, qedges)

    pool = draw(st.integers(1, 4))
    ts = 0
    records: list[RawEdge] = []
    for _ in range(draw(st.integers(1, 40))):
        ts += draw(st.integers(0, 2))
        qe = qedges[draw(st.integers(0, len(qedges) - 1))]
        s_type, d_type = vertex_labels[qe.src], vertex_labels[qe.dst]
        src = f"{s_type}_{draw(st.integers(0, pool - 1))}"
        dst = f"{d_type}_{draw(st.integers(0, pool - 1))}"
        records.append(RawEdge(ts, src, s_type, qe.label, dst, d_type))
    window = draw(st.one_of(st.none(), st.integers(1, 8)))
    return query, records, window


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_engines_equal_the_oracle_at_every_step(case):
    # lazy and eager engines under the single and path plans; cross_check
    # fails on the first step whose emissions differ from the oracle's
    query, records, window = case
    cross_check(query, records, window, with_vf2=False)
