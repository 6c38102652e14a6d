"""Synthetic schemas, streams, and query generation."""
from __future__ import annotations

from random import Random

import pytest

from dgquery.errors import ContractError
from dgquery.generate import (
    Schema,
    generate_stream,
    kpartite_query,
    kpartite_schema,
    netflow_schema,
    random_query,
    random_schema,
    social_schema,
)
from dgquery.graph import DynamicGraph


def test_schema_validation():
    with pytest.raises(ContractError):
        Schema("x", [], {"A": 3})
    with pytest.raises(ContractError):
        Schema("x", [("A", "e", "B")], {"A": 3})  # no pool for B
    with pytest.raises(ContractError):
        Schema("x", [("A", "e", "A")], {"A": 3}, weights=[1.0, 2.0])


def test_schema_power_law_weights():
    s = Schema("x", [("A", "e", "A"), ("A", "f", "A"), ("A", "g", "A")], {"A": 5}, skew=1.5)
    assert s.weights[0] == pytest.approx(1.0)
    assert s.weights[1] == pytest.approx(2 ** -1.5)
    assert s.weights[2] == pytest.approx(3 ** -1.5)
    flat = Schema("y", s.triples, {"A": 5}, skew=0.0)
    assert flat.weights == [1.0, 1.0, 1.0]


def test_builtin_schemas_are_valid():
    for schema in (social_schema(), kpartite_schema(), netflow_schema()):
        assert schema.triples and schema.pools
        assert len(schema.weights) == len(schema.triples)


def test_netflow_protocol_alphabet():
    assert [t[1] for t in netflow_schema(protocols=3).triples] == ["TCP", "UDP", "ICMP"]
    wide = netflow_schema(protocols=256)
    labels = [t[1] for t in wide.triples]
    assert len(labels) == len(set(labels)) == 256
    assert labels[:7] == ["TCP", "UDP", "ICMP", "IPv6", "AH", "ESP", "GRE"]
    assert labels[7] == "proto8" and labels[255] == "proto256"
    for protocols in (0, 257):
        with pytest.raises(ContractError):
            netflow_schema(protocols=protocols)


def test_kpartite_schema_shape():
    s = kpartite_schema(k=3, pool=4)
    assert sorted(s.pools) == ["P0", "P1", "P2"]
    assert len(s.triples) == 12  # 6 ordered pairs x 2 labels
    assert all(a != b for a, _, b in s.triples)


def test_generate_stream_deterministic_and_ordered():
    schema = social_schema()
    a = generate_stream(schema, 200, Random(9), edges_per_tick=4)
    b = generate_stream(schema, 200, Random(9), edges_per_tick=4)
    assert a == b
    assert len(a) == 200
    ts = [r.timestamp for r in a]
    assert ts == sorted(ts)
    assert ts[0] == 0 and ts[-1] == 199 // 4
    assert len([t for t in ts if t == 0]) == 4


def test_generate_stream_feeds_the_graph():
    schema = random_schema(Random(2))
    g = DynamicGraph(window=8)
    for r in generate_stream(schema, 300, Random(2)):
        g.add_edge(r)  # no order or label conflicts
    assert g.edges_ingested == 300


def test_generate_stream_rejects_bad_tick():
    with pytest.raises(ContractError):
        generate_stream(social_schema(), 5, Random(0), edges_per_tick=0)


def test_skew_orders_label_frequencies():
    schema = netflow_schema(hosts=50, skew=1.5)
    counts: dict[str, int] = {}
    for r in generate_stream(schema, 20000, Random(4)):
        counts[r.edge_type] = counts.get(r.edge_type, 0) + 1
    assert counts["TCP"] > counts["ICMP"] > counts["GRE"]
    assert counts["TCP"] / 20000 == pytest.approx(0.53, abs=0.03)


def test_random_query_respects_schema(rng):
    for trial in range(25):
        schema = random_schema(rng)
        n = rng.randint(1, 5)
        query = random_query(schema, n, rng)  # constructor enforces connectivity
        assert query.n_edges == n
        triples = set(schema.triples)
        for e in query.edges:
            t = (query.vertex_label(e.src), e.label, query.vertex_label(e.dst))
            assert t in triples, f"trial {trial}: {t} not in schema"


def test_random_query_deterministic():
    schema = social_schema()
    assert random_query(schema, 4, Random(3)) == random_query(schema, 4, Random(3))
    with pytest.raises(ContractError):
        random_query(schema, 0, Random(3))


def test_random_query_gives_up_after_max_tries():
    # an unreachable island wastes draws; the retry budget turns a stall
    # into a clean error instead of a spin
    schema = Schema("x", [("A", "e", "A"), ("B", "f", "B")], {"A": 2, "B": 2})
    with pytest.raises(ContractError):
        random_query(schema, 50, Random(0), reuse_prob=0.0, max_tries=5)


def test_kpartite_query_template():
    query = kpartite_query(k=3)
    assert query.n_edges == 4
    assert query.vertex_labels == ("P0", "P0", "P1", "P1")
    labels = sorted(e.label for e in query.edges)
    assert labels == ["x_P0_P1", "x_P0_P1", "y_P0_P1", "y_P0_P1"]
    with pytest.raises(ContractError):
        kpartite_query(k=1)
