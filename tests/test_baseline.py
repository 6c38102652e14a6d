"""Reference matchers: VF2 rescan, brute-force oracle, delta tracking."""
from __future__ import annotations

import gc
import tracemalloc
from random import Random

import pytest

from dgquery.baseline import (
    DeltaOracle,
    RescanEngine,
    enumerate_matches,
    vf2_matches_containing,
)
from dgquery.errors import ContractError
from dgquery.generate import generate_stream, random_query, random_schema
from dgquery.graph import DynamicGraph

from conftest import path_query, q, raw, signatures


def test_vf2_agrees_with_enumeration_randomized(rng):
    # two independent searchers, same answer, on every step of random streams
    for trial in range(8):
        schema = random_schema(rng)
        query = random_query(schema, rng.randint(1, 4), rng)
        g = DynamicGraph(rng.choice((6, None)))
        for r in generate_stream(schema, 80, rng, edges_per_tick=3):
            rec = g.add_edge(r)
            a = signatures(vf2_matches_containing(g, query, rec))
            b = signatures(enumerate_matches(g, query, containing=rec))
            assert a == b, f"trial {trial}, edge {rec[0]}"


def test_enumerate_matches_unrestricted_vs_containing():
    query = path_query(["e", "f"], vertex_label="A")
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    rec = g.add_edge(raw(1, "b", "f", "c"))
    g.add_edge(raw(2, "d", "e", "b"))
    full = signatures(enumerate_matches(g, query))
    assert full == {((0, 0), (1, 1)), ((0, 2), (1, 1))}
    partial = signatures(enumerate_matches(g, query, containing=rec))
    assert partial == full  # both matches use edge 1
    g2_rec = g.out_edges("d")[0]
    only_d = signatures(enumerate_matches(g, query, containing=g2_rec))
    assert only_d == {((0, 2), (1, 1))}


def test_enumerate_matches_respects_window_span():
    query = path_query(["e", "f"], vertex_label="A")
    g = DynamicGraph(window=10)
    g.add_edge(raw(0, "a", "e", "b"))
    g.add_edge(raw(9, "b", "f", "c"))  # span 9 < 10: in
    assert len(enumerate_matches(g, query)) == 1
    g2 = DynamicGraph(window=10)
    g2.add_edge(raw(0, "a", "e", "b"))
    g2.add_edge(raw(8, "x", "e", "y"))  # keeps the window open
    g2.add_edge(raw(10, "b", "f", "c"))  # ts-0 edge evicted at cutoff 0
    assert len(enumerate_matches(g2, query)) == 0


def test_oracle_guards():
    g = DynamicGraph()
    g.add_edge(raw(0, "a", "e", "b"))
    wide = path_query(["e"] * 7, vertex_label="A")
    with pytest.raises(ContractError):
        enumerate_matches(g, wide, max_query_edges=6)
    small_q = path_query(["e"], vertex_label="A")
    for i in range(4):
        g.add_edge(raw(i, f"s{i}", "e", f"t{i}"))
    with pytest.raises(ContractError):
        enumerate_matches(g, small_q, max_graph_edges=4)


def test_rescan_engine_emits_each_signature_once():
    query = path_query(["e", "f"], vertex_label="A")
    eng = RescanEngine(query, window=None)
    assert eng.process(raw(0, "a", "e", "b")) == []
    first = eng.process(raw(1, "b", "f", "c"))
    assert signatures(first) == {((0, 0), (1, 1))}
    # re-arrivals produce new parallel edges, never duplicate signatures
    second = eng.process(raw(2, "a", "e", "b"))
    assert signatures(second) == {((0, 2), (1, 1))}
    assert eng.counters.emitted == 2


def test_rescan_engine_keeps_no_state_per_emission():
    # window 4 over alternating a-e->b and b-f->c edges: a few edges are
    # live at any time and each edge completes two matches, so the
    # memory the engine holds after the second half of the stream is what
    # it held after the first
    query = path_query(["e", "f"], vertex_label="A")
    eng = RescanEngine(query, window=4)
    stream = [raw(t, "a", "e", "b") if t % 2 == 0 else raw(t, "b", "f", "c") for t in range(6000)]
    for r in stream[:3000]:
        eng.process(r)
    tracemalloc.start()
    try:
        emitted = sum(len(eng.process(r)) for r in stream[3000:])
        gc.collect()  # each search's recursive closure is a reference cycle
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert emitted == 6000
    assert retained < 4096, retained


def test_rescan_engine_window():
    query = path_query(["e", "f"], vertex_label="A")
    eng = RescanEngine(query, window=5)
    eng.process(raw(0, "a", "e", "b"))
    assert eng.process(raw(5, "b", "f", "c")) == []  # ts-0 edge just expired
    eng2 = RescanEngine(query, window=5)
    eng2.process(raw(0, "a", "e", "b"))
    assert len(eng2.process(raw(4, "b", "f", "c"))) == 1


def test_delta_oracle_accumulates_and_audits(rng):
    for trial in range(6):
        schema = random_schema(rng)
        query = random_query(schema, rng.randint(1, 3), rng)
        oracle = DeltaOracle(query)
        g = DynamicGraph(6)
        deltas = []
        for r in generate_stream(schema, 60, rng, edges_per_tick=3):
            rec = g.add_edge(r)
            fresh = oracle.step(g, rec)
            assert fresh.isdisjoint(set().union(*deltas) if deltas else set())
            deltas.append(fresh)
            # cumulative-novelty lemma: whatever is live now was seen by now
            assert oracle.full_check(g), f"trial {trial}, edge {rec[0]}"


def test_delta_oracle_matches_rescan_engine(rng):
    schema = random_schema(rng)
    query = random_query(schema, 2, rng)
    eng = RescanEngine(query, window=7)
    oracle = DeltaOracle(query)
    shadow = DynamicGraph(7)
    for r in generate_stream(schema, 100, rng, edges_per_tick=4):
        rec = shadow.add_edge(r)
        assert signatures(eng.process(r)) == oracle.step(shadow, rec)
