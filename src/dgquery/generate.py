"""Synthetic workload generation: typed schemas, edge streams, random queries.

Streams are deterministic given a :class:`random.Random` and carry
non-decreasing integer timestamps (``edges_per_tick`` arrivals share a tick).
Endpoints are drawn independently and uniformly from per-type vertex pools;
all skew lives in the choice of *triple* (source type, edge type, target
type), controlled by a power-law exponent, so rare edge types stay rare
regardless of how endpoints collide.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random

from .errors import ContractError
from .graph import RawEdge
from .query import QueryEdge, QueryGraph

__all__ = [
    "Schema",
    "social_schema",
    "kpartite_schema",
    "netflow_schema",
    "random_schema",
    "generate_stream",
    "random_query",
    "kpartite_query",
    "SCHEMAS",
]

Triple = tuple[str, str, str]

NETFLOW_PROTOCOLS = ("TCP", "UDP", "ICMP", "IPv6", "AH", "ESP", "GRE")


@dataclass
class Schema:
    """A typed edge alphabet plus per-type vertex pools."""

    name: str
    triples: list[Triple]
    pools: dict[str, int]
    skew: float = 0.0
    weights: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.triples:
            raise ContractError("schema needs at least one triple")
        for s, _, d in self.triples:
            for vt in (s, d):
                if self.pools.get(vt, 0) < 1:
                    raise ContractError(f"no vertex pool for type {vt!r}")
        if not self.weights:
            self.weights = [
                (rank + 1) ** (-self.skew) for rank in range(len(self.triples))
            ]
        if len(self.weights) != len(self.triples):
            raise ContractError("one weight per triple required")

    def vertex_id(self, vtype: str, index: int) -> str:
        return f"{vtype}{index}"

    def draw_vertex(self, vtype: str, rng: Random) -> str:
        return self.vertex_id(vtype, rng.randrange(self.pools[vtype]))


def social_schema(users: int = 40) -> Schema:
    triples = [
        ("user", "follows", "user"),
        ("user", "friend", "user"),
        ("user", "posted", "post"),
        ("user", "likes", "post"),
        ("post", "links", "post"),
    ]
    return Schema("social", triples, {"user": users, "post": 60}, skew=0.8)


def kpartite_schema(k: int = 3, pool: int = 20) -> Schema:
    """Edges only between distinct parts, two labels per ordered pair."""
    types = [f"P{i}" for i in range(k)]
    triples: list[Triple] = []
    for a, b in itertools.permutations(types, 2):
        triples.append((a, f"x_{a}_{b}", b))
        triples.append((a, f"y_{a}_{b}", b))
    return Schema(f"kpartite{k}", triples, {t: pool for t in types}, skew=0.5)


def netflow_schema(hosts: int = 300, skew: float = 1.5, protocols: int = 7) -> Schema:
    """Flow records between hosts; protocol frequency falls off by rank.

    ``protocols`` sizes the alphabet: the first seven get their common names,
    the rest are numbered like the long tail of the IANA protocol registry
    (up to the full byte, 256).
    """
    if not 1 <= protocols <= 256:
        raise ContractError("protocols must be between 1 and 256")
    names = list(NETFLOW_PROTOCOLS[:protocols])
    names.extend(f"proto{n}" for n in range(len(names) + 1, protocols + 1))
    triples = [("ip", proto, "ip") for proto in names]
    return Schema("netflow", triples, {"ip": hosts}, skew=skew)


SCHEMAS = {
    "social": social_schema,
    "kpartite": kpartite_schema,
    "netflow": netflow_schema,
}


def random_schema(rng: Random) -> Schema:
    """Small dense schema for randomized cross-checking runs."""
    n_types = rng.randint(1, 3)
    types = [f"T{i}" for i in range(n_types)]
    labels = [f"e{i}" for i in range(rng.randint(1, 4))]
    n_triples = rng.randint(2, 6)
    seen: set[Triple] = set()
    triples: list[Triple] = []
    for _ in range(n_triples * 3):
        t = (rng.choice(types), rng.choice(labels), rng.choice(types))
        if t not in seen:
            seen.add(t)
            triples.append(t)
        if len(triples) == n_triples:
            break
    pools = {t: rng.randint(2, 8) for t in types}
    return Schema("random", triples, pools, skew=rng.choice([0.0, 0.7, 1.4]))


def generate_stream(
    schema: Schema,
    n_edges: int,
    rng: Random,
    *,
    edges_per_tick: int = 4,
) -> list[RawEdge]:
    """Draw ``n_edges`` arrivals with non-decreasing timestamps from 0."""
    if edges_per_tick < 1:
        raise ContractError("edges_per_tick must be positive")
    out: list[RawEdge] = []
    for i in range(n_edges):
        src_t, label, dst_t = rng.choices(schema.triples, schema.weights)[0]
        ts = i // edges_per_tick
        out.append(
            RawEdge(
                timestamp=ts,
                src=schema.draw_vertex(src_t, rng),
                src_type=src_t,
                edge_type=label,
                dst=schema.draw_vertex(dst_t, rng),
                dst_type=dst_t,
            )
        )
    return out


def random_query(
    schema: Schema,
    n_edges: int,
    rng: Random,
    *,
    reuse_prob: float = 0.3,
    max_tries: int = 200,
) -> QueryGraph:
    """Grow a connected query by attaching schema triples to a frontier.

    Each step anchors one endpoint of a drawn triple to an existing query
    vertex of the matching type; the far endpoint is new, or with
    ``reuse_prob`` an existing same-typed vertex (which can close cycles).
    """
    if n_edges < 1:
        raise ContractError("query needs at least one edge")
    first = rng.choice(schema.triples)
    if first[0] == first[2] and rng.random() < 0.15:
        labels = [first[0]]
        edges = [QueryEdge(0, 0, first[1])]
    else:
        labels = [first[0], first[2]]
        edges = [QueryEdge(0, 1, first[1])]

    def pick_vertex(vtype: str) -> int | None:
        cands = [qv for qv, t in enumerate(labels) if t == vtype]
        return rng.choice(cands) if cands else None

    tries = 0
    while len(edges) < n_edges:
        tries += 1
        if tries > max_tries:
            raise ContractError("schema too sparse to grow the requested query")
        s_t, label, d_t = rng.choice(schema.triples)
        anchor_src = rng.random() < 0.5
        base = pick_vertex(s_t if anchor_src else d_t)
        if base is None:
            anchor_src = not anchor_src
            base = pick_vertex(s_t if anchor_src else d_t)
            if base is None:
                continue
        far_t = d_t if anchor_src else s_t
        far = pick_vertex(far_t) if rng.random() < reuse_prob else None
        if far is None:
            labels.append(far_t)
            far = len(labels) - 1
        edge = QueryEdge(base, far, label) if anchor_src else QueryEdge(far, base, label)
        edges.append(edge)
    return QueryGraph(labels, edges)


def kpartite_query(k: int = 3) -> QueryGraph:
    """Fixed 2x2 template over the first two parts of a k-partite schema."""
    if k < 2:
        raise ContractError("k-partite query template needs k >= 2")
    labels = ["P0", "P0", "P1", "P1"]
    edges = [
        QueryEdge(0, 2, "x_P0_P1"),
        QueryEdge(0, 3, "x_P0_P1"),
        QueryEdge(1, 2, "y_P0_P1"),
        QueryEdge(1, 3, "y_P0_P1"),
    ]
    return QueryGraph(labels, edges)
