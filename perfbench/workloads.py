"""The benchmark's workloads: seeded edge streams plus one fixed query each.

Each workload is a stream generator, a query, a window and a stats-sample
size.  The program under test only ever sees the rendered TSV lines; the
generator and the rendering run before any timing starts.

Every seed replays one fixed template stream per workload, drawn once from
``TEMPLATE_SEED``, under a seeded renaming of its vertices.  The netflow
query is anchored on a protocol seen about once per 10k edges, so
independent draws put five or ten anchors in a stream, each in a different
neighbourhood, and the work per edge moves by a third from seed to seed.
Isomorphic streams make runs with different seeds measure the same work on
different vertex ids.  The arrival order within a tick is the template's
too: shuffling it moved netflow's tail latencies by a tenth from seed to
seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from dgquery.generate import generate_stream, netflow_schema, social_schema
from dgquery.graph import RawEdge, format_edge_line
from dgquery.query import QueryEdge, QueryGraph, format_query


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: QueryGraph
    window: int
    sample: int  # stream-prefix edges the selectivity table is built from
    edges: int  # stream length
    generator: dict  # parameters of the stream generator, for the record
    template: Callable[[int], list[RawEdge]]  # edges -> the template stream

    @property
    def query_text(self) -> str:
        return format_query(self.query)

    def stream(self, seed: int) -> list[str]:
        """The TSV lines the program reads, deterministic in ``seed``."""
        template = self.template(self.edges)
        name = rename(template, seed)
        return [format_edge_line(r._replace(src=name[r.src], dst=name[r.dst])) for r in template]

    def template_lines(self, edges: int) -> list[str]:
        return [format_edge_line(r) for r in self.template(edges)]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "why": self.why,
            "generator": dict(self.generator, template_seed=TEMPLATE_SEED),
            "edges": self.edges,
            "sample": self.sample,
            "window": self.window,
            "query": self.query_text,
        }


TEMPLATE_SEED = 7


def rename(records: list[RawEdge], seed: int) -> dict[str, str]:
    """A seeded renaming of the vertices within each vertex type."""
    rng = Random(seed)
    ids: dict[str, set[str]] = {}
    for r in records:
        ids.setdefault(r.src_type, set()).add(r.src)
        ids.setdefault(r.dst_type, set()).add(r.dst)
    name: dict[str, str] = {}
    for _, group in sorted(ids.items()):
        old = sorted(group)
        new = old[:]
        rng.shuffle(new)
        name.update(zip(old, new))
    return name


def _netflow(edges: int) -> list[RawEdge]:
    schema = netflow_schema(hosts=150, skew=1.5, protocols=256)
    return generate_stream(schema, edges, Random(TEMPLATE_SEED), edges_per_tick=30)


def _social(edges: int) -> list[RawEdge]:
    return generate_stream(social_schema(), edges, Random(TEMPLATE_SEED), edges_per_tick=4)


LOWXI_GROUP = 80  # hosts per label group
LOWXI_CROSS_EVERY = 8_000  # every n-th 'a' edge lands in the 'b' group
LOWXI_PLANT_FROM = 30_000  # first planted chain, past the stats sample
LOWXI_PLANT_EVERY = 1_500  # arrivals between planted chains


def _lowxi(edges: int) -> list[RawEdge]:
    """Labels 'a' and 'b' on disjoint host groups, so an a->b path is rare.

    A stray 'a' edge reaches into the 'b' group every LOWXI_CROSS_EVERY-th
    'a' arrival, and after the stats sample an a->b chain is planted every
    LOWXI_PLANT_EVERY arrivals, so the pattern genuinely occurs.
    """
    rng = Random(TEMPLATE_SEED)
    groups = {lab: [f"{lab.upper()}{j}" for j in range(LOWXI_GROUP)] for lab in "ab"}
    out: list[RawEdge] = []
    n_a = 0
    i = 0
    while len(out) < edges:
        ts = i // 10
        if i >= LOWXI_PLANT_FROM and i % LOWXI_PLANT_EVERY == 0:
            a = f"A{rng.randrange(LOWXI_GROUP)}"
            b1, b2 = rng.sample(groups["b"], 2)
            out.append(RawEdge(ts, a, "ip", "a", b1, "ip"))
            out.append(RawEdge(ts, b1, "ip", "b", b2, "ip"))
        lab = "ab"[rng.randrange(2)]
        src = rng.choice(groups[lab])
        dst = rng.choice(groups[lab])
        if lab == "a":
            n_a += 1
            if n_a % LOWXI_CROSS_EVERY == 0:
                dst = rng.choice(groups["b"])
        out.append(RawEdge(ts, src, "ip", lab, dst, "ip"))
        i += 1
    return out[:edges]


NETFLOW_PATH4 = Workload(
    name="netflow-path4",
    why="rare-anchor lazy search over a ~24k-edge window: join propagation, gating and purge with few emissions",
    query=QueryGraph(
        ["ip"] * 5,
        [
            QueryEdge(0, 1, "proto250"),
            QueryEdge(1, 2, "TCP"),
            QueryEdge(2, 3, "TCP"),
            QueryEdge(3, 4, "proto252"),
        ],
    ),
    window=800,
    sample=20_000,
    edges=50_000,
    generator={
        "schema": "netflow",
        "hosts": 150,
        "skew": 1.5,
        "protocols": 256,
        "edges_per_tick": 30,
    },
    template=_netflow,
)

SOCIAL_FANOUT = Workload(
    name="social-fanout",
    why="about 3 matches per edge: output-heavy joins, retained results and GC over a small live graph",
    query=QueryGraph(
        ["user", "user", "user", "post"],
        [
            QueryEdge(0, 1, "friend"),
            QueryEdge(1, 2, "follows"),
            QueryEdge(0, 3, "likes"),
        ],
    ),
    window=100,
    sample=20_000,
    edges=25_000,
    generator={"schema": "social", "users": 40, "posts": 60, "edges_per_tick": 4},
    template=_social,
)

LOWXI_CHAIN = Workload(
    name="lowxi-chain",
    why="the planner picks the path catalog: ingest and 2-edge primitive search only, the control for join and purge",
    query=QueryGraph(["ip"] * 3, [QueryEdge(0, 1, "a"), QueryEdge(1, 2, "b")]),
    window=40,
    sample=20_000,
    edges=100_000,
    generator={
        "schema": "lowxi",
        "group": LOWXI_GROUP,
        "cross_every": LOWXI_CROSS_EVERY,
        "plant_from": LOWXI_PLANT_FROM,
        "plant_every": LOWXI_PLANT_EVERY,
        "edges_per_tick": 10,
    },
    template=_lowxi,
)

WORKLOADS = {w.name: w for w in (NETFLOW_PATH4, SOCIAL_FANOUT, LOWXI_CHAIN)}
