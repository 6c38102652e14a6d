"""Incremental continuous-query engine for typed dynamic graph streams."""
from __future__ import annotations

from .baseline import DeltaOracle, RescanEngine, enumerate_matches, vf2_matches_containing
from .bench import STRATEGIES, BenchReport, make_engine, run_strategy, run_sweep
from .engine import Counters, Engine, match_primitive, search_plan
from .errors import (
    ContractError,
    DgqError,
    LabelConflictError,
    MismatchError,
    ParseError,
    PlanError,
    StreamOrderError,
    UnsupportedPrimitiveError,
)
from .generate import (
    Schema,
    generate_stream,
    kpartite_query,
    kpartite_schema,
    netflow_schema,
    random_query,
    random_schema,
    social_schema,
)
from .graph import (
    DynamicGraph,
    EdgeRecord,
    RawEdge,
    WireEdge,
    format_edge_line,
    parse_edge_line,
    read_edge_stream,
)
from .planner import (
    STRATEGY_THRESHOLD,
    Plan,
    choose_strategy,
    decomposition_advisories,
    plan_query,
)
from .query import (
    Match,
    QueryEdge,
    QueryGraph,
    QueryPiece,
    format_query,
    parse_query,
)
from .sjtree import SJTree, SJTreeNode
from .stats import (
    SelectivityTable,
    collect_stats,
    primitive_key,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "RawEdge",
    "WireEdge",
    "EdgeRecord",
    "DynamicGraph",
    "parse_edge_line",
    "format_edge_line",
    "read_edge_stream",
    # query model
    "QueryGraph",
    "QueryEdge",
    "QueryPiece",
    "Match",
    "parse_query",
    "format_query",
    # join tree
    "SJTree",
    "SJTreeNode",
    # statistics
    "SelectivityTable",
    "collect_stats",
    "primitive_key",
    # planning
    "plan_query",
    "Plan",
    "choose_strategy",
    "decomposition_advisories",
    "STRATEGY_THRESHOLD",
    # engines
    "Engine",
    "Counters",
    "search_plan",
    "match_primitive",
    "RescanEngine",
    "vf2_matches_containing",
    "enumerate_matches",
    "DeltaOracle",
    # workloads
    "Schema",
    "social_schema",
    "kpartite_schema",
    "netflow_schema",
    "random_schema",
    "generate_stream",
    "random_query",
    "kpartite_query",
    # bench
    "STRATEGIES",
    "BenchReport",
    "make_engine",
    "run_strategy",
    "run_sweep",
    # errors
    "DgqError",
    "StreamOrderError",
    "LabelConflictError",
    "ContractError",
    "UnsupportedPrimitiveError",
    "ParseError",
    "PlanError",
    "MismatchError",
]
