"""Command line for the streaming query engine.

Subcommands: ``gen`` (synthetic streams and queries), ``stats`` (selectivity
tables), ``plan`` (a join tree's leaf order), ``run`` (continuous matching over
a stream), ``bench`` (strategy comparison).

Every input file (``--query``, ``--stream``, ``--stats``) may be ``-``,
standard input, for one of them at a time.  Every ``--out`` but ``plan``'s,
which names two files, may be ``-``, standard output.

Exit codes: 0 success, 1 usage error, 2 data or contract error, 3 strategy
disagreement.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from random import Random
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from . import bench as bench_mod
from .errors import DgqError, MismatchError, ParseError
from .generate import SCHEMAS, generate_stream, random_query
from .graph import format_edge_line, read_edge_stream
from .planner import decomposition_advisories, plan_query
from .query import QueryGraph, format_query, parse_query
from .stats import SelectivityTable, collect_stats

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3

RUN_STRATEGIES = ("auto",) + bench_mod.STRATEGIES

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(kind: type, want: str) -> Callable[[str], float]:
    """An argparse type: ``kind(text)``, refused unless finite and above 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"want {want}, got {text!r}")
        return value

    return parse


_positive_int = _positive(int, "an integer >= 1")


def _parse_window(text: str) -> int | None:
    if text.lower() in ("inf", "none", "unbounded"):
        return None
    return _positive_int(text)


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    """Output file ``path``, or standard output (flushed) for None or ``-``."""
    if path is None or path == "-":
        try:
            yield sys.stdout
        finally:
            sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _read(path: str, parse: Callable[..., T]) -> T:
    """``parse(lines, source=name)`` over input file ``path`` (``-``: stdin),
    opened first, so a missing file fails before any output exists.  A file
    is read with ``errors="surrogateescape"``: an undecodable byte becomes a
    lone surrogate, which UTF-8 text never holds, and a ParseError."""

    def lines(source: str) -> Iterator[str]:
        with sys.stdin if path == "-" else open(path, encoding="utf-8", errors="surrogateescape") as fh:
            yield source  # once the file is open
            for line_no, line in enumerate(fh, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError("not UTF-8 text", line=line_no, source=source) from None
                yield line

    opened = lines("<stdin>" if path == "-" else path)
    return parse(opened, source=next(opened))


def _table(lines: Iterable[str], source: str) -> SelectivityTable:
    return SelectivityTable.from_json("".join(lines), source=source)


def _schema_from_args(args: argparse.Namespace):
    factory = SCHEMAS[args.schema]
    kwargs = {}
    if args.pool is not None:
        first = {"social": "users", "kpartite": "pool", "netflow": "hosts"}[args.schema]
        kwargs[first] = args.pool
    if getattr(args, "skew", None) is not None:
        if args.schema != "netflow":
            raise ParseError("--skew is only accepted for the netflow schema")
        kwargs["skew"] = args.skew
    return factory(**kwargs)


def _line_format(query: QueryGraph) -> str:
    """The ``%`` format of a ``dgq run`` line, from ``(seq, t_min, t_max, e_0
    ... e_{E-1})``: an emitted match binds every qedge, so each pair is fixed."""
    return "%s\t%s\t%s\t" + ";".join(f"{qe}=%s" for qe in range(query.n_edges)) + "\n"


# ------------------------------------------------------------------ commands

def cmd_gen(args: argparse.Namespace) -> int:
    rng = Random(args.seed)
    schema = _schema_from_args(args)
    with _open_out(args.out) as out:
        if args.kind == "stream":
            for raw in generate_stream(
                schema, args.edges, rng, edges_per_tick=args.edges_per_tick
            ):
                out.write(format_edge_line(raw) + "\n")
        else:
            query = random_query(schema, args.edges, rng)
            out.write(format_query(query))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    # the lines are counted as they are read; a bad one ends the command
    # before the table is written
    table = collect_stats(_read(args.stream, read_edge_stream))
    with _open_out(args.out) as out:
        out.write(table.to_json())
    print(
        f"stats: {table.sample_size} edges, {len(table.arity1)} edge keys, "
        f"{len(table.arity2)} path keys -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    query = _read(args.query, parse_query)
    table = _read(args.stats, _table)
    plan = plan_query(query, table, mode=args.mode)
    plan.warnings.extend(decomposition_advisories(plan.tree, table, args.mean_degree))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(plan.tree.serialize())
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(plan.sidecar_json())
    print(
        f"plan: strategy={plan.strategy} expected={plan.expected:.3g} "
        f"relative={plan.relative:.3g} "
        f"estimated=[{','.join(f'{n:.3g}' for n in plan.estimated_sizes)}] -> {args.out}",
        file=sys.stderr,
    )
    for w in plan.warnings:
        print(f"plan: advisory: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    query = _read(args.query, parse_query)
    table = None if args.stats is None else _read(args.stats, _table)
    # read one line at a time, so a bad line ends the run after the matches
    # of the lines before it are written; only a plan from statistics over
    # the whole stream needs it all first (the rescan baseline plans nothing)
    records = _read(args.stream, read_edge_stream)
    if table is None and args.strategy != "vf2":
        records = list(records)
        table = collect_stats(records)
    eng, _, strategy = bench_mod.make_engine(args.strategy, query, args.window, table)
    with _open_out(args.out) as out:
        line, ends = _line_format(query), 1 + query.n_edges
        seq = 0
        for raw in records:
            for m in eng.process(raw):
                out.write(line % (seq, m.flat[0], m.t_max, *m.flat[1:ends]))
                seq += 1
    print(
        f"run: strategy={strategy} edges={eng.counters.edges} emitted={eng.counters.emitted}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ParseError("no strategy given")
    for s in strategies:
        if s not in bench_mod.STRATEGIES:
            raise ParseError(f"unknown strategy {s!r}")

    rng = Random(args.seed)
    if args.stream is not None:
        records = list(_read(args.stream, read_edge_stream))
    else:
        schema = _schema_from_args(args)
        records = generate_stream(
            schema, args.edges, rng, edges_per_tick=args.edges_per_tick
        )
    table = _read(args.stats, _table) if args.stats is not None else collect_stats(records)

    if args.query is not None:
        queries = [_read(args.query, parse_query)]
    else:
        schema = _schema_from_args(args)
        queries = [
            random_query(schema, args.query_edges, rng) for _ in range(args.queries)
        ]

    with _open_out(args.out) as out:
        out.write("query\t" + "\t".join(bench_mod.REPORT_FIELDS) + "\n")
        xi: list[float] = []  # one per planned query: its rows share it
        for qi, query in enumerate(queries):
            reports = bench_mod.run_sweep(
                query, records, args.window, strategies, table
            )
            for rep in reports:
                out.write(f"{qi}\t" + "\t".join(rep.row()) + "\n")
            xi += {rep.relative_selectivity for rep in reports} - {None}
        if len(queries) > 1 and xi:
            counts = [0] * args.selectivity_bins
            for b in bench_mod.bin_reports(xi, args.selectivity_bins):
                counts[b] += 1
            out.write(
                "# selectivity bins (low to high): "
                + " ".join(str(c) for c in counts)
                + "\n"
            )
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    p = _Parser(prog="dgq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_seed(sp) -> None:
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")

    def add_schema(sp) -> None:
        sp.add_argument("--schema", choices=sorted(SCHEMAS), default="social")
        sp.add_argument("--pool", type=int, default=None, help="vertex pool size override")

    gen = sub.add_parser("gen", help="generate a synthetic stream or query")
    gen.add_argument("kind", choices=("stream", "query"))
    add_schema(gen)
    gen.add_argument("--edges", type=_positive_int, default=1000, help="stream length or query size")
    gen.add_argument("--edges-per-tick", type=_positive_int, default=4)
    gen.add_argument("--skew", type=float, default=None, help="netflow edge-type skew exponent")
    add_seed(gen)
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    st = sub.add_parser("stats", help="collect a selectivity table from a stream")
    st.add_argument("--stream", required=True)
    st.add_argument("--out", required=True, help="JSON table path ('-': stdout)")
    st.set_defaults(func=cmd_stats)

    pl = sub.add_parser("plan", help="plan a query's join tree and write its leaf order")
    pl.add_argument("--query", required=True)
    pl.add_argument("--stats", required=True)
    pl.add_argument("--mode", choices=("auto", "single", "path"), default="auto")
    pl.add_argument("--mean-degree", type=_positive(float, "a finite number > 0"), default=None,
                    help="emit decomposition advisories against this mean degree")
    pl.add_argument("--out", required=True,
                    help="plan text path: 'sjtree', then one 'leaf <qedge> ...' line per leaf; "
                         "sidecar goes to <out>.json")
    pl.set_defaults(func=cmd_plan)

    rn = sub.add_parser("run", help="stream a file through the engine")
    rn.add_argument("--query", required=True)
    rn.add_argument("--stream", required=True)
    rn.add_argument("--window", type=_parse_window, default=None, help="int or 'inf'")
    rn.add_argument("--strategy", choices=RUN_STRATEGIES, default="auto")
    rn.add_argument("--stats", default=None,
                    help="selectivity table; the stream is then read line by line "
                         "(default: counted over the whole stream before the first edge)")
    rn.add_argument("--out", default=None, help="match TSV path (default stdout)")
    rn.set_defaults(func=cmd_run)

    be = sub.add_parser("bench", help="compare strategies on one workload")
    be.add_argument("--stream", default=None, help="stream file (default: generated)")
    add_schema(be)
    be.add_argument("--edges", type=_positive_int, default=5000)
    be.add_argument("--edges-per-tick", type=_positive_int, default=4)
    be.add_argument("--skew", type=float, default=None)
    be.add_argument("--query", default=None, help="query file (default: random)")
    be.add_argument("--queries", type=_positive_int, default=1, help="random query count")
    be.add_argument("--query-edges", type=_positive_int, default=3)
    be.add_argument("--window", type=_parse_window, default=None)
    be.add_argument("--strategies", default="singlelazy,vf2")
    be.add_argument("--stats", default=None)
    be.add_argument("--selectivity-bins", type=_positive_int, default=5)
    add_seed(be)
    be.add_argument("--out", default=None)
    be.set_defaults(func=cmd_bench)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if [getattr(args, name, None) for name in ("query", "stream", "stats")].count("-") > 1:
        parser.error("only one input file can be '-', standard input")
    if args.command == "plan" and args.out == "-":
        parser.error("plan writes two files, <out> and <out>.json: --out cannot be '-'")
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"dgq: mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (DgqError, OSError, UnicodeDecodeError) as exc:
        print(f"dgq: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
