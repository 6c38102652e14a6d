"""End-to-end command line: gen -> stats -> plan -> run -> bench."""
from __future__ import annotations

import io
import json
from collections import Counter

import pytest

from dgquery import bench as bench_mod
from dgquery.baseline import RescanEngine
from dgquery.cli import main
from dgquery.errors import MismatchError
from dgquery.graph import read_edge_stream
from dgquery.query import parse_query
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable, collect_stats

from test_workload_counters import load_workloads


def _gen_stream(tmp_path, name="stream.tsv", extra=()):
    path = tmp_path / name
    rc = main(["gen", "stream", "--edges", "400", "--seed", "5", "--out", str(path), *extra])
    assert rc == 0
    return path


def _gen_query(tmp_path, name="query.txt", extra=()):
    path = tmp_path / name
    rc = main(["gen", "query", "--edges", "3", "--seed", "6", "--out", str(path), *extra])
    assert rc == 0
    return path


def test_gen_stream_is_parseable_and_seeded(tmp_path):
    a = _gen_stream(tmp_path, "a.tsv")
    b = _gen_stream(tmp_path, "b.tsv")
    assert a.read_text() == b.read_text()
    with open(a) as fh:
        records = list(read_edge_stream(fh))
    assert len(records) == 400
    ts = [r[0] for r in records]
    assert ts == sorted(ts)


def test_gen_query_is_parseable(tmp_path):
    path = _gen_query(tmp_path)
    query = parse_query(path.read_text())
    assert query.n_edges == 3


def test_stats_command_writes_loadable_table(tmp_path, capsys):
    stream = _gen_stream(tmp_path)
    out = tmp_path / "stats.json"
    assert main(["stats", "--stream", str(stream), "--out", str(out)]) == 0
    table = SelectivityTable.from_json(out.read_text(encoding="utf-8"))
    assert table.sample_size == 400
    assert "400 edges" in capsys.readouterr().err


def test_stats_command_reads_stdin_as_it_reads_a_file(tmp_path, monkeypatch):
    stream = _gen_stream(tmp_path)
    from_file = tmp_path / "file.json"
    from_stdin = tmp_path / "stdin.json"
    assert main(["stats", "--stream", str(stream), "--out", str(from_file)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(stream.read_text()))
    assert main(["stats", "--stream", "-", "--out", str(from_stdin)]) == 0
    assert from_stdin.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_stats_command_stops_at_a_bad_line_and_writes_no_table(tmp_path, monkeypatch, capsys, source):
    stream = _gen_stream(tmp_path)
    lines = stream.read_text().splitlines(keepends=True)
    lines[300] = "broken line\n"
    stream.write_text("".join(lines))
    out = tmp_path / "stats.json"
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(stream.read_text()))
    rc = main(["stats", "--stream", "-" if source == "stdin" else str(stream), "--out", str(out)])
    assert rc == 2
    assert "line 301" in capsys.readouterr().err
    assert not out.exists()


def test_plan_command_writes_tree_and_sidecar(tmp_path, capsys):
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    stats = tmp_path / "stats.json"
    main(["stats", "--stream", str(stream), "--out", str(stats)])
    out = tmp_path / "plan.txt"
    rc = main([
        "plan", "--query", str(query_path), "--stats", str(stats),
        "--mode", "single", "--mean-degree", "2.0", "--out", str(out),
    ])
    assert rc == 0
    query = parse_query(query_path.read_text())
    tree = SJTree.deserialize(out.read_text(), query)
    assert len(tree.leaves()) == 3
    sidecar = json.loads((tmp_path / "plan.txt.json").read_text())
    assert sidecar["strategy"] == "SingleLazy"
    assert len(sidecar["estimated_sizes"]) == 3
    err = capsys.readouterr().err
    assert "strategy=SingleLazy" in err
    shown = err.split("estimated=[")[1].split("]")[0].split(",")
    assert [float(n) for n in shown] == pytest.approx(sidecar["estimated_sizes"], rel=1e-2)


def test_run_strategies_agree(tmp_path, capsys):
    # window 50: at 6 this stream and query emit nothing under any strategy
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    outputs = {}
    for strategy in ("single", "singlelazy", "path", "pathlazy", "vf2", "auto"):
        out = tmp_path / f"run.{strategy}.tsv"
        rc = main([
            "run", "--query", str(query_path), "--stream", str(stream),
            "--window", "50", "--strategy", strategy, "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        # seq, t_min, t_max, qedge=edge pairs
        outputs[strategy] = {row[3] for row in rows}
        assert all(len(row) == 4 for row in rows)
    assert outputs["single"], "the strategies agree on an empty output"
    assert all(out == outputs["single"] for out in outputs.values()), outputs
    capsys.readouterr()


def test_run_vf2_counts_no_statistics(tmp_path, monkeypatch, capsys):
    # the rescan baseline reads no selectivity table, so without --stats
    # the stream is not counted before the first edge
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)

    def run(out):
        assert main([
            "run", "--query", str(query_path), "--stream", str(stream),
            "--window", "6", "--strategy", "vf2", "--out", str(out),
        ]) == 0
        return out.read_text()

    plain = run(tmp_path / "plain.tsv")

    def refuse(*args):
        raise AssertionError("vf2 must not count statistics")

    monkeypatch.setattr("dgquery.cli.collect_stats", refuse)
    assert run(tmp_path / "refused.tsv") == plain
    capsys.readouterr()


def pairs_text(matches) -> bytes:
    """The reference for what ``dgq run`` writes: per match, built from
    ``Match.pairs``, its sequence number, t_min, t_max and ``qedge=edge``
    pairs, tab-separated."""
    lines = []
    for seq, m in enumerate(matches):
        pairs = ";".join(f"{qe}={eid}" for qe, eid in m.pairs)
        lines.append(f"{seq}\t{m.t_min}\t{m.t_max}\t{pairs}\n")
    return "".join(lines).encode()


def _run_out(tmp_path, stream, query_path, name, *extra):
    out = tmp_path / name
    rc = main(["run", "--query", str(query_path), "--stream", str(stream), "--window", "50",
               "--out", str(out), *extra])
    return rc, out.read_bytes()


def test_streamed_run_writes_what_the_list_run_writes(tmp_path, capsys):
    # with --stats, or under vf2, the stream is read line by line; the
    # output is byte for byte that of the run that reads the whole stream
    # first, and edges= counts what the engine took
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    stats = tmp_path / "stats.json"
    main(["stats", "--stream", str(stream), "--out", str(stats)])
    capsys.readouterr()
    rc, listed = _run_out(tmp_path, stream, query_path, "listed.tsv")
    assert rc == 0 and listed
    listed_err = capsys.readouterr().err
    rc, streamed = _run_out(tmp_path, stream, query_path, "streamed.tsv", "--stats", str(stats))
    assert rc == 0 and streamed == listed
    assert capsys.readouterr().err == listed_err
    assert "edges=400 " in listed_err

    # the rescan baseline over the same edges held in a list, as the run
    # once read them
    query = parse_query(query_path.read_text())
    with open(stream) as fh:
        records = list(read_edge_stream(fh))
    rescan = RescanEngine(query, 50)
    matches = [m for r in records for m in rescan.process(r)]
    expected = pairs_text(matches)
    rc, vf2 = _run_out(tmp_path, stream, query_path, "vf2.tsv", "--strategy", "vf2")
    assert rc == 0 and vf2 == expected
    assert f"edges=400 emitted={len(matches)}" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["auto", "vf2"])
def test_streamed_run_stops_at_a_bad_line_after_writing_the_lines_before(tmp_path, capsys, strategy):
    # line 301 is broken: the run exits 2, naming it, and the matches of
    # lines 1-300 are written and flushed, to a file or to stdout
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    stats = tmp_path / "stats.json"
    main(["stats", "--stream", str(stream), "--out", str(stats)])
    lines = stream.read_text().splitlines(keepends=True)
    head = tmp_path / "head.tsv"
    head.write_text("".join(lines[:300]))
    broken = tmp_path / "broken.tsv"
    broken.write_text("".join(lines[:300]) + "broken\n" + "".join(lines[300:]))
    flags = ("--strategy", strategy, "--stats", str(stats))
    rc, before = _run_out(tmp_path, head, query_path, "head.out", *flags)
    assert rc == 0 and before
    capsys.readouterr()
    rc, partial = _run_out(tmp_path, broken, query_path, "broken.out", *flags)
    assert rc == 2 and partial == before
    assert "line 301" in capsys.readouterr().err
    rc = main(["run", "--query", str(query_path), "--stream", str(broken), "--window", "50", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out.encode() == before
    assert "line 301" in captured.err


def test_run_accepts_unbounded_window(tmp_path, capsys):
    # 'inf' is the infinite window under the same expiry rule: a run writes
    # what a window one tick longer than the stream's span writes
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    with open(stream) as fh:
        ts = [r[0] for r in read_edge_stream(fh)]
    for strategy in ("singlelazy", "auto", "vf2"):
        outs = []
        for window in ("inf", str(ts[-1] - ts[0] + 1)):
            out = tmp_path / f"{strategy}.{window}.tsv"
            rc = main([
                "run", "--query", str(query_path), "--stream", str(stream),
                "--window", window, "--strategy", strategy, "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] and outs[0] == outs[1], strategy
    capsys.readouterr()


def test_bench_command_reports_all_strategies(tmp_path):
    out = tmp_path / "bench.tsv"
    rc = main([
        "bench", "--edges", "300", "--query-edges", "2", "--seed", "8",
        "--window", "5", "--strategies", "singlelazy,vf2", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("query\tstrategy\tedges\twall_ms")
    body = [l.split("\t") for l in lines[1:]]
    assert [row[1] for row in body] == ["singlelazy", "vf2"]
    # both strategies saw the same stream and emitted the same count
    emitted = {row[5] for row in body}
    assert len(emitted) == 1


def test_bench_bins_each_query_once_by_its_auto_plans_xi(tmp_path):
    # the default sweep, singlelazy and vf2, plans every query in single
    # mode, whose own ξ is 1 by definition: each query's rows report its
    # auto plan's ξ instead, the same under a sweep that plans path mode,
    # and the bins count each query once
    seen = []
    for strategies in ("singlelazy,vf2", "singlelazy,pathlazy"):
        out = tmp_path / "bench.tsv"
        assert main([
            "bench", "--schema", "netflow", "--edges", "3000", "--queries", "4", "--query-edges", "3",
            "--window", "50", "--seed", "2", "--strategies", strategies, "--out", str(out),
        ]) == 0
        *rows, bins = out.read_text().splitlines()[1:]
        xi: dict[str, set] = {}
        for row in rows:
            query, *_, relative = row.split("\t")
            if relative != "-":
                xi.setdefault(query, set()).add(relative)
        assert sorted(xi) == ["0", "1", "2", "3"] and all(len(v) == 1 for v in xi.values())
        counts = [int(c) for c in bins.removeprefix("# selectivity bins (low to high): ").split()]
        assert sum(counts) == 4 and counts[-1] < 4
        seen.append(xi)
    assert seen[0] == seen[1]


def test_bench_rejects_unknown_strategy(tmp_path, capsys):
    for strategies, message in (("warp", "unknown strategy"), (",", "no strategy given")):
        rc = main(["bench", "--strategies", strategies, "--out", str(tmp_path / "x.tsv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.tsv").exists()


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as ei:
        main(["run", "--query", "q", "--stream", "s", "--window", "0"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("queries", ["1", "2"])
def test_bench_rejects_selectivity_bins_below_one(tmp_path, capsys, queries):
    with pytest.raises(SystemExit) as ei:
        main(["bench", "--queries", queries, "--selectivity-bins", "0",
              "--out", str(tmp_path / "b.tsv")])
    assert ei.value.code == 1
    assert "--selectivity-bins" in capsys.readouterr().err
    assert not (tmp_path / "b.tsv").exists()


@pytest.mark.parametrize("command", ["gen stream --edges 10", "bench --edges 10"])
def test_edges_per_tick_below_one_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "x.tsv"
    with pytest.raises(SystemExit) as ei:
        main([*command.split(), "--edges-per-tick", "0", "--out", str(out)])
    assert ei.value.code == 1
    assert "--edges-per-tick" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "gen query --edges 0",
    "gen stream --edges -3",
    "bench --edges 0",
    "bench --queries 0",
    "bench --query-edges 0",
])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command):
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit) as ei:
        main([*command.split(), "--out", str(out)])
    assert ei.value.code == 1
    assert command.split()[-2] in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_two(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "nope.txt")
    rc = main(["run", "--query", missing, "--stream", missing])
    assert rc == 2
    stream = _gen_stream(tmp_path)
    bad_query = tmp_path / "bad.txt"
    bad_query.write_text("node 0 A\nbroken\n")
    rc = main(["run", "--query", str(bad_query), "--stream", str(stream)])
    assert rc == 2
    rc = main(["gen", "stream", "--schema", "social", "--skew", "2.0",
               "--out", str(tmp_path / "y.tsv")])
    assert rc == 2  # --skew is a netflow knob
    bad_stats = tmp_path / "bad.json"
    bad_stats.write_text(SelectivityTable(1, {("A", "e", "A"): 1}).to_json().replace('"count": 1', '"count": "x"'))
    out = tmp_path / "plan.txt"
    rc = main(["plan", "--query", str(_gen_query(tmp_path)), "--stats", str(bad_stats), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "row count must be a count" in capsys.readouterr().err
    # a file that is not UTF-8, in each role an input file plays
    query, table = _gen_query(tmp_path), tmp_path / "table.json"
    assert main(["stats", "--stream", str(stream), "--out", str(table)]) == 0
    lines = stream.read_bytes().splitlines(keepends=True)
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff" + b"".join(lines))
    capsys.readouterr()
    for command in (
        ["stats", "--stream", str(binary), "--out", str(tmp_path / "x.json")],
        ["plan", "--query", str(query), "--stats", str(binary), "--out", str(out)],
        ["plan", "--query", str(binary), "--stats", str(table), "--out", str(out)],
        ["run", "--query", str(binary), "--stream", str(stream)],
        ["run", "--query", str(query), "--stream", str(binary)],
        ["run", "--query", str(query), "--stream", str(stream), "--stats", str(binary)],
        ["bench", "--stream", str(binary), "--query", str(query)],
        ["bench", "--stream", str(stream), "--query", str(query), "--stats", str(binary)],
    ):
        assert main(command) == 2, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"dgq: error: {binary}: "), (command, err)
    # standard input, as Python reads it in the C locale (an undecodable byte
    # becomes a lone surrogate) and in a UTF-8 one (strictly)
    for stdin, message in (
        (io.StringIO("1\ta\udcff\tA\te\tb\tB\n"), "dgq: error: <stdin>: line 1: not UTF-8 text"),
        (io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"), "dgq: error: 'utf-8' codec can't decode"),
    ):
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["stats", "--stream", "-", "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message), err
        assert not (tmp_path / "x.json").exists()
    # a run streamed line by line writes the matches of the lines before the bad one
    prefix, broken = tmp_path / "prefix.tsv", tmp_path / "broken.tsv"
    prefix.write_bytes(b"".join(lines[:300]))
    broken.write_bytes(b"".join(lines[:300]) + b"\xff\n" + b"".join(lines[300:]))
    for extra in (["--strategy", "vf2"], ["--stats", str(table)]):
        run = ["run", "--query", str(query), "--window", "100", *extra]
        assert main([*run, "--stream", str(prefix), "--out", str(tmp_path / "want.tsv")]) == 0
        assert main([*run, "--stream", str(broken), "--out", str(tmp_path / "got.tsv")]) == 2
        assert f"dgq: error: {broken}: line 301: not UTF-8 text" in capsys.readouterr().err
        want = (tmp_path / "want.tsv").read_bytes()
        assert want and (tmp_path / "got.tsv").read_bytes() == want


def _stats_file(tmp_path, stream):
    stats = tmp_path / "stats.json"
    assert main(["stats", "--stream", str(stream), "--out", str(stats)]) == 0
    return stats


@pytest.mark.parametrize("with_stats", [False, True])
def test_run_reads_the_stream_from_stdin_as_from_the_file(tmp_path, monkeypatch, capsys, with_stats):
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    extra = ["--stats", str(_stats_file(tmp_path, stream))] if with_stats else []
    capsys.readouterr()
    rc, from_file = _run_out(tmp_path, stream, query_path, "file.tsv", *extra)
    assert rc == 0 and from_file
    file_err = capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO(stream.read_text()))
    rc, from_stdin = _run_out(tmp_path, "-", query_path, "stdin.tsv", *extra)
    assert rc == 0 and from_stdin == from_file
    assert capsys.readouterr().err == file_err


def test_plan_reads_the_query_or_the_table_from_stdin_as_from_the_file(tmp_path, monkeypatch, capsys):
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    stats = _stats_file(tmp_path, stream)
    plans = []
    for query, table, stdin in ((query_path, stats, None), ("-", stats, query_path), (query_path, "-", stats)):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin.read_text()))
        out = tmp_path / f"plan{len(plans)}.txt"
        assert main(["plan", "--query", str(query), "--stats", str(table), "--out", str(out)]) == 0
        plans.append((out.read_bytes(), (tmp_path / f"{out.name}.json").read_bytes()))
    assert plans[0] == plans[1] == plans[2]
    capsys.readouterr()


def test_only_one_input_file_reads_stdin(tmp_path, capsys):
    for command in (
        ["run", "--query", "-", "--stream", "-"],
        ["run", "--query", "q.txt", "--stream", "-", "--stats", "-"],
        ["plan", "--query", "-", "--stats", "-", "--out", str(tmp_path / "p.txt")],
        ["bench", "--stream", "-", "--stats", "-"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(command)
        assert ei.value.code == 1
        assert "only one input file can be '-'" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_stats_out_dash_writes_the_table_to_stdout(tmp_path, monkeypatch, capsys):
    # '-' is standard output, as for gen, run and bench: the file table's
    # bytes, no file named '-', and the summary line on stderr
    stream = _gen_stream(tmp_path)
    table = _stats_file(tmp_path, stream)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["stats", "--stream", str(stream), "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == table.read_bytes()
    assert captured.err.startswith("stats: ") and captured.err.endswith(" -> -\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.json", "stream.tsv"]


def test_plan_refuses_out_dash(tmp_path, monkeypatch, capsys):
    # the plan text has a sidecar, <out>.json, with no stdout form
    query, stats = _gen_query(tmp_path), _stats_file(tmp_path, _gen_stream(tmp_path))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        main(["plan", "--query", str(query), "--stats", str(stats), "--out", "-"])
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--out cannot be '-'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["query.txt", "stats.json", "stream.tsv"]


def test_bench_runs_the_query_file_on_the_stream_file(tmp_path, capsys):
    # every strategy emits what dgq run emits for the same query and window
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    out = tmp_path / "bench.tsv"
    assert main(["bench", "--stream", str(stream), "--query", str(query_path), "--window", "50",
                 "--strategies", "singlelazy,pathlazy,vf2", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("0", "singlelazy"), ("0", "pathlazy"), ("0", "vf2")]
    rc, written = _run_out(tmp_path, stream, query_path, "run.tsv")
    assert rc == 0 and written
    assert {row[5] for row in rows} == {str(len(written.splitlines()))}
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    "run --window 50",
    "run --window 50 --strategy vf2",
    "run --window 50 --stats STATS",
    "bench",
    "bench --stats STATS",
])
def test_a_missing_stream_creates_no_output(tmp_path, capsys, command):
    # the stream is opened before the output, as a file read whole would be
    stats = _stats_file(tmp_path, _gen_stream(tmp_path))
    query_path = _gen_query(tmp_path)
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    command = [str(stats) if word == "STATS" else word for word in command.split()]
    rc = main([*command, "--query", str(query_path), "--stream", str(tmp_path / "missing.tsv"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dgq: error: ") and "missing.tsv" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-3", "x"])
def test_plan_refuses_a_mean_degree_that_is_no_positive_number(tmp_path, capsys, value):
    stream = _gen_stream(tmp_path)
    out = tmp_path / "plan.txt"
    with pytest.raises(SystemExit) as ei:
        main(["plan", "--query", str(_gen_query(tmp_path)), "--stats", str(_stats_file(tmp_path, stream)),
              "--mean-degree", value, "--out", str(out)])
    assert ei.value.code == 1
    assert "--mean-degree: want a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def test_plan_prints_the_mean_degree_advisories(tmp_path, capsys):
    # the path plan's 2-edge leaf is rarer than its commoner edges allow
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    stats = _stats_file(tmp_path, stream)
    capsys.readouterr()
    plan = ["plan", "--query", str(query_path), "--stats", str(stats), "--mode", "path",
            "--out", str(tmp_path / "plan.txt")]
    assert main([*plan, "--mean-degree", "0.5"]) == 0
    advisories = [line for line in capsys.readouterr().err.splitlines() if line.startswith("plan: advisory: ")]
    assert advisories and all("sub-primitive" in line for line in advisories)
    assert main(plan) == 0
    assert "advisory" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen stream --schema netflow", "bench --schema netflow"])
@pytest.mark.parametrize("skew", ["nan", "inf", "-inf", "-1000", "-0.5"])
def test_a_skew_that_is_no_finite_number_at_least_zero_is_a_data_error(tmp_path, capsys, command, skew):
    out = tmp_path / "x.tsv"
    assert main([*command.split(), "--edges", "50", f"--skew={skew}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"dgq: error: skew must be a finite number >= 0, not {float(skew)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("mangle, message", [
    (lambda doc: doc.pop("totals"), "missing field 'totals'"),
    (lambda doc: doc["arity1"][0].pop("dst_type"), "malformed stats row"),
    (lambda doc: doc["totals"].pop("arity2"), "totals must carry arity1 and arity2"),
])
def test_plan_refuses_a_malformed_stats_file(tmp_path, capsys, mangle, message):
    stats = _stats_file(tmp_path, _gen_stream(tmp_path))
    doc = json.loads(stats.read_text())
    mangle(doc)
    stats.write_text(json.dumps(doc))
    out = tmp_path / "plan.txt"
    capsys.readouterr()
    assert main(["plan", "--query", str(_gen_query(tmp_path)), "--stats", str(stats), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"dgq: error: {stats}: ") and message in err[0]
    assert not out.exists()


def test_a_strategy_disagreement_is_a_mismatch(tmp_path, monkeypatch, capsys):
    # vf2 drops one match: the sweep raises, and dgq bench exits 3 with one line
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    run_strategy = bench_mod.run_strategy

    def dropping(strategy, *args):
        report, got = run_strategy(strategy, *args)
        if strategy == "vf2":
            got = got - Counter([min(got)])
        return report, got

    monkeypatch.setattr(bench_mod, "run_strategy", dropping)
    message = "strategy 'vf2' disagrees with 'singlelazy': 1 missing, 0 extra matches"
    query = parse_query(query_path.read_text())
    with open(stream) as fh:
        records = list(read_edge_stream(fh))
    with pytest.raises(MismatchError) as ei:
        bench_mod.run_sweep(query, records, 50, ["singlelazy", "vf2"], collect_stats(records))
    assert str(ei.value) == message
    capsys.readouterr()
    rc = main(["bench", "--stream", str(stream), "--query", str(query_path), "--window", "50",
               "--out", str(tmp_path / "bench.tsv")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [f"dgq: mismatch: {message}"]


def test_schema_pool_override(tmp_path):
    out = tmp_path / "n.tsv"
    rc = main(["gen", "stream", "--schema", "netflow", "--pool", "5",
               "--edges", "60", "--seed", "1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        hosts = {r[1] for r in read_edge_stream(fh)}
    assert hosts <= {f"ip{i}" for i in range(5)}


def run_emitting(monkeypatch, tmp_path, query_path, stream, window, strategy):
    """Run ``dgq run`` to a file; return the bytes written and every match
    its engine emitted, in order."""
    emitted, make = [], bench_mod.make_engine

    def recording_engine(*args):
        eng, plan, name = make(*args)
        process = eng.process

        def recording(raw):
            out = process(raw)
            emitted.extend(out)
            return out

        eng.process = recording
        return eng, plan, name

    monkeypatch.setattr(bench_mod, "make_engine", recording_engine)
    out = tmp_path / f"{strategy}.tsv"
    rc = main(["run", "--query", str(query_path), "--stream", str(stream), "--window", str(window),
               "--strategy", strategy, "--out", str(out)])
    assert rc == 0
    return out.read_bytes(), emitted


@pytest.fixture(scope="module")
def readme_example(tmp_path_factory):
    # the stream and query of README's command-line example, as written there
    root = tmp_path_factory.mktemp("readme")
    main(["gen", "stream", "--schema", "netflow", "--edges", "50000", "--skew", "1.5", "--seed", "7",
          "--out", str(root / "flows.tsv")])
    main(["gen", "query", "--schema", "netflow", "--edges", "3", "--seed", "7", "--out", str(root / "query.txt")])
    return root / "query.txt", root / "flows.tsv"


@pytest.mark.parametrize("strategy", ["auto", *bench_mod.STRATEGIES])
def test_run_writes_the_pairs_formatting_on_the_readme_example(readme_example, tmp_path, monkeypatch, capsys,
                                                               strategy):
    query_path, stream = readme_example
    written, emitted = run_emitting(monkeypatch, tmp_path, query_path, stream, 500, strategy)
    assert emitted and written == pairs_text(emitted)
    capsys.readouterr()


# the rescan baseline searches the whole window at each edge, so it reads
# only this many lines of each workload stream
RESCAN_LINES = 25_000


@pytest.mark.parametrize("strategy", ["auto", *bench_mod.STRATEGIES])
@pytest.mark.parametrize("name", ["netflow-path4", "social-fanout", "lowxi-chain"])
def test_run_writes_the_pairs_formatting_on_the_workload_streams(tmp_path, monkeypatch, capsys, name, strategy):
    workload = load_workloads()[name]
    lines = workload.stream(301)
    if strategy == "vf2":
        lines = lines[:RESCAN_LINES]
    stream, query_path = tmp_path / "stream.tsv", tmp_path / "query.txt"
    stream.write_text("".join(line + "\n" for line in lines))
    query_path.write_text(workload.query_text)
    written, emitted = run_emitting(monkeypatch, tmp_path, query_path, stream, workload.window, strategy)
    assert emitted and written == pairs_text(emitted)
    capsys.readouterr()
