"""End-to-end command line: gen -> stats -> plan -> run -> bench."""
from __future__ import annotations

import io
import json

import pytest

from dgquery.baseline import RescanEngine
from dgquery.cli import _format_match, main
from dgquery.graph import read_edge_stream
from dgquery.query import parse_query
from dgquery.sjtree import SJTree
from dgquery.stats import SelectivityTable


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
    table = SelectivityTable.load(str(out))
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
    expected = "".join(_format_match(seq, m) + "\n" for seq, m in enumerate(matches)).encode()
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


def test_run_accepts_unbounded_window(tmp_path):
    stream = _gen_stream(tmp_path)
    query_path = _gen_query(tmp_path)
    rc = main([
        "run", "--query", str(query_path), "--stream", str(stream),
        "--window", "inf", "--strategy", "singlelazy",
        "--out", str(tmp_path / "o.tsv"),
    ])
    assert rc == 0


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


def test_bench_rejects_unknown_strategy(tmp_path, capsys):
    rc = main(["bench", "--strategies", "warp", "--out", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert "unknown strategy" in capsys.readouterr().err


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


def test_data_errors_exit_two(tmp_path, capsys):
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
    capsys.readouterr()


def test_schema_pool_override(tmp_path):
    out = tmp_path / "n.tsv"
    rc = main(["gen", "stream", "--schema", "netflow", "--pool", "5",
               "--edges", "60", "--seed", "1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        hosts = {r[1] for r in read_edge_stream(fh)}
    assert hosts <= {f"ip{i}" for i in range(5)}
