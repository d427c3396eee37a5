import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import AsGiven, Edge, ExperimentSpec, FromFile, StreamHeader, run_single
from streamcolor.cli import main
from streamcolor.core import read_edge_list, read_transcript, write_edge_list
from streamcolor.harness import CSV_COLUMNS, rows_to_csv


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STREAMCOLOR_OUT", str(tmp_path))
    return tmp_path


def test_generate_writes_stream(out_env, capsys):
    rc = main(["generate", "--family", "complete:6", "--order", "random", "--seed", "3",
               "-o", "g.el"])
    assert rc == 0
    header, edges = read_edge_list(out_env / "g.el")
    assert header.n == 6
    assert len(edges) == 15


def test_run_chunk_and_verify_roundtrip(out_env, capsys):
    main(["generate", "--family", "complete:10", "--seed", "1", "-o", "g.el"])
    rc = main(["run", "--algo", "chunk", "--alpha", "1",
               "--graph", str(out_env / "g.el"), "-o", "t.tr"])
    assert rc == 0
    transcript = read_transcript(out_env / "t.tr")
    assert len(transcript.records) == 45

    rc = main(["verify", str(out_env / "t.tr"), str(out_env / "g.el")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PROPER" in out


def test_run_bipartite_emits_csv(out_env):
    main(["generate", "--family", "gnp:64:0.2", "--seed", "5", "-o", "g.el"])
    rc = main(["run", "--algo", "bipartite", "--s", "8", "--seed", "5",
               "--graph", str(out_env / "g.el"), "-o", "t.tr", "--csv", "rows.csv"])
    assert rc == 0
    text = (out_env / "rows.csv").read_text().splitlines()
    assert text[0].startswith("#")
    assert text[1].startswith("algo,")
    assert text[2].startswith("bipartite,")


def test_verify_flags_tampered_transcript(out_env, capsys):
    main(["generate", "--family", "complete:6", "--seed", "1", "-o", "g.el"])
    main(["run", "--algo", "chunk", "--graph", str(out_env / "g.el"), "-o", "t.tr"])
    lines = (out_env / "t.tr").read_text().splitlines()
    # force the first two records to the same colour
    first_colour = lines[1].split()[2]
    parts = lines[2].split()
    lines[2] = f"{parts[0]} {parts[1]} {first_colour}"
    (out_env / "bad.tr").write_text("\n".join(lines) + "\n")
    rc = main(["verify", str(out_env / "bad.tr"), str(out_env / "g.el")])
    assert rc == 1
    assert "NOT PROPER" in capsys.readouterr().out


def test_color_offline(out_env, capsys):
    main(["generate", "--family", "star:12", "-o", "g.el"])
    rc = main(["color-offline", str(out_env / "g.el"), "--method", "vizing"])
    assert rc == 0
    assert "12 colours" in capsys.readouterr().out


def test_worst_case_writes_both_files(out_env, capsys):
    rc = main(["worst-case", "--delta", "16", "--s", "4", "--seed", "0",
               "-o", "adv.el", "--transcript", "adv.tr"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "forced" in out
    header, edges = read_edge_list(out_env / "adv.el")
    transcript = read_transcript(out_env / "adv.tr")
    assert len(edges) == len(transcript.records)
    assert len({c for _, c in transcript.records}) >= 16


def test_sweep_appends_rows(out_env):
    rc = main(["sweep", "--family", "complete:12", "--order", "random",
               "--algo", "chunk", "--alpha", "1,2", "--seeds", "0..2",
               "--csv", "sweep.csv"])
    assert rc == 0
    lines = (out_env / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 * 3  # header comment + columns + rows


def test_usage_error_exit_code_two(out_env):
    assert main(["generate", "--family", "dodecahedron:5"]) == 2
    assert main(["run", "--algo", "chunk", "--graph", str(out_env / "missing.el")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "complete:4", "--order", "random:x"],
        ["generate", "--family", "complete:4", "--order", "sorted:junk"],
        ["generate", "--family", "complete:4", "--order", "as-given:zzz"],
        ["sweep", "--family", "complete:4", "--algo", "chunk", "--seeds", "1,x"],
        ["sweep", "--family", "complete:4", "--algo", "chunk", "--alpha", "1..x"],
        ["run", "--algo", "chunk", "--graph", "."],  # a directory
        ["sweep", "--family", "complete:4", "--algo", "chunk", "--s", "5", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "bipartite", "--alpha", "2", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "greedy-baseline", "--s", "5", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "greedy-baseline", "--alpha", "2", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "chunk", "--alpha", "0", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "bipartite", "--s", "0", "--seeds", "0"],
        ["verify", "{out}/bad.tr", "{out}/g.el"],
    ],
    ids=["order-seed", "sorted-junk", "as-given-junk", "seed-list", "alpha-range",
         "graph-directory", "chunk-s", "bipartite-alpha", "greedy-s", "greedy-alpha",
         "alpha-zero", "s-zero", "transcript-endpoint"],
)
def test_malformed_value_exits_two(out_env, capsys, argv):
    # vertices 7 and 9 are out of range for the 4-vertex graph
    (out_env / "g.el").write_text("n 4\n0 1\n")
    (out_env / "bad.tr").write_text("n 4\n7 9 c:0:0\n")
    argv = [arg.format(out=out_env) for arg in argv]
    # exit 1 means a verification failure; bad input is a usage error
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # rejected before any run


def test_truncated_stream_exits_two(out_env, capsys):
    main(["generate", "--family", "complete:8", "--order", "random", "--seed", "1", "-o", "g.el"])
    lines = (out_env / "g.el").read_text().splitlines(keepends=True)
    (out_env / "cut.el").write_text("".join(lines[:11]))  # the header says m 28
    main(["run", "--algo", "chunk", "--alpha", "1", "--graph", str(out_env / "g.el"), "-o", "t.tr"])
    capsys.readouterr()
    for argv in (["run", "--algo", "chunk", "--alpha", "1", "--graph", str(out_env / "cut.el")],
                 ["verify", str(out_env / "t.tr"), str(out_env / "cut.el")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 1: header says m 28 but the file has 10 edges\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "n, graph_edge, announced",
    [
        # keyed as min * 2**33 + max, the announced edge wraps int64 onto the input's
        (1 << 33, f"0 {(1 << 33) - 1}", f"{1 << 31} {(1 << 33) - 1}"),
        (1 << 64, f"0 {1 << 63}", "0 1"),  # no transcript holds an id beyond int64
    ],
    ids=["packed-key-wraps", "beyond-int64"],
)
def test_verify_compares_large_ids_exactly(out_env, capsys, n, graph_edge, announced):
    (out_env / "g.el").write_text(f"n {n}\n{graph_edge}\n")
    (out_env / "t.tr").write_text(f"n {n}\n{announced} c:0:0\n")
    assert main(["verify", str(out_env / "t.tr"), str(out_env / "g.el")]) == 1
    assert "covers input edge multiset: False" in capsys.readouterr().out


@pytest.mark.parametrize(
    "algo, flags, expected",
    [
        ("greedy-baseline", [], "chunk concentration: not measured over a single chunk"),
        ("chunk", ["--alpha", "8"], "chunk concentration: not measured over a single chunk"),
        ("chunk", ["--alpha", "2"], "chunk concentration over 2 chunks: "),
    ],
    ids=["greedy-baseline", "one-chunk", "two-chunks"],
)
def test_verify_reports_concentration_only_over_chunks(out_env, capsys, algo, flags, expected):
    # complete:12 has 66 edges; a chunk holds alpha^2 * 12 of them
    main(["generate", "--family", "complete:12", "--order", "random", "--seed", "0", "-o", "g.el"])
    main(["run", "--algo", algo, *flags, "--graph", str(out_env / "g.el"), "-o", "t.tr"])
    capsys.readouterr()
    assert main(["verify", str(out_env / "t.tr"), str(out_env / "g.el")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "concentration" in line]
    assert len(lines) == 1 and lines[0].startswith(expected)


@pytest.mark.parametrize(
    "algo, flags, spec_param",
    [
        ("chunk", ["--alpha", "1"], {"alpha": 1}),
        ("bipartite", ["--s", "8"], {"s": 8}),
        ("greedy-baseline", [], {}),
    ],
    ids=["chunk", "bipartite", "greedy-baseline"],
)
def test_run_row_matches_harness_row(out_env, algo, flags, spec_param):
    main(["generate", "--family", "gnp:40:0.3", "--order", "random", "--seed", "7",
          "-o", "g.el"])
    graph = str(out_env / "g.el")
    rc = main(["run", "--algo", algo, *flags, "--seed", "7", "--graph", graph,
               "-o", "t.tr", "--csv", "rows.csv"])
    assert rc == 0
    cli_row = (out_env / "rows.csv").read_text().splitlines()[2].split(",")
    spec = ExperimentSpec(family=FromFile(graph), order=AsGiven(), algo=algo, seeds=[7],
                          **spec_param)
    row, _ = run_single(spec, 7)
    harness_row = rows_to_csv([row]).splitlines()[2].split(",")
    for i, col in enumerate(CSV_COLUMNS):
        if col not in ("family", "order", "wall_time_s"):
            assert cli_row[i] == harness_row[i], col


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_run_and_verify_streams_with_repeated_edges(data):
    # a small vertex count makes repeats, in either orientation, common;
    # one repeat is always appended
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, min_size=1, max_size=40))]
    u, v = data.draw(st.sampled_from(edges))
    edges.append(Edge(v, u))
    alpha = data.draw(st.sampled_from(["1", "2"]))
    with tempfile.TemporaryDirectory() as tmp:
        graph, out = Path(tmp) / "g.el", Path(tmp) / "t.tr"
        write_edge_list(graph, StreamHeader(n), edges)
        assert main(["run", "--algo", "chunk", "--alpha", alpha, "--graph", str(graph),
                     "-o", str(out)]) == 0
        assert main(["verify", str(out), str(graph)]) == 0
        announced = [tuple(edge) for edge, _ in read_transcript(out).records]
    assert Counter(announced) == Counter(tuple(sorted(e)) for e in edges)


def test_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required flags
    assert err.value.code == 2
