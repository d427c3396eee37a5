import csv
import io
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    AsGiven,
    Edge,
    ExperimentSpec,
    FromFile,
    StreamHeader,
    ValidationError,
    parse_colour,
    run_single,
)
from streamcolor.cli import main
from streamcolor.core import read_edge_list, read_transcript, write_edge_list
from streamcolor.harness import CSV_COLUMNS, CSV_VERSION, rows_to_csv


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
        ["sweep", "--family", "complete:4", "--algo", "chunk", "--alpha", "0", "--seeds", "0"],
        ["sweep", "--family", "complete:4", "--algo", "bipartite", "--s", "0", "--seeds", "0"],
        ["verify", "{out}/bad.tr", "{out}/g.el"],
        ["run", "--algo", "chunk", "--s", "5", "--graph", "{out}/g.el"],
        ["run", "--algo", "bipartite", "--alpha", "2", "--graph", "{out}/g.el"],
    ],
    ids=["order-seed", "sorted-junk", "as-given-junk", "seed-list", "alpha-range",
         "graph-directory", "chunk-s", "bipartite-alpha", "alpha-zero", "s-zero",
         "transcript-endpoint", "run-chunk-s", "run-bipartite-alpha"],
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


@pytest.mark.parametrize(
    "header",
    ["n 5 q 3", "n five", "n 0", "n 4 m 7", "n 4 seed x", "n 5 n 6", "n 6 m 2 m 1",
     "n 6 seed 1 seed 1", "n 1_0", "n \u0663"],
)
def test_bad_header_exits_two_naming_line_one(out_env, capsys, header):
    (out_env / "g.el").write_text(f"{header}\n0 1\n")
    assert main(["run", "--algo", "chunk", "--graph", str(out_env / "g.el")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 1: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "family",
    ["complete:0", "star:0", "gnp:10:1.5", "gnp:0:0.5", "regular:5:3", "regular:4:4",
     "bipartite:0:3"],
)
def test_bad_family_exits_two(out_env, capsys, family):
    assert main(["generate", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (out_env / "stream.el").exists()


@pytest.mark.parametrize("family", ["complete:0", "star:0", "gnp:10:1.5", "regular:5:3"])
def test_sweep_rejects_ungeneratable_family_before_any_run(out_env, capsys, family):
    # no seed can generate these values: a usage error, not a failed row
    assert main(["sweep", "--family", family, "--algo", "chunk", "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("s", ["0", "-1"])
def test_worst_case_width_below_one_exits_two(out_env, capsys, s):
    # the default vertex count is sized from s, so s is checked before it
    assert main(["worst-case", "--delta", "8", "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: signature width must be >= 1, got {s}\n"
    assert captured.out == ""


def test_generate_gnp_with_a_subnormal_probability(out_env, capsys):
    # the first geometric gap is infinite: the stream holds no edge
    assert main(["generate", "--family", "gnp:10:5e-324", "-o", "g.el"]) == 0
    header, edges = read_edge_list(out_env / "g.el")
    assert (header.n, edges) == (10, [])


@pytest.mark.parametrize(
    "algo, flags", [("chunk", ["--alpha", "1"]), ("bipartite", ["--s", "8"])],
    ids=["chunk", "bipartite"],
)
def test_run_and_sweep_agree_on_a_repeated_edge(out_env, capsys, algo, flags):
    # both commands colour the stream as read, the repeat included
    (out_env / "g.el").write_text("n 4\n0 1\n1 2\n2 3\n1 0\n")
    graph = str(out_env / "g.el")
    assert main(["run", "--algo", algo, *flags, "--graph", graph, "-o", "t.tr",
                 "--csv", "run.csv"]) == 0
    assert main(["sweep", "--family", f"file:{graph}", "--order", "as-given", "--algo", algo,
                 *flags, "--seeds", "0", "--csv", "sweep.csv"]) == 0
    run_row, sweep_row = (
        dict(zip(CSV_COLUMNS, (out_env / name).read_text().splitlines()[2].split(",")))
        for name in ("run.csv", "sweep.csv")
    )
    for row in (run_row, sweep_row):
        for col in ("family", "order", "wall_time_s"):
            del row[col]
    assert run_row == sweep_row
    assert (run_row["m"], run_row["proper"], run_row["error"]) == ("4", "1", "")


def test_sweep_quotes_an_error_holding_a_comma(out_env, capsys):
    (out_env / "bad.el").write_text("n 5\n0 1\n0 9\n")
    argv = ["sweep", "--family", f"file:{out_env / 'bad.el'}", "--algo", "chunk", "--seeds", "0"]
    assert main(argv) == 1
    assert main([*argv, "--csv", "rows.csv"]) == main([*argv, "--csv", "rows.csv"]) == 1
    for text in (capsys.readouterr().out, (out_env / "rows.csv").read_text()):
        version, body = text.split("\n", 1)
        assert version == f"# {CSV_VERSION}"
        header, *rows = csv.reader(io.StringIO(body))
        assert header == CSV_COLUMNS and rows
        for row in rows:
            assert len(row) == len(CSV_COLUMNS)
            assert row[CSV_COLUMNS.index("error")] == (
                "TranscriptParseError: line 3: edge (0,9) out of range for n=5"
            )


def test_sweep_saves_a_transcript_of_a_file_in_a_subdirectory(out_env, capsys):
    graph = out_env / "graphs" / "g.el"
    graph.parent.mkdir()
    assert main(["generate", "--family", "complete:8", "-o", str(graph)]) == 0
    assert main(["sweep", "--family", f"file:{graph}", "--algo", "chunk", "--seeds", "0",
                 "--transcripts", str(out_env / "saved")]) == 0
    [saved] = (out_env / "saved").iterdir()
    assert main(["verify", str(saved), str(graph)]) == 0


def test_worst_case_out_of_vertices_exits_two(out_env, capsys):
    # at s = 24 no clean class pairs exist, and the repair of missed edges
    # needs several thousand fresh vertices
    assert main(["worst-case", "--delta", "96", "--s", "24", "--n", "3000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "greedy-baseline", "--graph", "g.el"],
        ["sweep", "--family", "complete:4", "--algo", "greedy-baseline", "--seeds", "0"],
    ],
    ids=["run", "sweep"],
)
def test_greedy_baseline_is_a_usage_error(capsys, argv):
    # the pipeline runs the paper's two colourers; the baseline is a library class
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "argument --algo: invalid choice: 'greedy-baseline'" in capsys.readouterr().err


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
    "alpha, expected",
    [
        ("8", "chunk concentration: not measured over a single chunk"),
        ("2", "chunk concentration over 2 chunks: "),
    ],
    ids=["one-chunk", "two-chunks"],
)
def test_verify_reports_concentration_only_over_chunks(out_env, capsys, alpha, expected):
    # complete:12 has 66 edges; a chunk holds alpha^2 * 12 of them
    main(["generate", "--family", "complete:12", "--order", "random", "--seed", "0", "-o", "g.el"])
    main(["run", "--algo", "chunk", "--alpha", alpha, "--graph", str(out_env / "g.el"), "-o", "t.tr"])
    capsys.readouterr()
    assert main(["verify", str(out_env / "t.tr"), str(out_env / "g.el")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "concentration" in line]
    assert len(lines) == 1 and lines[0].startswith(expected)


@pytest.mark.parametrize(
    "algo, flags, spec_param",
    [
        ("chunk", ["--alpha", "1"], {"alpha": 1}),
        ("bipartite", ["--s", "8"], {"s": 8}),
    ],
    ids=["chunk", "bipartite"],
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


def main_quietly(argv):
    """``main``'s exit code and what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


TOKEN = st.text(alphabet="0123456789-:cotx", min_size=1, max_size=6)


def _unparseable(text):
    try:
        parse_colour(text)
    except ValidationError:
        return True
    return False


def garbage_lines(n, colours):
    """Non-blank lines that the reader of a stream file, or of a transcript
    when ``colours``, on ``n`` vertices rejects, none of them a header."""
    width = 3 if colours else 2
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    far = st.integers(n, 1 << 70) | st.integers(-(1 << 70), -1)
    not_int = TOKEN.filter(lambda t: not t.lstrip("-").isdigit())
    tail = " c:0:0" if colours else ""
    lines = [
        st.lists(TOKEN, min_size=1, max_size=5).filter(lambda ts: len(ts) != width).map(" ".join),
        st.tuples(not_int, vertex).map(lambda t: f"{t[0]} {t[1]}{tail}"),
        st.tuples(vertex, not_int).map(lambda t: f"{t[0]} {t[1]}{tail}"),
        # an endpoint int() reads as one in range, but not in ASCII digits alone
        st.sampled_from(["0_1", "+0_2", "\u0663", "\uff14", "5\u00a0"]).map(lambda t: f"0 {t}{tail}"),
        vertex.map(lambda x: f"{x} {x}{tail}"),  # self-loop
        st.tuples(vertex, far).map(lambda t: f"{t[0]} {t[1]}{tail}"),
        st.tuples(far, vertex).map(lambda t: f"{t[0]} {t[1]}{tail}"),
        # two good lines joined by a character that str.splitlines breaks at
        st.tuples(pair, pair, st.sampled_from("\x1c\x1d\x1e\x85\u2028")).map(
            lambda t: f"{t[0][0]} {t[0][1]}{tail}{t[2]}{t[1][0]} {t[1][1]}{tail}"
        ),
    ]
    if colours:
        wide = st.integers(1 << 63, 1 << 70) | st.integers(-(1 << 70), -(1 << 63) - 1)
        lines += [
            st.tuples(pair, TOKEN.filter(_unparseable)).map(lambda t: f"{t[0][0]} {t[0][1]} {t[1]}"),
            st.tuples(pair, wide).map(lambda t: f"{t[0][0]} {t[0][1]} c:{t[1]}:0"),  # beyond int64
            st.sampled_from(["c:0_1:0", "t:\u0663:0:0", "o:\uff11"]).map(lambda c: f"0 1 {c}"),
        ]

    def undecodable(case):
        """A good line with a byte put in that is not UTF-8."""
        (u, v), byte, at = case
        line = f"{u} {v}{tail}".encode()
        return line[:at] + byte + line[at:]

    bad_bytes = st.tuples(pair, st.sampled_from([b"\xff", b"\xc3", b"\x80"]), st.integers(0, 8))
    return st.one_of(lines).map(str.encode) | bad_bytes.map(undecodable)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), colours=st.booleans())
def test_garbage_line_exits_two_naming_it(data, colours):
    # a few valid lines, blanks among them, and one garbage line, which may be
    # the header; a blank line may hold ASCII whitespace, which is no line break
    n = 6
    blank = ["", "\x0c", "\r", " \t"]
    body = data.draw(st.lists(st.sampled_from(["0 1", "2 3", "5 1", *blank]), max_size=6))
    body = [f"{line} c:0:{i}" if line.strip() and colours else line for i, line in enumerate(body)]
    lines = [f"n {n}".encode(), *map(str.encode, body)]
    at = data.draw(st.integers(0, len(lines)))
    garbage = data.draw(garbage_lines(n, colours))
    if at == 0:
        lines[0] = garbage
    else:
        lines.insert(at, garbage)
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "g.el", Path(tmp) / "bad"
        good.write_text(f"n {n}\n0 1\n")
        bad.write_bytes(b"\n".join(lines) + b"\n")
        if colours:
            argv = ["verify", str(bad), str(good)]
        else:
            argv = ["run", "--algo", "chunk", "--graph", str(bad), "-o", str(Path(tmp) / "t.tr")]
        rc, out, err = main_quietly(argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: line {at + 1}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"n 3 m 2\n0 1\n\xff\n", "line 3: not UTF-8 text: b'\\xff'"),
        (b"n 3 m 2\n0 1\x1c1 2\n", "line 2: expected `u v`, got '0 1\\x1c1 2'"),
        (b"n 5\n\x0c\n0 1\n2 2\n", "line 4: self-loop (2,2) is not a valid edge"),
    ],
    ids=["undecodable", "file-separator", "form-feed"],
)
def test_lines_end_at_newline_only(out_env, text, message):
    # str.splitlines would break at \x1c and \x0c; a line must be UTF-8
    graph = out_env / "g.el"
    graph.write_bytes(text)
    rc, out, err = main_quietly(["run", "--algo", "chunk", "--graph", str(graph)])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_run_and_verify_multi_limb_signatures(data):
    # s > 64 spreads each vertex's signature over several 64-bit limbs
    n = data.draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, min_size=1, max_size=40))]
    s, seed = data.draw(st.integers(65, 200)), data.draw(st.integers(0, 99))
    with tempfile.TemporaryDirectory() as tmp:
        graph, out = Path(tmp) / "g.el", Path(tmp) / "t.tr"
        write_edge_list(graph, StreamHeader(n), edges)
        run = ["run", "--algo", "bipartite", "--s", str(s), "--seed", str(seed),
               "--graph", str(graph), "-o", str(out)]
        assert main_quietly(run)[0] == 0
        assert main_quietly(["verify", str(out), str(graph)])[0] == 0


def test_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required flags
    assert err.value.code == 2
