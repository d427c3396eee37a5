import pytest

from streamcolor import AsGiven, ExperimentSpec, FromFile, run_single
from streamcolor.cli import main
from streamcolor.core import read_edge_list, read_transcript
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
    ids=["order-seed", "seed-list", "alpha-range", "graph-directory", "chunk-s",
         "bipartite-alpha", "greedy-s", "greedy-alpha", "alpha-zero", "s-zero",
         "transcript-endpoint"],
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


def test_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required flags
    assert err.value.code == 2
