import time

import pytest

from streamcolor import (
    ChunkColorer,
    ChunkConfig,
    CompleteGraph,
    Edge,
    ExperimentSpec,
    GreedyStreamColorer,
    UniformRandomPermutation,
    ValidationError,
    generate,
    run_experiment,
    run_stream,
    verify,
)
from streamcolor.harness import CSV_COLUMNS, CSV_VERSION, colour_pass, rows_to_csv


class TestGreedyBaseline:
    def test_announces_immediately_with_smallest_free_colour(self):
        colorer = GreedyStreamColorer(4)
        [(_, c0)] = colorer.feed(Edge(0, 1))
        [(_, c1)] = colorer.feed(Edge(1, 2))
        [(_, c2)] = colorer.feed(Edge(0, 2))
        assert (c0.local, c1.local, c2.local) == (0, 1, 2)

    def test_bound_and_properness(self):
        from streamcolor import generate

        header, edges = generate(CompleteGraph(20), UniformRandomPermutation(), 0)
        colorer = GreedyStreamColorer(20)
        transcript = run_stream(colorer, edges, header)
        report = verify(transcript)
        assert report.proper
        assert report.distinct_colours <= 2 * report.max_degree - 1

    def test_meter_grows_with_stream(self):
        from streamcolor import generate

        header, edges = generate(CompleteGraph(16), UniformRandomPermutation(), 1)
        colorer = GreedyStreamColorer(16)
        run_stream(colorer, edges, header)
        # two colour words per edge: the baseline's space is linear in m,
        # which is exactly why it is only a baseline
        assert colorer.meter.peak_words == 2 * len(edges) + 1


class TestExperimentSpec:
    def test_validation(self):
        base = dict(family=CompleteGraph(8), order=UniformRandomPermutation(), seeds=[0])
        for algo in ("quantum", "greedy-baseline"):
            with pytest.raises(ValidationError, match=f"unknown algorithm '{algo}'"):
                ExperimentSpec(algo=algo, **base)
        with pytest.raises(ValidationError):
            ExperimentSpec(algo="chunk", seeds=[], family=CompleteGraph(8), order=UniformRandomPermutation())
        with pytest.raises(ValidationError):
            ExperimentSpec(algo="chunk", s=4, **base)
        with pytest.raises(ValidationError):
            ExperimentSpec(algo="bipartite", alpha=2, **base)

    def test_single_seed_chunk_row(self):
        spec = ExperimentSpec(
            family=CompleteGraph(8),
            order=UniformRandomPermutation(),
            algo="chunk",
            alpha=1,
            seeds=[0],
        )
        [row] = run_experiment(spec)
        assert row["proper"] == 1
        assert row["n"] == 8
        assert row["m"] == 28
        assert row["error"] == ""

    def test_identical_seeds_give_identical_rows(self):
        spec = ExperimentSpec(
            family=CompleteGraph(8),
            order=UniformRandomPermutation(),
            algo="chunk",
            alpha=1,
            seeds=[3, 3],
        )
        rows = run_experiment(spec)
        a, b = rows
        for col in CSV_COLUMNS:
            if col != "wall_time_s":  # timing is reported, not reproducible
                assert a[col] == b[col], col

    def test_bipartite_rows_report_overflow(self):
        spec = ExperimentSpec(
            family=CompleteGraph(12),
            order=UniformRandomPermutation(),
            algo="bipartite",
            s=2,  # tiny width: identical signatures are common
            seeds=[0],
        )
        [row] = run_experiment(spec)
        assert row["proper"] == 1
        assert row["overflow"] >= 0

    def test_failure_becomes_error_row(self, tmp_path):
        from streamcolor import FromFile

        spec = ExperimentSpec(
            family=FromFile(str(tmp_path / "missing.el")),  # only a run finds it missing
            order=UniformRandomPermutation(),
            algo="chunk",
            seeds=[0, 1],
        )
        rows = run_experiment(spec)
        assert all(r["error"].startswith("FileNotFoundError") for r in rows)
        assert all(r["proper"] == 0 for r in rows)

    def test_transcripts_written_when_requested(self, tmp_path):
        spec = ExperimentSpec(
            family=CompleteGraph(6),
            order=UniformRandomPermutation(),
            algo="chunk",
            alpha=1,
            seeds=[0],
            out_dir=tmp_path,
        )
        run_experiment(spec)
        files = list(tmp_path.glob("*.transcript"))
        assert len(files) == 1


class DropsOneEdge(ChunkColorer):
    """A broken chunk colourer: its last chunk loses its first record."""

    def _drain(self):
        return super()._drain()[1:]


class TestColourPass:
    @pytest.mark.parametrize("make", [ChunkColorer, DropsOneEdge], ids=["chunk", "drops-one-edge"])
    def test_proper_needs_every_input_edge(self, make):
        header, edges = generate(CompleteGraph(8), UniformRandomPermutation(), 0)
        colorer = make(ChunkConfig(n=8, alpha=2))  # one chunk holds all 28 edges
        row = {"algo": "chunk"}
        transcript, report = colour_pass(row, colorer, 2, header, edges, time.perf_counter())
        # the transcript alone is proper and in budget either way
        assert report.proper
        assert row["proper"] == (len(transcript) == len(edges))
        assert len(transcript) == len(edges) - (make is DropsOneEdge)

    def test_run_prints_the_row_verdict(self, tmp_path, monkeypatch, capsys):
        from streamcolor import cli

        monkeypatch.setattr(cli, "ChunkColorer", DropsOneEdge)
        monkeypatch.setenv("STREAMCOLOR_OUT", str(tmp_path))
        cli.main(["generate", "--family", "complete:8", "--seed", "1", "-o", "g.el"])
        assert cli.main(["run", "--algo", "chunk", "--alpha", "2", "--graph", str(tmp_path / "g.el")]) == 1
        assert "proper=False" in capsys.readouterr().out


class TestCsv:
    def test_versioned_header(self):
        text = rows_to_csv([])
        lines = text.splitlines()
        assert lines[0] == f"# {CSV_VERSION}"
        assert lines[1] == ",".join(CSV_COLUMNS)

    def test_row_order_matches_columns(self):
        spec = ExperimentSpec(
            family=CompleteGraph(6),
            order=UniformRandomPermutation(),
            algo="chunk",
            seeds=[1],
        )
        rows = run_experiment(spec)
        text = rows_to_csv(rows)
        line = text.splitlines()[2].split(",")
        assert line[0] == "chunk"
        assert line[CSV_COLUMNS.index("seed")] == "1"
