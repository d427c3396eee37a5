import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    BipartiteColorer,
    ChunkColorer,
    ChunkColour,
    ChunkConfig,
    CompleteGraph,
    Edge,
    OverflowColour,
    StreamHeader,
    Transcript,
    TripleColour,
    UniformRandomPermutation,
    ValidationError,
    WrongAlgorithmError,
    chunk_concentration,
    colour_budget,
    generate,
    run_stream,
    verify,
)
from streamcolor.core import checked_edge
from streamcolor.verify import ConcentrationSummary, _verify_scalar


def transcript_of(records, n=10):
    return Transcript(header=StreamHeader(n), records=records)


A, B, C = ChunkColour(0, 0), ChunkColour(0, 1), ChunkColour(0, 2)


class TestVerify:
    def test_proper_triangle(self):
        t = transcript_of([(Edge(0, 1), A), (Edge(1, 2), B), (Edge(0, 2), C)])
        report = verify(t)
        assert report.proper
        assert report.conflicts == []
        assert report.distinct_colours == 3
        assert report.max_degree == 2

    def test_conflict_located_at_shared_vertex(self):
        t = transcript_of([(Edge(0, 1), A), (Edge(1, 2), A), (Edge(0, 2), B)])
        report = verify(t)
        assert not report.proper
        assert report.conflicts == [(Edge(0, 1), Edge(1, 2), 1, A)]

    def test_conflicts_reported_exhaustively(self):
        star = [(Edge(0, leaf), A) for leaf in (1, 2, 3)]
        report = verify(transcript_of(star))
        # three edges share vertex 0 and one colour: all three pairs listed
        assert len(report.conflicts) == 3

    def test_soundness_and_completeness_on_crafted_pairs(self):
        proper = transcript_of(
            [(Edge(0, 1), TripleColour(0, 0, 0)), (Edge(1, 2), TripleColour(1, 0, 0))]
        )
        improper = transcript_of(
            [(Edge(0, 1), TripleColour(0, 0, 0)), (Edge(1, 2), TripleColour(0, 0, 0))]
        )
        assert verify(proper).proper
        assert not verify(improper).proper

    def test_duplicates_flagged(self):
        t = transcript_of([(Edge(0, 1), A), (Edge(1, 0), B)])
        report = verify(t)
        assert report.duplicate_edges == 1
        assert report.proper  # different colours on the copies

    def test_overflow_counted_separately(self):
        t = transcript_of(
            [
                (Edge(0, 1), OverflowColour(0)),
                (Edge(2, 3), OverflowColour(1)),
                (Edge(1, 2), TripleColour(0, 0, 0)),
            ]
        )
        report = verify(t)
        assert report.overflow_colours == 2
        assert report.distinct_triple_colours == 1
        assert report.distinct_colours == 3

    def test_algorithm_two_transcript_verifies(self):
        header, edges = generate(CompleteGraph(16), UniformRandomPermutation(), 0)
        colorer = BipartiteColorer(16, 4, 0)
        transcript = run_stream(colorer, edges, header)
        assert verify(transcript).proper

    def test_palette_stats(self):
        t = transcript_of(
            [
                (Edge(0, 1), ChunkColour(0, 4)),
                (Edge(0, 2), ChunkColour(0, 1)),
                (Edge(3, 4), ChunkColour(1, 0)),
                (Edge(5, 6), TripleColour(2, 3, 7)),
            ]
        )
        report = verify(t)
        chunk0 = report.per_palette_stats[("chunk", 0)]
        assert chunk0.edge_count == 2
        assert chunk0.max_degree == 2
        assert chunk0.max_local == 4
        triple2 = report.per_palette_stats[("triple", 2)]
        assert triple2.max_left == 4  # announced 3, counter moved to 4
        assert triple2.max_right == 8


class TestChunkConcentration:
    def test_single_chunk_ratio_is_one(self):
        header, edges = generate(CompleteGraph(8), UniformRandomPermutation(), 0)
        colorer = ChunkColorer(ChunkConfig(n=8, alpha=2))  # capacity 32 >= 28
        transcript = run_stream(colorer, edges, header)
        summary = chunk_concentration(transcript)
        assert summary.num_chunks == 1
        assert summary.max_ratio == pytest.approx(1.0)
        assert summary.mean_ratio == pytest.approx(1.0)

    def test_two_chunks_of_a_perfect_matching(self):
        colorer = ChunkColorer(ChunkConfig(n=4, alpha=1))  # capacity 4
        edges = [Edge(0, 1), Edge(2, 3), Edge(0, 2), Edge(1, 3),
                 Edge(0, 3), Edge(1, 2)]
        transcript = run_stream(colorer, edges, StreamHeader(4))
        summary = chunk_concentration(transcript)
        assert summary.num_chunks == 2
        # the last chunk is partial, 2 of 6 edges: each vertex has degree 2 in
        # the full chunk and 1 in the partial one, its share 3 * |chunk| / 6,
        # so every ratio is 1
        assert summary.max_ratio == summary.mean_ratio == 1.0

    def test_wrong_algorithm_rejected(self):
        t = transcript_of([(Edge(0, 1), TripleColour(0, 0, 0))])
        with pytest.raises(WrongAlgorithmError):
            chunk_concentration(t)
        with pytest.raises(WrongAlgorithmError):
            chunk_concentration(transcript_of([]))


class TestEdgeRule:
    # a record out of range for the header's n: read_transcript rejects the
    # same records written to a file, so verify and chunk_concentration do too
    OUT_OF_RANGE = r"^edge \(0,5\) out of range for n=3$"

    def test_out_of_range_alone(self):
        t = Transcript(StreamHeader(3), [(Edge(0, 5), ChunkColour(0, 0))])
        for check in (verify, chunk_concentration):
            with pytest.raises(ValidationError, match=self.OUT_OF_RANGE):
                check(t)

    def test_out_of_range_with_a_conflict(self):
        t = Transcript(
            StreamHeader(3),
            [(Edge(0, 1), A), (Edge(1, 2), A), (Edge(0, 5), ChunkColour(0, 0))],
        )
        for check in (verify, _verify_scalar, chunk_concentration):
            with pytest.raises(ValidationError, match=self.OUT_OF_RANGE):
                check(t)

    def test_negative_id(self):
        t = Transcript(StreamHeader(4), [(Edge(-1, 2), A)])
        for check in (verify, chunk_concentration):
            with pytest.raises(ValidationError, match=r"^edge \(-1,2\) out of range for n=4$"):
                check(t)


def concentration_loop(transcript):
    """chunk_concentration record by record: the oracle of the column path."""
    chunk_degree: dict[tuple[int, int], int] = {}
    full_degree: dict[int, int] = {}
    chunk_size: dict[int, int] = {}
    for edge, colour in transcript.records:
        if not isinstance(colour, ChunkColour):
            raise WrongAlgorithmError(
                "transcript has non-chunk colours; chunk structure unavailable"
            )
        chunk_size[colour.chunk] = chunk_size.get(colour.chunk, 0) + 1
        for x in checked_edge(edge, transcript.header.n):
            full_degree[x] = full_degree.get(x, 0) + 1
            chunk_degree[(colour.chunk, x)] = chunk_degree.get((colour.chunk, x), 0) + 1
    if not chunk_size:
        raise WrongAlgorithmError("empty transcript has no chunk structure")

    m = len(transcript.records)
    ratios = []
    for (chunk, vertex), d_i in sorted(chunk_degree.items()):
        expected = full_degree[vertex] * chunk_size[chunk] / m
        ratios.append(d_i / expected)
    return ConcentrationSummary(
        num_chunks=len(chunk_size),
        max_ratio=max(ratios),
        mean_ratio=sum(ratios) / len(ratios),
    )


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def chunk_transcripts(draw):
    vertex = st.integers(-1, 12) if draw(st.booleans()) else st.integers(0, 12)
    chunk = st.integers(-2, 5)
    colour = st.builds(ChunkColour, chunk, st.integers(0, 9))
    if draw(st.integers(0, 4)) == 0:  # now and then a record of another kind
        colour = colour | st.builds(OverflowColour, st.integers(0, 3))
    records = draw(st.lists(st.tuples(st.builds(Edge, vertex, vertex), colour), max_size=80))
    return transcript_of(records, n=13)


class TestChunkConcentrationColumns:
    @settings(deadline=None, max_examples=300)
    @given(transcript=chunk_transcripts())
    def test_matches_record_loop(self, transcript):
        # repr compares the floats bit for bit
        assert repr(outcome(chunk_concentration, transcript)) == repr(
            outcome(concentration_loop, transcript)
        )

    def test_chunk_cli_sized_stream(self):
        header, edges = generate(CompleteGraph(60), UniformRandomPermutation(), 3)
        transcript = run_stream(ChunkColorer(ChunkConfig(n=60, alpha=3)), edges, header)
        summary = chunk_concentration(transcript)
        assert summary.num_chunks == 4
        assert repr(summary) == repr(concentration_loop(transcript))


class TestColourBudget:
    def test_single_palette_counter_square(self):
        # s = 1: every edge lands in slice 0; bound is (max slice degree)^2
        t = transcript_of(
            [
                (Edge(0, 1), TripleColour(0, 0, 0)),
                (Edge(0, 2), TripleColour(0, 1, 0)),
                (Edge(3, 1), TripleColour(0, 0, 1)),
            ]
        )
        report = verify(t)
        budget = colour_budget(report, "bipartite", s=1)
        assert budget.bound == 4
        assert budget.passed

    def test_single_chunk_bound_is_degree_plus_one(self):
        header, edges = generate(CompleteGraph(6), UniformRandomPermutation(), 1)
        colorer = ChunkColorer(ChunkConfig(n=6, alpha=2))
        transcript = run_stream(colorer, edges, header)
        report = verify(transcript)
        budget = colour_budget(report, "chunk")
        assert budget.bound == report.max_degree + 1
        assert budget.passed

    def test_chunk_with_repeated_edges_within_budget(self):
        # every triangle edge twice: all six records meet, so six colours
        # are needed where max degree + 1 = 5
        colorer = ChunkColorer(ChunkConfig(n=3, alpha=2))
        edges = [Edge(0, 1), Edge(0, 2), Edge(0, 2), Edge(1, 2), Edge(1, 2), Edge(1, 0)]
        report = verify(run_stream(colorer, edges, StreamHeader(3)))
        assert report.proper and report.distinct_colours == 6
        budget = colour_budget(report, "chunk")
        assert budget.bound == 7
        assert budget.passed

    def test_mismatched_algo_rejected(self):
        chunk_t = transcript_of([(Edge(0, 1), A)])
        triple_t = transcript_of([(Edge(0, 1), TripleColour(0, 0, 0))])
        with pytest.raises(ValidationError):
            colour_budget(verify(chunk_t), "bipartite", s=4)
        with pytest.raises(ValidationError):
            colour_budget(verify(triple_t), "chunk")
        with pytest.raises(ValidationError):
            colour_budget(verify(triple_t), "bipartite")  # missing s
        with pytest.raises(ValidationError):
            colour_budget(verify(chunk_t), "mystery")

    def test_slice_out_of_range_for_s(self):
        t = transcript_of([(Edge(0, 1), TripleColour(5, 0, 0))])
        with pytest.raises(ValidationError):
            colour_budget(verify(t), "bipartite", s=4)
