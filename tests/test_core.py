import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcolor import (
    ChunkColour,
    ContractViolation,
    Edge,
    OverflowColour,
    SpaceMeter,
    StreamHeader,
    Transcript,
    TranscriptParseError,
    TripleColour,
    ValidationError,
    canonicalize,
    format_colour,
    parse_colour,
    read_edge_list,
    read_transcript,
    write_edge_list,
    write_transcript,
)


class TestCanonicalize:
    def test_orders_endpoints(self):
        assert canonicalize(Edge(5, 2)) == Edge(2, 5)

    def test_idempotent_on_canonical(self):
        assert canonicalize(Edge(2, 5)) == Edge(2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            canonicalize(Edge(3, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            canonicalize(Edge(-1, 2))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_idempotent_and_sorted(self, u, v):
        if u == v:
            with pytest.raises(ValidationError):
                canonicalize(Edge(u, v))
            return
        e = canonicalize(Edge(u, v))
        assert e.u < e.v
        assert canonicalize(e) == e
        assert canonicalize(Edge(v, u)) == e


class TestSpaceMeter:
    def test_charge_sets_current_and_peak(self):
        m = SpaceMeter()
        m.charge(10)
        assert (m.current_words, m.peak_words) == (10, 10)

    def test_peak_persists_after_release(self):
        m = SpaceMeter()
        m.charge(10)
        m.release(10)
        assert (m.current_words, m.peak_words) == (0, 10)

    def test_over_release_is_contract_violation(self):
        m = SpaceMeter()
        with pytest.raises(ContractViolation):
            m.release(1)

    def test_negative_amounts_rejected(self):
        m = SpaceMeter()
        with pytest.raises(ValidationError):
            m.charge(-1)
        with pytest.raises(ValidationError):
            m.release(-1)

    @given(st.lists(st.integers(-20, 50), max_size=60))
    def test_peak_is_max_running_current(self, deltas):
        # charge positive amounts, release negatives when legal; the peak
        # must equal the maximum current ever held
        m = SpaceMeter()
        current = 0
        best = 0
        for d in deltas:
            if d >= 0:
                m.charge(d)
                current += d
            else:
                if -d > current:
                    with pytest.raises(ContractViolation):
                        m.release(-d)
                    continue
                m.release(-d)
                current += d
            best = max(best, current)
            assert m.current_words == current
            assert m.peak_words == best
            assert m.peak_words >= m.current_words >= 0


colour_strategy = st.one_of(
    st.builds(ChunkColour, st.integers(0, 5), st.integers(0, 5)),
    st.builds(TripleColour, st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.builds(OverflowColour, st.integers(0, 5)),
)


class TestColourIds:
    def test_cross_variant_never_equal(self):
        assert ChunkColour(0, 0) != OverflowColour(0)
        assert ChunkColour(1, 2) != TripleColour(1, 2, 0)
        assert TripleColour(0, 0, 0) != OverflowColour(0)

    def test_same_variant_structural_equality(self):
        assert ChunkColour(3, 4) == ChunkColour(3, 4)
        assert TripleColour(1, 2, 3) == TripleColour(1, 2, 3)
        assert ChunkColour(3, 4) != ChunkColour(4, 3)

    @given(colour_strategy, colour_strategy)
    def test_equality_implies_same_palette(self, a, b):
        if a == b:
            assert type(a) is type(b)
            if isinstance(a, ChunkColour):
                assert a.chunk == b.chunk
            if isinstance(a, TripleColour):
                assert a.index == b.index

    @given(colour_strategy)
    def test_format_parse_roundtrip(self, colour):
        assert parse_colour(format_colour(colour)) == colour

    def test_format_examples(self):
        assert format_colour(ChunkColour(2, 7)) == "c:2:7"
        assert format_colour(TripleColour(1, 0, 3)) == "t:1:0:3"
        assert format_colour(OverflowColour(9)) == "o:9"

    def test_parse_rejects_garbage(self):
        for bad in ("x:1:2", "c:1", "t:1:2", "o:a", ""):
            with pytest.raises(ValidationError):
                parse_colour(bad)


class TestStreamHeader:
    def test_rejects_zero_vertices(self):
        with pytest.raises(ValidationError):
            StreamHeader(0)

    def test_rejects_impossible_edge_count(self):
        with pytest.raises(ValidationError):
            StreamHeader(4, m=7)

    def test_optional_fields(self):
        h = StreamHeader(10)
        assert h.m is None and h.seed is None


class TestFileFormats:
    def test_edge_list_roundtrip(self, tmp_path):
        header = StreamHeader(6, m=3, seed=42)
        edges = [Edge(0, 1), Edge(5, 2), Edge(3, 4)]
        path = tmp_path / "g.el"
        write_edge_list(path, header, edges)
        got_header, got_edges = read_edge_list(path)
        assert got_header == header
        assert got_edges == edges  # stream order and orientation preserved

    def test_transcript_roundtrip(self, tmp_path):
        t = Transcript(header=StreamHeader(4, m=2))
        t.records = [
            (Edge(0, 1), ChunkColour(0, 1)),
            (Edge(1, 2), TripleColour(3, 0, 2)),
            (Edge(2, 3), OverflowColour(0)),
        ]
        path = tmp_path / "t.tr"
        write_transcript(path, t)
        got = read_transcript(path)
        assert got.header == t.header
        assert got.records == t.records

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("n 5\n0 1\n0 x\n")
        with pytest.raises(TranscriptParseError) as err:
            read_edge_list(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("line", ["0 5", "-1 2", "3 3"])
    def test_bad_endpoint_carries_line_number(self, tmp_path, line):
        # out of range for n = 5, negative, and a self-loop, in either format
        edges, transcript = tmp_path / "bad.el", tmp_path / "bad.tr"
        edges.write_text(f"n 5\n0 1\n{line}\n")
        transcript.write_text(f"n 5\n0 1 c:0:0\n{line} c:0:1\n")
        for reader, path in [(read_edge_list, edges), (read_transcript, transcript)]:
            with pytest.raises(TranscriptParseError) as err:
                reader(path)
            assert err.value.line_no == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("vertices 5\n")
        with pytest.raises(TranscriptParseError):
            read_edge_list(path)

    def test_bad_colour_line_number(self, tmp_path):
        path = tmp_path / "bad.tr"
        path.write_text("n 5\n0 1 c:0:0\n1 2 q:1\n")
        with pytest.raises(TranscriptParseError) as err:
            read_transcript(path)
        assert err.value.line_no == 3
