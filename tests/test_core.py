import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
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
    parse_colour,
    read_edge_list,
    read_transcript,
    write_edge_list,
    write_transcript,
)
from streamcolor.core import checked_edge


class TestCanonicalize:
    """``checked_edge``, the one edge rule: it returns the canonical edge,
    smaller endpoint first, or names what is wrong with it."""

    def test_orders_endpoints(self):
        assert checked_edge(Edge(5, 2), 6) == Edge(2, 5)

    def test_idempotent_on_canonical(self):
        assert checked_edge(Edge(2, 5), 6) == Edge(2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match=r"^self-loop \(3,3\) is not a valid edge$"):
            checked_edge(Edge(3, 3), 4)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=r"^edge \(-1,2\) out of range for n=4$"):
            checked_edge(Edge(-1, 2), 4)

    def test_rejects_id_at_least_n(self):
        with pytest.raises(ValidationError, match=r"^edge \(0,5\) out of range for n=3$"):
            checked_edge(Edge(0, 5), 3)

    def test_rejects_non_int(self):
        with pytest.raises(
            ValidationError, match=r"^edge Edge\(u=1, v=2.0\) has an endpoint that is not an int$"
        ):
            checked_edge(Edge(1, 2.0), 4)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_idempotent_and_sorted(self, u, v):
        n = 10**6 + 1
        if u == v:
            with pytest.raises(ValidationError):
                checked_edge(Edge(u, v), n)
            return
        e = checked_edge(Edge(u, v), n)
        assert e.u < e.v
        assert checked_edge(e, n) == e
        assert checked_edge(Edge(v, u), n) == e


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


def written_colour(colour) -> str:
    """The colour field ``write_transcript`` writes for ``colour``, after
    checking that ``read_transcript`` reads it back as ``colour``."""
    record = (Edge(0, 1), colour)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tr"
        write_transcript(path, Transcript(StreamHeader(2), [record]))
        assert repr(list(read_transcript(path))) == repr([record])
        return path.read_text().splitlines()[1].split()[2]


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
        assert parse_colour(written_colour(colour)) == colour

    def test_format_examples(self):
        assert written_colour(ChunkColour(2, 7)) == "c:2:7"
        assert written_colour(TripleColour(1, 0, 3)) == "t:1:0:3"
        assert written_colour(OverflowColour(9)) == "o:9"

    def test_parse_rejects_garbage(self):
        # int() also reads an underscore, a non-ASCII digit and padding
        for bad in ("x:1:2", "c:1", "t:1:2", "o:a", "", "c:1_0:3", "t:\u0663:0:0", "o:\uff11",
                    "c: 1:2", "o:+"):
            with pytest.raises(ValidationError):
                parse_colour(bad)
        assert parse_colour("c:+5:007") == ChunkColour(5, 7)
        assert parse_colour("o:-1") == OverflowColour(-1)


INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
edge_strategy = st.builds(Edge, INT64, INT64)
wide_colours = st.one_of(
    st.builds(ChunkColour, INT64, INT64),
    st.builds(TripleColour, INT64, INT64, INT64),
    st.builds(OverflowColour, INT64),
)


def builds(*_):
    raise AssertionError("built a record")


class TestTranscript:
    @given(
        records=st.lists(st.tuples(edge_strategy, wide_colours), max_size=30),
        cut=st.integers(0, 30),
    )
    def test_records_round_trip_through_the_columns(self, records, cut):
        t = Transcript(StreamHeader(4), records[:cut])
        t.extend(records[cut:])
        with patch.object(Transcript, "__getitem__", builds), patch.object(Transcript, "__iter__", builds):
            assert len(t) == len(t.records) == len(records)  # taking a length builds no records
        assert repr(list(t.records)) == repr(records)
        assert t.records == records
        assert repr(list(Transcript(StreamHeader(4), [*t.records]).records)) == repr(records)
        assert t.distinct_colours() == len({colour for _, colour in records})

    @given(
        records=st.lists(st.tuples(edge_strategy, wide_colours), max_size=30),
        bounds=st.tuples(*[st.none() | st.integers(-35, 35)] * 2),
        step=st.sampled_from([None, 1, 2, -1, -3]),
    )
    def test_is_the_sequence_of_its_records(self, records, bounds, step):
        t = Transcript(StreamHeader(4), records)
        k = len(records)
        for i in range(-k, k):
            assert repr(t[i]) == repr(records[i])
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                t[i]
        cut = slice(*bounds, step)
        assert repr(t[cut]) == repr(records[cut])
        assert repr(list(t)) == repr(records) and repr(t) == repr(records)
        assert t == records and records == t and t == tuple(records)
        assert t != records + [(Edge(0, 1), OverflowColour(0))]
        assert t.records is t

    @given(
        records=st.lists(st.tuples(edge_strategy, wide_colours), max_size=30),
        chunk=INT64,
    )
    def test_append_writes_the_columns_extend_writes(self, records, chunk):
        header = StreamHeader(4)
        t = Transcript(header, records)
        for values in (t.columns, [np.frombuffer(column, dtype=np.int64) for column in t.columns]):
            got = Transcript(header)
            got._append(*values)
            assert got.columns == t.columns
        # one kind at a time, its code broadcast and the fields it lacks zero
        for kind, cls in enumerate((ChunkColour, TripleColour, OverflowColour)):
            rows = [(edge, colour) for edge, colour in records if type(colour) is cls]
            want = Transcript(header, rows)
            got = Transcript(header)
            got._append(want.u, want.v, kind, *want.columns[3 : 3 + len(cls._fields)])
            assert got.columns == want.columns
        # a chunk index that every row takes
        rows = [(edge, ChunkColour(chunk, colour[-1])) for edge, colour in records]
        want = Transcript(header, rows)
        got = Transcript(header)
        got._append(want.u, want.v, 0, chunk, want.c1)
        assert got.columns == want.columns

    def test_view_follows_the_columns(self):
        t = Transcript(StreamHeader(4), [(Edge(0, 1), ChunkColour(0, 0))])
        view = t.records
        assert list(view) == [(Edge(0, 1), ChunkColour(0, 0))]
        t.extend([(Edge(1, 2), OverflowColour(3))])
        assert view[-1] == (Edge(1, 2), OverflowColour(3)) and len(view) == 2
        with pytest.raises(AttributeError):
            t.records = []

    @pytest.mark.parametrize(
        "record",
        [
            (Edge(1, 2), (0, 1)),  # not a colour type
            (Edge(1, 2), TripleColour(0, 1.0, 0)),  # not a plain int
            (Edge(1, 2), ChunkColour(True, 0)),  # a bool field
            ((1, 2), ChunkColour(0, 0)),  # not an Edge
            (Edge(1, 1 << 63), ChunkColour(0, 0)),  # beyond int64
            (Edge(1, 2), OverflowColour(-(1 << 63) - 1)),
        ],
    )
    def test_rejects_what_the_columns_cannot_hold(self, record):
        good = (Edge(0, 1), ChunkColour(0, 0))
        with pytest.raises(ValidationError):
            Transcript(StreamHeader(4), [good, record])
        t = Transcript(StreamHeader(4), [good])
        with pytest.raises(ValidationError):
            t.extend([record])
        assert list(t.records) == [good] and all(len(column) == 1 for column in t.columns)


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
        t = Transcript(
            header=StreamHeader(4, m=2),
            records=[
                (Edge(0, 1), ChunkColour(0, 1)),
                (Edge(1, 2), TripleColour(3, 0, 2)),
                (Edge(2, 3), OverflowColour(0)),
            ],
        )
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 5", "edge (0,5) out of range for n=5"),
            ("-1 2", "edge (-1,2) out of range for n=5"),
            ("3 3", "self-loop (3,3) is not a valid edge"),  # checked_edge's message
            ("0 x", "non-integer endpoint in {text!r}"),
            ("0 1 2", "expected `{shape}`, got {text!r}"),
            ("4", "expected `{shape}`, got {text!r}"),
        ],
        ids=["0 5", "-1 2", "3 3", "non-integer", "extra-token", "missing-token"],
    )
    def test_bad_endpoint_carries_line_number(self, tmp_path, line, message):
        # the same message and line number from both readers; the blank line
        # is skipped but still counted
        edges, transcript = tmp_path / "bad.el", tmp_path / "bad.tr"
        edges.write_text(f"n 5\n0 1\n\n{line}\n")
        transcript.write_text(f"n 5\n0 1 c:0:0\n\n{line} c:0:1\n")
        for reader, path, shape, text in [
            (read_edge_list, edges, "u v", line),
            (read_transcript, transcript, "u v colour", f"{line} c:0:1"),
        ]:
            with pytest.raises(TranscriptParseError) as err:
                reader(path)
            assert err.value.line_no == 4
            assert str(err.value) == "line 4: " + message.format(shape=shape, text=text)

    @pytest.mark.parametrize(
        "body, line_no, message",
        [
            ("0 1\n\n2 3\n", 1, "header says m 3 but the file has 2 edges"),
            ("0 1\n1 2\n2 3\n\n3 4\n", 6, "edge beyond the header's m 3"),
        ],
        ids=["too-few", "too-many"],
    )
    def test_edge_lines_must_number_the_headers_m(self, tmp_path, body, line_no, message):
        path = tmp_path / "g.el"
        path.write_text("n 5 m 3\n" + body)
        with pytest.raises(TranscriptParseError) as err:
            read_edge_list(path)
        assert str(err.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize("reader", [read_edge_list, read_transcript])
    def test_empty_file_rejected(self, tmp_path, reader):
        path = tmp_path / "empty"
        path.write_text("")
        with pytest.raises(TranscriptParseError) as err:
            reader(path)
        assert (err.value.line_no, str(err.value)) == (1, "line 1: empty file")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.el"
        for header in ("vertices 5", "n 5 n 6", "n 6 m 2 m 1", "n 6 seed 3 seed 3", "n 1_0",
                       "n \u0663", "n 6 m \uff11"):
            path.write_text(f"{header}\n0 5\n")
            with pytest.raises(TranscriptParseError) as err:
                read_edge_list(path)
            assert err.value.line_no == 1, header

    def test_bad_colour_line_number(self, tmp_path):
        path = tmp_path / "bad.tr"
        path.write_text("n 5\n0 1 c:0:0\n1 2 q:1\n")
        with pytest.raises(TranscriptParseError) as err:
            read_transcript(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("colour", [f"c:0:{1 << 63}", f"t:1:0:{-(1 << 63) - 1}"])
    def test_colour_beyond_int64_names_its_line(self, tmp_path, colour):
        # the transcript's columns cannot hold the field
        path = tmp_path / "bad.tr"
        path.write_text(f"n 5\n0 1 c:0:0\n1 2 {colour}\n2 3 o:0\n")
        with pytest.raises(TranscriptParseError) as err:
            read_transcript(path)
        assert err.value.line_no == 3
