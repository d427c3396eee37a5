"""Differential tests of the numpy batch paths against their scalar oracles:
``BipartiteColorer.feed_many`` against ``feed``, ``verify`` against
``verify_records``, ``check_bipartition`` against a record-by-record
``bit`` loop, and the file readers' block parsers against the line parser."""

import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamcolor
from streamcolor import (
    BipartiteColorer,
    ChunkColorer,
    ChunkColour,
    ChunkConfig,
    ContractViolation,
    Edge,
    GnpRandom,
    OverflowColour,
    StreamHeader,
    Transcript,
    TripleColour,
    UniformRandomPermutation,
    ValidationError,
    check_bipartition,
    generate,
    read_edge_list,
    read_transcript,
    run_stream,
    verify,
    write_edge_list,
    write_transcript,
)
from streamcolor import batch, core
from streamcolor.core import _KIND_OF, _KINDS, ColourId, checked_edge
from streamcolor.rng import MASK64, SplitMix64
from streamcolor.batch import same_edge_multiset, verify_columns
from streamcolor.verify import PaletteKey, PaletteStats, VerificationReport

WIDTHS = (1, 2, 3, 4, 16, 63, 64, 65, 130, 275)
GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def state(colorer):
    """The state feed_many must leave exactly as feed does."""
    return (
        colorer._counters,
        colorer._choice._state,
        colorer.overflow_count,
        colorer.meter.peak_words,
        colorer.meter.current_words,
    )


def scalar_records(colorer, edges):
    return [record for edge in edges for record in colorer.feed(edge)]


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def streams(draw):
    n = draw(st.integers(2, 10))  # few nodes: repeated edges are common
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = [Edge(u, v) for u, v in draw(st.lists(pairs, max_size=60))]
    cuts = sorted(draw(st.integers(0, len(edges))) for _ in range(2))
    return n, edges, cuts


class TestFeedMany:
    @settings(deadline=None, max_examples=150)
    @given(
        stream=streams(),
        s=st.sampled_from(WIDTHS),
        seed=st.integers(0, MASK64),
        block=st.sampled_from((2, 5, core._BLOCK)),
    )
    def test_matches_feed(self, stream, s, seed, block):
        n, edges, (a, b) = stream
        scalar = BipartiteColorer(n, s, seed)
        batch = BipartiteColorer(n, s, seed)
        want = scalar_records(scalar, edges)
        with patch.object(core, "_BLOCK", block):
            got = list(batch.feed_many(edges[:a]).records)
            got += scalar_records(batch, edges[a:b])
            got += batch.feed_many(iter(edges[b:])).records
        assert repr(got) == repr(want)  # types too: Edge and colour NamedTuples
        assert state(batch) == state(scalar)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (Edge(0, 7), ValidationError),  # out of range for n = 7
            (Edge(-1, 2), ValidationError),
            (Edge(3, 3), ValidationError),
            ((1, 2), AttributeError),  # not an Edge: feed reads edge.u
        ],
    )
    @pytest.mark.parametrize("s", (3, 130))
    def test_invalid_edge_mid_stream(self, bad, error, s):
        edges = [Edge(0, 1), Edge(2, 5), Edge(1, 0), Edge(4, 6)]
        stream = edges + [bad] + edges
        scalar = BipartiteColorer(7, s, 11)
        with pytest.raises(error) as scalar_error:
            scalar_records(scalar, stream)
        batch = BipartiteColorer(7, s, 11)
        with pytest.raises(error) as batch_error:
            batch.feed_many(stream)
        assert str(batch_error.value) == str(scalar_error.value)
        assert state(batch) == state(scalar)

    def test_after_finish(self):
        colorer = BipartiteColorer(4, 8, 0)
        colorer.finish()
        with pytest.raises(ContractViolation):
            colorer.feed_many([Edge(0, 1)])

    def test_rejected_draw_goes_to_feed(self):
        # mix64 inverts (xorshifts and odd multiplications do), so a state
        # whose third next word is 2**64 - 1 exists; below() rejects that
        # word for every count that is not a power of two
        def unshift(z, k):
            x = z
            for _ in range(64 // k + 1):
                x = z ^ (x >> k)
            return x

        z = unshift(MASK64, 31)
        z = unshift(z * pow(MIX2, -1, 1 << 64) & MASK64, 27)
        z = unshift(z * pow(MIX1, -1, 1 << 64) & MASK64, 30)
        start = (z - 3 * GAMMA) & MASK64
        probe = SplitMix64(start)
        assert [probe.next_word() for _ in range(3)][-1] == MASK64

        n, s = 12, 16
        scalar = BipartiteColorer(n, s, 5, expose_randomness=True)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bits = {(u, v): (scalar.signature(u) ^ scalar.signature(v)).bit_count() for u, v in pairs}
        odd = [p for p in pairs if bits[p] not in (0, 1, 2, 4, 8, 16)]
        drawing = [p for p in pairs if bits[p]]
        edges = [Edge(*p) for p in (drawing[0], drawing[1], odd[0], drawing[2], odd[1])]

        batch = BipartiteColorer(n, s, 5)
        scalar._choice._state = batch._choice._state = start
        want = scalar_records(scalar, edges)
        handed = []
        feed = batch.feed
        batch.feed = lambda edge: handed.append(edge) or feed(edge)
        got = batch.feed_many(edges).records
        assert handed == [edges[2]]
        assert repr(got) == repr(want)
        assert state(batch) == state(scalar)

    def test_run_stream_takes_the_batch_path(self):
        edges = [Edge(u, v) for u in range(12) for v in range(u + 1, 12)]
        scalar = BipartiteColorer(12, 5, 2)
        want = scalar_records(scalar, edges)
        batch = BipartiteColorer(12, 5, 2)
        batch.feed = None  # run_stream must not call it
        assert run_stream(batch, edges, StreamHeader(12)).records == want


def test_import_and_construction_leave_numpy_unloaded():
    code = (
        "import sys, streamcolor as sc, streamcolor.cli\n"
        "sc.BipartiteColorer(64, 16, 0)\n"
        "sc.BipartiteColorer(64, 130, 1, expose_randomness=True)\n"
        "t = sc.Transcript(sc.StreamHeader(4), [(sc.Edge(0, 1), sc.ChunkColour(0, 0))])\n"
        "t.extend([(sc.Edge(1, 2), sc.TripleColour(0, 1, 0))])\n"
        "assert len(t) == len(t.records) == 2\n"
        "edges = [sc.Edge(u, v) for u in range(6) for v in range(u + 1, 6)] * 2\n"
        "for c in (sc.ChunkColorer(sc.ChunkConfig(n=6, alpha=1)), sc.GreedyStreamColorer(6)):\n"
        "    t = sc.run_stream(c, edges, sc.StreamHeader(6))\n"
        "    assert len(t) == len(t.records) == len(edges)\n"
        "assert sc.parse_family('gnp:64:0.2') == sc.GnpRandom(64, 0.2)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_python(code) == "False"


def test_gnp_sampling_leaves_numpy_random_unloaded():
    # the draws come from the stream's random.Random, not numpy.random
    code = (
        "import sys, streamcolor as sc\n"
        "header, edges = sc.generate(sc.GnpRandom(64, 0.2), sc.UniformRandomPermutation(), 1)\n"
        "assert edges and 'numpy' in sys.modules\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert run_python(code) == "False"


def run_python(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(streamcolor.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# verify


def colours(width):
    field = st.integers(0, width)
    return st.one_of(
        st.builds(ChunkColour, st.integers(0, 3), st.integers(-1, width)),
        st.builds(TripleColour, st.integers(0, 3), field, field),
        st.builds(OverflowColour, field),
    )


@st.composite
def transcripts(draw):
    width = draw(st.sampled_from((2, 1000)))  # narrow: conflicts; wide: mostly proper
    pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1])
    records = draw(st.lists(st.tuples(pairs.map(lambda p: Edge(*p)), colours(width)), max_size=40))
    return Transcript(StreamHeader(8), records)


def _palette_key(colour: ColourId) -> PaletteKey:
    """The colour's palette: its kind's label, and its first field unless
    it is an overflow colour, whose palette is one for all."""
    _, _, label = _KINDS[_KIND_OF[type(colour)]]
    return (label,) if type(colour) is OverflowColour else (label, colour[0])


def verify_records(transcript: Transcript) -> VerificationReport:
    """The record-by-record form of :func:`verify`: the oracle of the
    column path."""
    at_vertex: dict[int, dict[ColourId, list[Edge]]] = {}
    degree: dict[int, int] = {}
    colours: set[ColourId] = set()
    palettes: dict[PaletteKey, PaletteStats] = {}
    palette_degrees: dict[PaletteKey, dict[int, int]] = {}
    distinct_edges: set[Edge] = set()

    for edge, colour in transcript:
        e = checked_edge(edge, transcript.header.n)
        distinct_edges.add(e)
        colours.add(colour)
        key = _palette_key(colour)
        stats = palettes.setdefault(key, PaletteStats())
        pdeg = palette_degrees.setdefault(key, {})
        stats.edge_count += 1
        for x in e:
            pdeg[x] = pdeg.get(x, 0) + 1
            stats.max_degree = max(stats.max_degree, pdeg[x])
            degree[x] = degree.get(x, 0) + 1
            at_vertex.setdefault(x, {}).setdefault(colour, []).append(e)
        if isinstance(colour, ChunkColour):
            stats.max_local = max(stats.max_local, colour.local)
        elif isinstance(colour, TripleColour):  # the counters increment past the announced value
            stats.max_left = max(stats.max_left, colour.left + 1)
            stats.max_right = max(stats.max_right, colour.right + 1)

    conflicts: list[tuple[Edge, Edge, int, ColourId]] = []
    for vertex in sorted(at_vertex):
        for colour, edges in at_vertex[vertex].items():
            if len(edges) > 1:
                for a in range(len(edges)):
                    for b in range(a + 1, len(edges)):
                        conflicts.append((edges[a], edges[b], vertex, colour))

    per_kind = Counter(map(type, colours))
    return VerificationReport(
        proper=not conflicts,
        conflicts=conflicts,
        distinct_colours=len(colours),
        overflow_colours=per_kind[OverflowColour],
        max_degree=max(degree.values(), default=0),
        per_palette_stats=palettes,
        distinct_triple_colours=per_kind[TripleColour],
        distinct_chunk_colours=per_kind[ChunkColour],
        duplicate_edges=len(transcript) - len(distinct_edges),
        records=len(transcript),
    )


def assert_verify_is_the_oracle(transcript):
    """``verify`` gives the oracle's report or raises the oracle's error."""
    got, want = outcome(verify, transcript), outcome(verify_records, transcript)
    assert got == want
    assert repr(got) == repr(want)  # palette order, conflict order and element types too


class TestVerifyColumns:
    @settings(deadline=None, max_examples=300)
    @given(transcript=transcripts())
    def test_matches_scalar(self, transcript):
        assert_verify_is_the_oracle(transcript)

    def test_empty(self):
        transcript = Transcript(StreamHeader(3))
        assert verify_columns(transcript) == VerificationReport(True, [], 0, 0, 0, {})
        assert_verify_is_the_oracle(transcript)

    @pytest.mark.parametrize(
        "record",
        [
            (Edge(2, 2), TripleColour(0, 0, 0)),  # self-loop
            (Edge(-1, 2), TripleColour(0, 0, 0)),  # negative vertex
        ],
    )
    def test_unusual_records_are_the_scalar_loops(self, record):
        transcript = Transcript(StreamHeader(4), [(Edge(0, 1), ChunkColour(0, 0)), record])
        with pytest.raises(ValidationError):
            verify_columns(transcript)
        assert_verify_is_the_oracle(transcript)


@pytest.fixture(scope="module")
def gnp_300():
    return generate(GnpRandom(300, 0.1), UniformRandomPermutation(), 0)


@pytest.mark.parametrize(
    "colorer",
    [
        lambda n: BipartiteColorer(n, 4, 0),
        lambda n: BipartiteColorer(n, 16, 0),
        lambda n: ChunkColorer(ChunkConfig(n=n, alpha=1)),
    ],
    ids=["bipartite-s4", "bipartite-s16", "chunk-alpha1"],
)
def test_planted_conflicts_on_real_transcripts(colorer, gnp_300):
    """A coloured G(300, 0.1) stream with a drawn record copied in, once with
    its own colour and once with the colour of a record at a shared vertex."""
    header, edges = gnp_300
    records = list(run_stream(colorer(header.n), edges, header))
    rng = random.Random(0)
    edge, colour = records[rng.randrange(len(records))]
    neighbours = [c for e, c in records if c != colour and set(e) & set(edge)]
    for planted in (colour, rng.choice(neighbours)):
        copy = records[:]
        copy.insert(rng.randrange(len(copy) + 1), (edge, planted))
        transcript = Transcript(header, copy)
        assert not verify(transcript).proper
        assert_verify_is_the_oracle(transcript)


# ---------------------------------------------------------------------------
# check_bipartition


def bit_loop(transcript, colorer):
    """check_bipartition record by record, two ``bit`` calls per record."""
    for (u, v), colour in transcript.records:
        if isinstance(colour, TripleColour) and colorer.bit(u, colour.index) == colorer.bit(
            v, colour.index
        ):
            return False
    return True


class TestCheckBipartition:
    @settings(deadline=None, max_examples=100)
    @given(
        stream=streams(),
        s=st.sampled_from(WIDTHS),
        seed=st.integers(0, MASK64),
        planted=st.none() | st.integers(0, 60),
    )
    def test_matches_bit_loop(self, stream, s, seed, planted):
        n, edges, _ = stream
        colorer = BipartiteColorer(n, s, seed)
        records = list(run_stream(colorer, edges, StreamHeader(n)).records)
        if planted is not None:
            # a triple whose endpoints sit on one side of its slice
            i = planted % s
            sides = {}
            for u in range(n):
                sides.setdefault(colorer.bit(u, i), []).append(u)
            same = next((side for side in sides.values() if len(side) > 1), None)
            if same is not None:
                at = planted % (len(records) + 1)
                records.insert(at, (Edge(same[0], same[1]), TripleColour(i, 0, 0)))
        transcript = Transcript(StreamHeader(n), records)
        want = bit_loop(transcript, colorer)
        assert check_bipartition(transcript, colorer) == want
        assert want == (planted is None or same is None)

    @pytest.mark.parametrize(
        "record",
        [
            (Edge(0, 9), TripleColour(0, 0, 0)),  # vertex out of range for n = 6
            (Edge(0, 1), TripleColour(4, 0, 0)),  # index out of range for s = 4
            (Edge(-1, 1), TripleColour(0, 0, 0)),
        ],
    )
    def test_out_of_range_raises_as_bit_does(self, record):
        colorer = BipartiteColorer(6, 4, 3)
        transcript = run_stream(colorer, [Edge(0, 1), Edge(2, 3)], StreamHeader(6))
        transcript.extend([record, (Edge(4, 5), ChunkColour(0, 0))])
        got = outcome(check_bipartition, transcript, colorer)
        assert got[0] is ValidationError
        assert repr(got) == repr(outcome(bit_loop, transcript, colorer))


# ---------------------------------------------------------------------------
# streamcolor verify's edge check


@st.composite
def announced_streams(draw):
    """A stream and a transcript announcing it rearranged, some endpoints
    swapped, sometimes one record changed.  Ids up to 2**33 or 2**63 - 1
    would wrap a key ``min * base + max`` in int64."""
    top = draw(st.sampled_from((7, 1 << 33, (1 << 63) - 1)))
    pool = draw(st.lists(st.integers(0, top), min_size=2, max_size=5, unique=True))
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in draw(st.lists(pair, max_size=12))]
    announced = [Edge(v, u) if draw(st.booleans()) else Edge(u, v)
                 for u, v in draw(st.permutations(edges))]
    if announced and draw(st.booleans()):
        announced[draw(st.integers(0, len(announced) - 1))] = Edge(*draw(pair))
    records = [(edge, ChunkColour(0, i)) for i, edge in enumerate(announced)]
    return edges, Transcript(StreamHeader(top + 1), records)


@settings(deadline=None, max_examples=300)
@given(case=announced_streams())
@example(case=([Edge(0, (1 << 33) - 1)],
               Transcript(StreamHeader(1 << 33), [(Edge(1 << 31, (1 << 33) - 1), ChunkColour(0, 0))])))
def test_same_edge_multiset_matches_counter(case):
    edges, transcript = case

    def canonical(pairs):
        return Counter((min(u, v), max(u, v)) for u, v in pairs)

    want = canonical(edges) == canonical(edge for edge, _ in transcript.records)
    assert same_edge_multiset(edges, transcript) == want


# ---------------------------------------------------------------------------
# the file readers' block parsers


UINTS = st.integers(0, 12) | st.sampled_from([10**17, 10**18 - 1, 10**18, (1 << 63) - 1])
COLOURS = st.one_of(
    st.builds(ChunkColour, UINTS, UINTS),
    st.builds(TripleColour, UINTS, UINTS, UINTS),
    st.builds(OverflowColour, UINTS),
)
# near-canonical tokens: a sign, a leading zero, 19 digits (within int64 or
# not), beyond int64, and an underscore and non-ASCII digits, which int()
# reads but the formats reject
ODD_IDS = [b"+1", b"-1", b"-0", b"01", b"00", b"1000000000000000000",
           b"9223372036854775808", b"123456789012345678901234", b"1_0", b"\xd9\xa3",
           b"0_1", b"\xef\xbc\x91"]
ODD_COLOURS = [b"c:1", b"t:1:2", b"c:01:2", b"o:-1", b"o:+1", b"c:1:1000000000000000000",
               b"t:0:0:9223372036854775808", b"x:1:2", b"C:1:2", b"c:1:2:", b"o:1 ",
               b"c:1_0:2", b"t:\xd9\xa3:0:0", b"o:\xef\xbc\x91"]


@st.composite
def files(draw):
    """A stream or transcript file as the writers emit it, then changed at
    a few places; returns whether it is a transcript, its bytes and whether
    the block parsers must take all of it."""
    colours = draw(st.booleans())
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in draw(st.lists(pair, max_size=40))]
    m = len(edges) if draw(st.booleans()) and len(edges) <= n * (n - 1) // 2 else None
    header = StreamHeader(n, m, draw(st.none() | st.integers(0, 99)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        if colours:
            records = [(edge, draw(COLOURS)) for edge in edges]
            write_transcript(path, Transcript(header, records))
            canonical = all(x < 10**18 for _, colour in records for x in colour)
        else:
            write_edge_list(path, header, edges)
            canonical = True
        lines = path.read_bytes().split(b"\n")[:-1]

    ending = b"\n"
    for _ in range(draw(st.integers(0, 3))):
        canonical = False
        at = draw(st.integers(1, len(lines)))  # len(lines): past the last line
        tokens = lines[at].split(b" ") if at < len(lines) else []
        change = draw(st.sampled_from(
            ["id", "range", "loop", "colour", "blank", "spaces", "crlf", "m", "end"]))
        j = draw(st.integers(0, 1))
        if change == "blank":
            lines.insert(at, draw(st.sampled_from([b"", b" ", b"\t", b"\r", b"\x0c"])))
        elif change == "m":
            lines[0] = lines[0].split(b" m ")[0].split(b" seed ")[0] + b" m %d" % draw(
                st.integers(0, n * (n - 1) // 2))
        elif change == "end":
            ending = b""
        elif len(tokens) < 2:  # past the last line, or a line made blank
            continue
        elif change == "id":
            tokens[j] = draw(st.sampled_from(ODD_IDS))
        elif change == "range":
            tokens[j] = b"%d" % (n + draw(st.integers(0, 3)))
        elif change == "loop":
            tokens[1 - j] = tokens[j]
        elif change == "colour" and colours and len(tokens) > 2:
            tokens[2] = draw(st.sampled_from(ODD_COLOURS))
        elif change == "spaces":
            tokens[j] += draw(st.sampled_from([b" ", b"\t", b"\x0b"]))
        elif change == "crlf":
            tokens[-1] += b"\r"
        if len(tokens) >= 2:
            lines[at] = b" ".join(tokens)
    return colours, b"\n".join(lines) + ending, canonical


def read_outcome(reader, path):
    """What ``reader`` returns for ``path``, with a transcript as its header
    and columns, or the type, message and line number of what it raised."""
    try:
        got = reader(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return (got.header, got.columns) if isinstance(got, Transcript) else got


@settings(deadline=None, max_examples=400)
@given(case=files(), block_bytes=st.sampled_from([1, 5, 16, 64, 1 << 15]))
def test_block_parsers_read_what_the_line_parser_reads(case, block_bytes):
    colours, text, canonical = case
    reader = read_transcript if colours else read_edge_list
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(text)
        # the whole body as one block, to the line parser
        with patch.object(core, "_BLOCK_BYTES", len(text)), \
                patch.object(batch, "edge_block", lambda *args: None), \
                patch.object(batch, "transcript_block", lambda *args: False):
            want = read_outcome(reader, path)
        with patch.object(core, "_BLOCK_BYTES", block_bytes):
            got = read_outcome(reader, path)
            if canonical:  # and no block to it
                with patch.object(core, "_parse_lines", None):
                    assert read_outcome(reader, path) == got
    assert got == want
    assert canonical <= (type(got[0]) is StreamHeader)
