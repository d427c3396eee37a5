"""Differential tests of the numpy batch paths against their scalar oracles:
``BipartiteColorer.feed_many`` against ``feed`` and ``verify`` against
``_verify_scalar``."""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcolor
from streamcolor import (
    BipartiteColorer,
    ChunkColour,
    ContractViolation,
    Edge,
    OverflowColour,
    StreamHeader,
    Transcript,
    TripleColour,
    ValidationError,
    run_stream,
    verify,
)
from streamcolor import bipartite
from streamcolor.rng import MASK64, SplitMix64
from streamcolor.batch import verify_columns
from streamcolor.verify import _verify_scalar

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
        block=st.sampled_from((2, 5, bipartite._BLOCK)),
    )
    def test_matches_feed(self, stream, s, seed, block):
        n, edges, (a, b) = stream
        scalar = BipartiteColorer(n, s, seed)
        batch = BipartiteColorer(n, s, seed)
        want = scalar_records(scalar, edges)
        with patch.object(bipartite, "_BLOCK", block):
            got = batch.feed_many(edges[:a])
            got += scalar_records(batch, edges[a:b])
            got += batch.feed_many(iter(edges[b:]))
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
        odd = [p for p in pairs if len(scalar.differing_indices(*p)) not in (0, 1, 2, 4, 8, 16)]
        drawing = [p for p in pairs if scalar.differing_indices(*p)]
        edges = [Edge(*p) for p in (drawing[0], drawing[1], odd[0], drawing[2], odd[1])]

        batch = BipartiteColorer(n, s, 5)
        scalar._choice._state = batch._choice._state = start
        want = scalar_records(scalar, edges)
        handed = []
        feed = batch.feed
        batch.feed = lambda edge: handed.append(edge) or feed(edge)
        got = batch.feed_many(edges)
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
        "sc.ChunkColorer(sc.ChunkConfig(n=64, alpha=2))\n"
        "sc.GreedyStreamColorer(64)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(streamcolor.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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


class TestVerifyColumns:
    @settings(deadline=None, max_examples=300)
    @given(transcript=transcripts())
    def test_matches_scalar(self, transcript):
        scalar = _verify_scalar(transcript)
        columns = verify_columns(transcript.records)
        if columns is None:
            assert not transcript.records or not scalar.proper
        else:
            assert columns == scalar
            assert list(columns.per_palette_stats) == list(scalar.per_palette_stats)
        assert verify(transcript) == scalar

    def test_empty(self):
        transcript = Transcript(StreamHeader(3))
        assert verify_columns(transcript.records) is None
        assert verify(transcript) == _verify_scalar(transcript)

    @pytest.mark.parametrize(
        "record",
        [
            (Edge(2, 2), TripleColour(0, 0, 0)),  # self-loop
            (Edge(-1, 2), TripleColour(0, 0, 0)),  # negative vertex
            (Edge(1, 2), (0, 1)),  # not a colour type
            (Edge(1, 2), TripleColour(0, 1.0, 0)),  # not a plain int
            (Edge(1, 2), ChunkColour(True, 0)),  # a bool field
        ],
    )
    def test_unusual_records_are_the_scalar_loops(self, record):
        transcript = Transcript(StreamHeader(4), [(Edge(0, 1), ChunkColour(0, 0)), record])
        assert verify_columns(transcript.records) is None
        assert repr(outcome(verify, transcript)) == repr(outcome(_verify_scalar, transcript))
