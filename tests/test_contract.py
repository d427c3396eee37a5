"""The colourer contract every ``StreamColorer`` keeps, checked once for all
three colourers, and ``run_stream`` and ``feed_many`` against an explicit
feed loop."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    BipartiteColorer,
    ChunkColorer,
    ChunkConfig,
    ContractViolation,
    Edge,
    GreedyStreamColorer,
    StreamHeader,
    Transcript,
    ValidationError,
    run_stream,
)
from streamcolor import core
from test_chunked import NOT_TAKEN

COLORERS = {
    "chunk": lambda n: ChunkColorer(ChunkConfig(n=n, alpha=1)),
    "bipartite": lambda n: BipartiteColorer(n, 8, 0),
    "greedy-baseline": GreedyStreamColorer,
}


@pytest.mark.parametrize("make", COLORERS.values(), ids=COLORERS)
def test_contract(make):
    for n in (0, -3):
        with pytest.raises(ValidationError, match=f"vertex count must be >= 1, got {n}"):
            make(n)
    colorer = make(4)
    charged = (colorer.meter.current_words, colorer.meter.peak_words)
    for edge, message in [
        (Edge(0, 4), "edge (0,4) out of range for n=4"),
        (Edge(-1, 2), "edge (-1,2) out of range for n=4"),
        (Edge(2, 2), "self-loop (2,2) is not a valid edge"),
        *[(edge, f"edge {edge!r} has an endpoint that is not an int")
          for edge in (Edge(1.0, 0), Edge(True, 0), Edge(np.int64(1), 2), Edge(3, np.int32(0)))],
    ]:
        with pytest.raises(ValidationError) as err:
            colorer.feed(edge)
        assert str(err.value) == message
    # nothing buffered or charged: finish announces only the good edge
    assert (colorer.meter.current_words, colorer.meter.peak_words) == charged
    assert colorer.peak_buffered_edges == 0
    announced = colorer.feed(Edge(3, 1)) + colorer.finish()
    assert [edge for edge, _ in announced] == [Edge(1, 3)]
    for fed in (lambda: colorer.feed(Edge(0, 1)), lambda: colorer.feed_many([Edge(0, 1)])):
        with pytest.raises(ContractViolation, match="feed after finish"):
            fed()
    with pytest.raises(ContractViolation, match="finish called twice"):
        colorer.finish()


@pytest.mark.parametrize(
    "make",
    [lambda n: ChunkColorer(ChunkConfig(n=n, alpha=1)),
     lambda n: ChunkColorer(ChunkConfig(n=n, alpha=2)),
     GreedyStreamColorer],
    ids=["chunk-alpha-1", "chunk-alpha-2", "greedy-baseline"],
)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_run_stream_is_the_feed_loop(make, data):
    # few vertices, so edges repeat in either orientation; capacity alpha^2 * n
    # is at most 28 edges, so chunks flush mid-stream
    n = data.draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, max_size=60))]
    header = StreamHeader(n, seed=data.draw(st.integers(0, 9)))

    explicit = make(n)
    want = [record for edge in edges for record in explicit.feed(edge)] + explicit.finish()
    colorer = make(n)
    transcript = run_stream(colorer, edges, header)
    assert transcript.header is header
    assert repr(list(transcript.records)) == repr(want)
    assert colorer.meter.peak_words == explicit.meter.peak_words
    assert colorer.peak_buffered_edges == explicit.peak_buffered_edges


# ---------------------------------------------------------------------------
# feed_many against the feed loop


def state(colorer):
    """All that feed_many must leave as the feed loop does."""
    private = {
        ChunkColorer: lambda c: (c.chunk_index, c._buffer),
        BipartiteColorer: lambda c: (c._counters, c._choice._state, c.overflow_count),
        GreedyStreamColorer: lambda c: dict(c._used),
    }[type(colorer)](colorer)
    meter = colorer.meter
    return repr((meter.peak_words, meter.current_words, colorer.peak_buffered_edges,
                 colorer.finished, private))


def fed(colorer, edges):
    """The feed loop: a transcript extended by ``feed(edge)`` for each edge."""
    out = Transcript(StreamHeader(colorer.n))
    for edge in edges:
        out.extend(colorer.feed(edge))
    return out


def outcome(fn):
    """The repr of what ``fn`` returns (types too: Edge and colour
    NamedTuples), or the type and message of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("make", COLORERS.values(), ids=COLORERS)
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_feed_many_is_the_feed_loop_for_every_colourer(make, data):
    # few vertices, so edges repeat in either orientation and chunks of
    # capacity n flush mid-stream; blocks of 2 and 5 edges, so runs cross
    # block boundaries
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, max_size=40))]
    if data.draw(st.booleans()):
        edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(NOT_TAKEN)))
    loop, batch = make(n), make(n)
    if data.draw(st.integers(0, 9)) == 0:  # every edge comes after finish
        loop.finish(), batch.finish()

    want = outcome(lambda: list(fed(loop, edges).records))
    with patch.object(core, "_BLOCK", data.draw(st.sampled_from((2, 5, core._BLOCK)))):
        got = outcome(lambda: list(batch.feed_many(iter(edges)).records))
    assert got == want
    assert state(batch) == state(loop)
    assert outcome(batch.finish) == outcome(loop.finish)


@pytest.mark.parametrize("make", COLORERS.values(), ids=COLORERS)
def test_feed_many_accounts_for_edges_before_its_input_fails(make):
    def failing(edges):
        yield from edges
        raise KeyError("input")

    edges = [Edge(0, 1), Edge(2, 1), Edge(0, 2), Edge(1, 3), Edge(3, 0)]
    loop, batch = make(4), make(4)  # chunk capacity 4
    for edge in edges:
        loop.feed(edge)
    with pytest.raises(KeyError):
        batch.feed_many(failing(edges))
    assert state(batch) == state(loop)
    assert repr(batch.finish()) == repr(loop.finish())
