"""The colourer contract every ``StreamColorer`` keeps, checked once for all
three colourers, and ``run_stream`` against an explicit feed loop."""

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
    ValidationError,
    run_stream,
)

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
    for edge, message in [
        (Edge(0, 4), "edge (0,4) out of range for n=4"),
        (Edge(-1, 2), "edge (-1,2) out of range for n=4"),
        (Edge(2, 2), "self-loop (2,2) is not a valid edge"),
    ]:
        with pytest.raises(ValidationError) as err:
            colorer.feed(edge)
        assert str(err.value) == message
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
