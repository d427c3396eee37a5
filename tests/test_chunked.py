from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    AdjacencyGraph,
    ChunkColorer,
    ChunkColour,
    ChunkConfig,
    CompleteGraph,
    ContractViolation,
    Edge,
    StreamHeader,
    UniformRandomPermutation,
    ValidationError,
    color_vizing,
    colour_budget,
    generate,
    run_stream,
    verify,
)


class TestChunkConfig:
    def test_capacity_formula(self):
        assert ChunkConfig(n=100, alpha=2).capacity == 400

    def test_minimal_config_flushes_every_edge(self):
        assert ChunkConfig(n=1, alpha=1).capacity == 1

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError):
            ChunkConfig(n=100, alpha=0)
        with pytest.raises(ValidationError):
            ChunkConfig(n=100, alpha=2.0)


def chunk_colorer(n, alpha):
    return ChunkColorer(ChunkConfig(n=n, alpha=alpha))


class TestFeedAndFlush:
    def test_below_capacity_buffers_silently(self):
        c = ChunkColorer(ChunkConfig(n=3, alpha=1))
        # capacity is 3: two edges stay buffered
        assert c.feed(Edge(0, 1)) == []
        assert c.feed(Edge(1, 2)) == []

    def test_triangle_chunk_flushes_with_distinct_colours(self):
        c = ChunkColorer(ChunkConfig(n=3, alpha=1))
        c.feed(Edge(0, 1))
        c.feed(Edge(1, 2))
        out = c.feed(Edge(0, 2))
        assert len(out) == 3
        colours = [col for _, col in out]
        assert all(isinstance(col, ChunkColour) and col.chunk == 0 for col in colours)
        assert len(set(colours)) == 3

    def test_two_chunk_stream_uses_two_disjoint_palettes(self):
        # capacity 5 (alpha=1, n=5) over a 10-edge stream: two chunks, and
        # the colour namespaces of chunk 0 and chunk 1 never collide
        colorer = ChunkColorer(ChunkConfig(n=5, alpha=1))
        edges = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(0, 2),
                 Edge(1, 3), Edge(2, 4), Edge(0, 3), Edge(1, 4), Edge(0, 4)]
        transcript = run_stream(colorer, edges, StreamHeader(5, m=10))
        chunks = {col.chunk for _, col in transcript.records}
        assert chunks == {0, 1}
        report = verify(transcript)
        assert report.proper
        # exact per-run bound: sum over chunks of (chunk max degree + 1)
        assert colour_budget(report, "chunk").passed

    def test_out_of_range_vertex_rejected(self):
        c = chunk_colorer(4, 1)
        with pytest.raises(ValidationError):
            c.feed(Edge(0, 4))

    def test_self_loop_rejected(self):
        c = chunk_colorer(4, 1)
        with pytest.raises(ValidationError):
            c.feed(Edge(2, 2))


class TestFinish:
    def test_empty_residual_silent(self):
        c = chunk_colorer(4, 1)
        assert c.finish() == []

    def test_single_residual_edge_gets_colour_zero(self):
        c = chunk_colorer(4, 2)
        c.feed(Edge(0, 1))
        out = c.finish()
        assert out == [(Edge(0, 1), ChunkColour(0, 0))]

    def test_residual_star_gets_distinct_colours(self):
        c = chunk_colorer(5, 2)
        for leaf in (1, 2, 3):
            c.feed(Edge(0, leaf))
        out = c.finish()
        assert len(out) == 3
        assert len({col for _, col in out}) == 3

    def test_double_finish_is_contract_violation(self):
        c = chunk_colorer(4, 1)
        c.finish()
        with pytest.raises(ContractViolation):
            c.finish()

    def test_feed_after_finish_is_contract_violation(self):
        c = chunk_colorer(4, 1)
        c.finish()
        with pytest.raises(ContractViolation):
            c.feed(Edge(0, 1))


class TestStreamProperties:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_proper_on_complete_graph_any_alpha(self, alpha):
        header, edges = generate(CompleteGraph(16), UniformRandomPermutation(), 3)
        colorer = chunk_colorer(16, alpha)
        transcript = run_stream(colorer, edges, header)
        report = verify(transcript)
        assert report.proper
        assert report.records == len(edges)
        assert colour_budget(report, "chunk").passed

    def test_transcript_covers_input_multiset(self):
        header, edges = generate(CompleteGraph(10), UniformRandomPermutation(), 1)
        colorer = chunk_colorer(10, 2)
        transcript = run_stream(colorer, edges, header)
        assert sorted(e for e, _ in transcript.records) == sorted(edges)

    def test_peak_buffered_edges_hits_capacity(self):
        header, edges = generate(CompleteGraph(12), UniformRandomPermutation(), 0)
        colorer = chunk_colorer(12, 2)  # capacity 48 < m = 66
        run_stream(colorer, edges, header)
        assert colorer.peak_buffered_edges == colorer.config.capacity

    def test_peak_buffered_edges_small_stream(self):
        colorer = chunk_colorer(12, 3)  # capacity 108
        header, edges = generate(CompleteGraph(12), UniformRandomPermutation(), 0)
        run_stream(colorer, edges, header)
        assert colorer.peak_buffered_edges == len(edges)

    def test_meter_peak_scales_with_capacity_not_stream(self):
        header, edges = generate(CompleteGraph(16), UniformRandomPermutation(), 2)
        colorer = chunk_colorer(16, 1)  # capacity 16, m = 120
        run_stream(colorer, edges, header)
        # buffer never holds more than capacity edges (2 words each) plus
        # flush workspace (3 words per support edge) plus fixed bookkeeping
        assert colorer.meter.peak_words <= 5 * colorer.config.capacity + 3

    def test_duplicate_occurrences_each_get_a_proper_colour(self):
        colorer = chunk_colorer(4, 1)  # capacity 4
        edges = [Edge(0, 1), Edge(1, 0), Edge(1, 2), Edge(0, 1)]
        transcript = run_stream(colorer, edges, StreamHeader(4))
        report = verify(transcript)
        assert report.records == 4
        assert report.duplicate_edges == 2
        assert report.proper  # copies share endpoints, so colours must differ


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunk_colours_are_vizing_on_the_checked_graph(data):
    # the flush builds its graph without from_edges' checks; the colours must
    # equal those of the checked graph on each chunk's repeat-free slice
    n = data.draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, max_size=60))]
    colorer = chunk_colorer(n, data.draw(st.integers(1, 2)))
    records = run_stream(colorer, edges, StreamHeader(n)).records
    capacity = colorer.config.capacity
    for chunk, first in enumerate(range(0, len(edges), capacity)):
        support = dict.fromkeys(Edge(*sorted(e)) for e in edges[first:first + capacity])
        expected = color_vizing(AdjacencyGraph.from_edges(n, support))
        announced = {}
        for edge, colour in records[first:first + capacity]:
            announced.setdefault(edge, colour)  # a repeat takes a greedy colour
        assert announced == {e: ChunkColour(chunk, c) for e, c in expected.items()}


# ---------------------------------------------------------------------------
# feed_many against the feed loop


def state(colorer):
    """What feed_many must leave exactly as the feed loop does."""
    return (
        colorer.meter.peak_words,
        colorer.meter.current_words,
        colorer.peak_buffered_edges,
        colorer.chunk_index,
        colorer.finished,
    )


def raised(exc):
    return None if exc is None else (type(exc), str(exc))


# edges the loop hands to feed: out of range, negative, a self-loop, not an
# Edge (feed reads edge.u), a float endpoint (feed buffers it and its flush
# fails) and a bool endpoint (feed buffers it as the int it is)
NOT_TAKEN = [Edge(0, 99), Edge(-1, 0), Edge(1, 1), (0, 1), Edge(1.0, 0), Edge(True, 0)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_feed_many_is_the_feed_loop(data):
    # few vertices, so edges repeat in either orientation; capacity 1 to 5,
    # so chunks flush mid-stream and at the cut between two feed_many calls
    n = data.draw(st.integers(2, 6))
    capacity = data.draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [Edge(*p) for p in data.draw(st.lists(pair, max_size=40))]
    if data.draw(st.booleans()):
        edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(NOT_TAKEN)))
    cut = data.draw(st.integers(0, len(edges)))
    finish_first = data.draw(st.integers(0, 9)) == 0  # every edge comes after finish

    with patch.object(ChunkConfig, "capacity", capacity):
        loop, batch = chunk_colorer(n, 1), chunk_colorer(n, 1)
        if finish_first:
            loop.finish(), batch.finish()
        for part in (edges[:cut], edges[cut:], None):  # None: finish
            want, want_error = outcome(lambda: [r for e in part for r in loop.feed(e)], part, loop)
            got, got_error = outcome(lambda: list(batch.feed_many(iter(part)).records), part, batch)
            assert repr(got) == repr(want)  # types too: Edge and ChunkColour
            assert raised(got_error) == raised(want_error)
            assert state(batch) == state(loop)
            if want_error is not None:
                break


def outcome(feed, part, colorer):
    """What ``feed`` announces for ``part`` and what it raised; for no
    ``part``, what ``finish`` does, unless the colourer has finished."""
    if part is None:
        if colorer.finished:
            return [], None
        feed = colorer.finish
    try:
        return feed(), None
    except Exception as exc:  # compared, not handled
        return [], exc
