"""Chunk-buffered streaming colourer for random-order streams.

Buffer the stream into chunks of C = alpha^2 * n edges; when a chunk fills,
colour its induced subgraph offline and announce every buffered edge at once,
each chunk under its own palette.  Properness holds for any arrival order;
only the colour count depends on the order being random: a random permutation
spreads each vertex's degree evenly across chunks, so each chunk needs about
max_degree / num_chunks + 1 colours.

``feed_many`` hands each run of checked edges, smaller endpoint first, to
``_take_run``, which buffers it in plain Python, with no numpy; each flush
appends its chunk's announcements straight to the columns of a transcript.
``feed`` flushes through the same step and returns the records of its output.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .core import ColourId, Edge, StreamColorer, StreamHeader, Transcript, ValidationError
from .offline import AdjacencyGraph, color_vizing, take_free_colour


@dataclass(frozen=True)
class ChunkConfig:
    """Chunk sizing: capacity is exactly alpha^2 * n edges."""

    n: int
    alpha: int

    def __post_init__(self):
        if not isinstance(self.alpha, int) or self.alpha < 1:
            raise ValidationError(f"alpha must be a positive integer, got {self.alpha}")

    @property
    def capacity(self) -> int:
        return self.alpha * self.alpha * self.n


class ChunkColorer(StreamColorer):
    """Sequential state machine: feed(edge) buffers, flushes announce.

    Each chunk is coloured offline with the max_degree + 1 colourer, which is
    what the colour-count accounting assumes.
    """

    def __init__(self, config: ChunkConfig):
        super().__init__(config.n)
        self.config = config
        self._buffer: list[Edge] = []
        self.chunk_index = 0
        # fixed bookkeeping: capacity, fill count, chunk counter
        self.meter.charge(3)

    def _charge(self, taken: int) -> None:
        """Account for the last ``taken`` edges the buffer took: two
        endpoint words each, and the buffer's length."""
        self.meter.charge(2 * taken)
        if len(self._buffer) > self.peak_buffered_edges:
            self.peak_buffered_edges = len(self._buffer)

    def _take(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        self._buffer.append(edge)
        self._charge(1)
        return self._drain() if len(self._buffer) == self.config.capacity else []

    def _drain(self) -> list[tuple[Edge, ColourId]]:
        """Colour the buffered (residual) chunk, if any, under a fresh palette."""
        out = Transcript(StreamHeader(self.n))
        if self._buffer:
            self._flush(out)
        return list(out)

    def _take_run(self, run: list, out: Transcript) -> None:
        """Buffer the checked edges of ``run``, flushing each chunk that
        fills to ``out``, with no numpy; the meter and
        ``peak_buffered_edges`` see each fill in one step."""
        buffer, capacity = self._buffer, self.config.capacity
        start = 0
        while start < len(run):
            piece = run[start:start + capacity - len(buffer)]
            buffer += piece
            start += len(piece)
            self._charge(len(piece))
            if len(buffer) == capacity:
                self._flush(out)

    def _flush(self, out: Transcript) -> None:
        """Colour the buffered chunk and append its announcements, in
        arrival order, to ``out``'s columns."""
        chunk = self._buffer
        # duplicates within a chunk would make the induced subgraph a
        # multigraph; colour the simple support, then give repeat occurrences
        # greedy colours from the top of the same palette
        support = list(dict.fromkeys(chunk))

        # transient workspace: adjacency (2 words/edge) plus one colour word
        # per edge of the support graph
        workspace = 3 * len(support)
        self.meter.charge(workspace)
        # every edge is checked and oriented, and the support repeats none
        local = color_vizing(AdjacencyGraph(self.n, support))

        if len(support) != len(chunk):
            used_at: defaultdict[int, set[int]] = defaultdict(set)
            for e, c in local.items():
                used_at[e.u].add(c)
                used_at[e.v].add(c)
            colours = []
            for e in chunk:
                c = local.pop(e, None)  # only the first occurrence finds its colour
                if c is None:
                    c = take_free_colour(used_at[e.u], used_at[e.v])
                colours.append(c)
        else:
            colours = list(map(local.__getitem__, chunk))

        ends = array("q", chain.from_iterable(chunk))
        # kind 0 (chunk), the chunk index and the local colour; c2 stays 0
        out._append(ends[0::2], ends[1::2], 0, self.chunk_index, array("q", colours))

        self.meter.release(workspace)
        self.meter.release(2 * len(chunk))
        chunk.clear()
        self.chunk_index += 1
