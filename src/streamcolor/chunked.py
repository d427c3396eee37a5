"""Chunk-buffered streaming colourer for random-order streams.

Buffer the stream into chunks of C = alpha^2 * n edges; when a chunk fills,
colour its induced subgraph offline and announce every buffered edge at once,
each chunk under its own palette.  Properness holds for any arrival order;
only the colour count depends on the order being random: a random permutation
spreads each vertex's degree evenly across chunks, so each chunk needs about
max_degree / num_chunks + 1 colours.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import ChunkColour, ColourId, Edge, StreamColorer, ValidationError
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

    def _take(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        self._buffer.append(edge)
        self.meter.charge(2)  # two endpoint words per buffered edge
        if len(self._buffer) > self.peak_buffered_edges:
            self.peak_buffered_edges = len(self._buffer)
        if len(self._buffer) == self.config.capacity:
            return self._flush()
        return []

    def _drain(self) -> list[tuple[Edge, ColourId]]:
        """Colour the residual partial chunk, if any, under a fresh palette."""
        if not self._buffer:
            return []
        return self._flush()

    def _flush(self) -> list[tuple[Edge, ColourId]]:
        chunk = self._buffer
        # duplicates within a chunk would make the induced subgraph a
        # multigraph; colour the simple support, then give repeat occurrences
        # greedy colours from the top of the same palette
        support = list(dict.fromkeys(chunk))

        # transient workspace: adjacency (2 words/edge) plus one colour word
        # per edge of the support graph
        workspace = 3 * len(support)
        self.meter.charge(workspace)
        # feed checked and canonicalised each edge, and the support repeats none
        local = color_vizing(AdjacencyGraph(self.n, support))

        if len(support) != len(chunk):
            used_at: defaultdict[int, set[int]] = defaultdict(set)
            for e, c in local.items():
                used_at[e.u].add(c)
                used_at[e.v].add(c)
            announcements = []
            for e in chunk:
                c = local.pop(e, None)  # only the first occurrence finds its colour
                if c is None:
                    c = take_free_colour(used_at[e.u], used_at[e.v])
                announcements.append((e, ChunkColour(self.chunk_index, c)))
        else:
            announcements = [(e, ChunkColour(self.chunk_index, local[e])) for e in chunk]

        self.meter.release(workspace)
        self.meter.release(2 * len(chunk))
        self._buffer = []
        self.chunk_index += 1
        return announcements
