"""Worst-case stream construction against the bit-signature colourer.

The colourer's colour count collapses to about max_degree^2 / s only because
an oblivious stream spreads counters evenly.  Given read access to the
signature table and sight of each announcement (which reveals the uniform
index draw), a stream of star gadgets forces the full grid of counter pairs:

* For each slice index i, take t fresh "left" vertices (bit i = 0) and t
  fresh "right" vertices (bit i = 1), preferring a pair of signature classes
  that differ only at bit i so every cross edge is routed to B_i with
  certainty.
* Feed the complete bipartite grid row by row.  When row j meets column k,
  the left vertex has k prior slice-i edges and the right vertex has j, so
  the announcement is the fresh colour (i, k, j).

With t = ceil(max_degree / (2s)) the grid yields s * t^2 >= max_degree^2/(4s)
distinct colours while no vertex exceeds degree max_degree.  When no clean
class pair exists (signatures wider than log2 n), a missed edge is repaired
by replacing the column vertex with a fresh one whose slice-i counter is
driven back up via disposable leaf edges, retrying until the colourer's draw
lands on i; each retry costs one fresh leaf, matching the expected s attempts
per connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .core import (
    Edge,
    StreamHeader,
    Transcript,
    TripleColour,
    ValidationError,
    canonicalize,
)


@dataclass
class WorstCaseResult:
    header: StreamHeader
    edges: list[Edge]
    transcript: Transcript
    grid_side: int
    target_colours: int
    distinct_colours: int


class _VertexPool:
    """Fresh vertices of the colourer's id space, grouped by signature."""

    def __init__(self, colorer):
        self.classes: dict[int, list[int]] = {}
        for u in range(colorer.n - 1, -1, -1):
            self.classes.setdefault(colorer.signature(u), []).append(u)
        # lists are descending, so pop() hands out the smallest id first

    def take_exact(self, sig: int) -> int | None:
        bucket = self.classes.get(sig)
        if bucket:
            return bucket.pop()
        return None

    def take_with_bit(self, i: int, bit: int) -> int | None:
        for sig, bucket in self.classes.items():
            if bucket and (sig >> i) & 1 == bit:
                return bucket.pop()
        return None

    def best_pair(self, i: int) -> tuple[int, int] | None:
        """Signature pair differing exactly at bit i with the deepest supply."""
        best = None
        best_score = 0
        for sig, bucket in self.classes.items():
            if (sig >> i) & 1 != 0 or not bucket:
                continue
            partner = self.classes.get(sig ^ (1 << i))
            if not partner:
                continue
            score = min(len(bucket), len(partner))
            if score > best_score:
                best_score = score
                best = (sig, sig ^ (1 << i))
        return best


class _Driver:
    def __init__(self, colorer, max_degree: int):
        if max_degree < 1:
            raise ValidationError(f"max degree must be >= 1, got {max_degree}")
        self.colorer = colorer
        self.max_degree = max_degree
        self.s = colorer.s
        self.t = max(1, ceil(max_degree / (2 * self.s)))
        if 2 * self.t * self.s > colorer.n:
            raise ValidationError(
                f"colourer has {colorer.n} vertices; the grid needs at least "
                f"{2 * self.t * self.s}"
            )
        self.pool = _VertexPool(colorer)  # raises unless randomness is exposed
        self.degree: dict[int, int] = {}
        self.emitted: set[Edge] = set()
        self.stream: list[Edge] = []
        self.transcript = Transcript(header=StreamHeader(n=colorer.n))
        self.announced: list = []  # records not yet in the transcript

    def _sig(self, u: int) -> int:
        return self.colorer.signature(u)

    def _feed(self, x: int, y: int) -> TripleColour:
        edge = canonicalize(Edge(x, y))
        if edge in self.emitted:
            raise AssertionError(f"adversary tried to repeat edge {edge}")
        if self.degree.get(x, 0) >= self.max_degree or self.degree.get(y, 0) >= self.max_degree:
            raise AssertionError("adversary exceeded its degree budget")
        self.emitted.add(edge)
        self.stream.append(edge)
        self.degree[x] = self.degree.get(x, 0) + 1
        self.degree[y] = self.degree.get(y, 0) + 1
        announcements = self.colorer.feed(edge)
        self.announced += announcements
        colour = announcements[0][1]
        if not isinstance(colour, TripleColour):
            raise AssertionError(f"expected a triple colour, got {colour}")
        return colour

    def _take(self, i: int, bit: int, prefer_sig: int | None = None) -> int:
        v = None
        if prefer_sig is not None:
            v = self.pool.take_exact(prefer_sig)
        if v is None:
            v = self.pool.take_with_bit(i, bit)
        if v is None:
            raise RuntimeError(
                f"fresh vertex supply exhausted while building slice {i}"
            )
        return v

    def _grow(self, i: int, bit: int, target: int, reserve: int) -> int:
        """A fresh vertex on side ``bit`` of slice i with its counter driven
        up to ``target``, keeping ``reserve`` degree headroom."""
        while True:
            v = self._take(i, bit)
            count = 0
            abandoned = False
            while count < target:
                if self.degree.get(v, 0) >= self.max_degree - reserve:
                    abandoned = True
                    break
                leaf = self._take(i, 1 - bit, prefer_sig=self._sig(v) ^ (1 << i))
                colour = self._feed(v, leaf)
                if colour.index == i:
                    count += 1
            if not abandoned:
                return v

    def _grid_vertices(self, i: int) -> tuple[list[int], list[int]]:
        pair = self.pool.best_pair(i)
        if pair is not None and min(
            len(self.pool.classes[pair[0]]), len(self.pool.classes[pair[1]])
        ) >= self.t:
            left_sig, right_sig = pair
            lefts = [self.pool.take_exact(left_sig) for _ in range(self.t)]
            rights = [self.pool.take_exact(right_sig) for _ in range(self.t)]
            return lefts, rights
        lefts = [self._take(i, 0) for _ in range(self.t)]
        rights = [self._take(i, 1) for _ in range(self.t)]
        return lefts, rights

    def run(self) -> WorstCaseResult:
        t, s = self.t, self.s
        for i in range(s):
            lefts, rights = self._grid_vertices(i)
            for j in range(t):
                a = lefts[j]
                for k in range(t):
                    while True:
                        if self.degree.get(a, 0) >= self.max_degree:
                            # row vertex out of budget: rebuild it at its
                            # current slice counter
                            a = self._grow(i, 0, target=k, reserve=t - k)
                            lefts[j] = a
                        colour = self._feed(a, rights[k])
                        if colour.index == i:
                            break
                        # missed slice: the pair is spent, bring in a fresh
                        # column vertex at the counter the column expects
                        rights[k] = self._grow(i, 1, target=j, reserve=t - j)
            # one extend per slice: the batch of records is large enough
            # for the columns' bulk path, and its tuples are freed
            self.transcript.extend(self.announced)
            self.announced.clear()

        self.transcript.header = StreamHeader(n=self.colorer.n, m=len(self.stream))
        return WorstCaseResult(
            header=self.transcript.header,
            edges=self.stream,
            transcript=self.transcript,
            grid_side=t,
            target_colours=s * t * t,
            distinct_colours=self.transcript.distinct_colours(),
        )


def worst_case_stream(colorer, max_degree: int) -> WorstCaseResult:
    """Drive ``colorer`` interactively and force at least
    s * ceil(max_degree/(2s))^2 >= max_degree^2/(4s) distinct colours.

    ``colorer`` must be a fresh bit-signature colourer constructed with
    ``expose_randomness=True``; the stream emitted never repeats an edge and
    never pushes any vertex past ``max_degree``.
    """
    return _Driver(colorer, max_degree).run()


def recommended_vertex_count(max_degree: int, s: int) -> int:
    """Vertex count to instantiate the target colourer with so that clean
    signature-class pairs are plentiful at desk scale: at most 100,000 unless
    the grid itself needs more."""
    t = max(1, ceil(max_degree / (2 * s)))
    if s < 24:
        want = (1 << s) * 8 * t
    else:
        want = 64 * t * s
    return max(2 * t * s + 2, min(want, 100_000))
