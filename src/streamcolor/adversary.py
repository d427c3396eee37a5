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
lands on i.  Each edge lands on i with probability one over the number of
bits its endpoints differ in, about 2/s, and every miss costs a fresh vertex,
so the repair draws about (st)^2 (1 + s(t-1)/4) / 2 vertices: over seeds 0-4
at the recommended vertex count, 5,814-7,855 at (max_degree, s) = (96, 24)
and 15,660-19,114 at (128, 32).  A colourer with too few vertices for the
construction is a ValidationError.
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
    """Fresh vertices of the colourer's id space, grouped by signature; only
    non-empty classes are kept, and ``deep`` keeps those holding at least t."""

    def __init__(self, colorer, t: int):
        self.n, self.t = colorer.n, t
        self.classes: dict[int, list[int]] = {}
        for u in range(colorer.n - 1, -1, -1):
            self.classes.setdefault(colorer.signature(u), []).append(u)
        # lists are descending, so pop() hands out the smallest id first
        self.order = list(self.classes)
        self.deep = {sig: bucket for sig, bucket in self.classes.items() if len(bucket) >= t}
        self.resume: dict[tuple[int, int], int] = {}  # (i, bit) -> index into order

    def take(self, sig: int) -> int:
        bucket = self.classes[sig]
        v = bucket.pop()
        if len(bucket) < self.t:
            self.deep.pop(sig, None)
        if not bucket:
            del self.classes[sig]
        return v

    def with_bit(self, i: int, bit: int) -> int:
        """The first class in pool order whose bit i is ``bit``.  Classes are
        only ever emptied, so each search resumes where the last one with
        the same (i, bit) stopped."""
        for at in range(self.resume.get((i, bit), 0), len(self.order)):
            sig = self.order[at]
            if (sig >> i) & 1 == bit and sig in self.classes:
                self.resume[i, bit] = at
                return sig
        raise ValidationError(
            f"the colourer's {self.n} vertices ran out while building slice {i}; "
            "give it more vertices"
        )

    def clean_pair(self, i: int) -> tuple[int, int] | None:
        """The signature pair differing exactly at bit i with the deepest
        supply, the first in pool order on a tie, if both classes hold at
        least t vertices."""
        best, best_score = None, 0  # every deep class holds at least t
        for sig, bucket in self.deep.items():
            partner = self.deep.get(sig ^ (1 << i))
            if (sig >> i) & 1 or partner is None:
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
        self.pool = _VertexPool(colorer, self.t)  # raises unless randomness is exposed
        self.degree: dict[int, int] = {}
        self.emitted: set[Edge] = set()
        self.stream: list[Edge] = []
        self.transcript = Transcript(header=StreamHeader(n=colorer.n))
        self.announced: list = []  # records not yet in the transcript

    def _feed(self, x: int, y: int) -> TripleColour:
        edge = Edge(x, y) if x < y else Edge(y, x)  # distinct ids of the colourer
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

    def _take(self, i: int, bit: int, prefer: int | None = None) -> int:
        """A fresh vertex of class ``prefer`` while it lasts, else of the
        first class with bit i equal to ``bit``."""
        pool = self.pool
        return pool.take(prefer if prefer in pool.classes else pool.with_bit(i, bit))

    def _grow(self, i: int, bit: int, target: int, reserve: int) -> int:
        """A fresh vertex on side ``bit`` of slice i with its counter driven
        up to ``target``, keeping ``reserve`` degree headroom."""
        while True:
            v = self._take(i, bit)
            count = 0
            while count < target and self.degree.get(v, 0) < self.max_degree - reserve:
                leaf = self._take(i, 1 - bit, self.colorer.signature(v) ^ (1 << i))
                if self._feed(v, leaf).index == i:
                    count += 1
            if count == target:
                return v

    def run(self) -> WorstCaseResult:
        t, s = self.t, self.s
        for i in range(s):
            left_sig, right_sig = self.pool.clean_pair(i) or (None, None)
            lefts = [self._take(i, 0, left_sig) for _ in range(t)]
            rights = [self._take(i, 1, right_sig) for _ in range(t)]
            for j, a in enumerate(lefts):
                for k in range(t):
                    while True:
                        if self.degree.get(a, 0) >= self.max_degree:
                            # row vertex out of budget: rebuild it at its
                            # current slice counter
                            a = self._grow(i, 0, target=k, reserve=t - k)
                        if self._feed(a, rights[k]).index == i:
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
    """Vertex count to instantiate the target colourer with: below s = 24,
    enough that clean signature-class pairs are plentiful; from s = 24 on,
    twice what the counter repair draws on average.  At most 100,000 unless
    the grid itself needs more, so a wide grid at large s can run out."""
    if s < 1:
        raise ValidationError(f"signature width must be >= 1, got {s}")
    t = max(1, ceil(max_degree / (2 * s)))
    if s < 24:
        want = (1 << s) * 8 * t
    else:
        want = (s * t) ** 2 * (4 + s * (t - 1)) // 4
    return max(2 * t * s + 2, min(want, 100_000))
