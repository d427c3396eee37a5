"""Offline edge colouring.

``color_vizing`` is the constructive fan-and-alternating-path colourer: it
extends a proper partial colouring one edge at a time and never needs more
than max_degree + 1 colours.  It is the per-chunk subroutine of the
chunk-buffered streaming colourer.  ``color_greedy`` is the 2*max_degree - 1
baseline, and ``GreedyStreamColorer`` the same rule announced online.
``chromatic_index_bruteforce`` is an exact backtracking oracle for tiny
graphs, used by the test suite to certify optimality claims.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

from .core import ChunkColour, ColourId, Edge, StreamColorer, ValidationError, checked_edge


@dataclass
class AdjacencyGraph:
    """A simple undirected graph on vertices 0..n-1: its edges, each with
    the smaller endpoint first, in the order given."""

    n: int
    edges: list[Edge]

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyGraph":
        """The graph of pairs no colourer has fed: each passes ``checked_edge``, none repeats."""
        canon: dict[Edge, None] = {}
        for pair in edges:
            edge = checked_edge(Edge(*pair), n)
            if edge in canon:
                raise ValidationError(f"duplicate edge {edge}")
            canon[edge] = None
        return cls(n, list(canon))

    @property
    def max_degree(self) -> int:
        return max(Counter(chain.from_iterable(self.edges)).values(), default=0)


def take_free_colour(used_u: set[int], used_v: set[int]) -> int:
    """Smallest colour in neither endpoint's set; it is added to both.  The
    one smallest-free-colour rule behind every greedy colouring here."""
    c = 0
    while c in used_u or c in used_v:
        c += 1
    used_u.add(c)
    used_v.add(c)
    return c


def color_greedy(g: AdjacencyGraph) -> dict[Edge, int]:
    """Smallest colour unused at either endpoint, edges in stored order.

    Uses at most 2*max_degree - 1 colours: an edge sees at most
    max_degree - 1 other colours at each endpoint.
    """
    used: list[set[int]] = [set() for _ in range(g.n)]
    return {edge: take_free_colour(used[edge.u], used[edge.v]) for edge in g.edges}


class GreedyStreamColorer(StreamColorer):
    """Online greedy baseline: smallest colour unused at both endpoints,
    announced immediately.  Uses at most 2*max_degree - 1 colours but stores
    every vertex's colour set, so its live space grows with the edge count;
    the meter makes that cost visible.  A library class only: ``run`` and
    ``sweep`` drive the paper's two colourers."""

    def __init__(self, n: int):
        super().__init__(n)
        self._used: defaultdict[int, set[int]] = defaultdict(set)
        self.meter.charge(1)

    def _take(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        c = take_free_colour(self._used[edge.u], self._used[edge.v])
        self.meter.charge(2)  # one colour word per endpoint set
        return [(edge, ChunkColour(0, c))]


def color_vizing(g: AdjacencyGraph) -> dict[Edge, int]:
    """Proper colouring with at most max_degree + 1 colours.

    Edges are processed in stored order and every tie is broken towards the
    smallest colour, so the output is a deterministic function of the edge
    order.  For each edge (u, v) that cannot take a colour free at both ends
    directly, the classic repair applies:

    1. build the maximal fan of u anchored at v, where each successive fan
       edge's colour is free at the previous fan vertex;
    2. pick c free at u and d free at the last fan vertex;
    3. if d is not free at u, invert the maximal c/d alternating path that
       starts at u, after which d is free at u;
    4. find a fan prefix, still valid under the post-inversion colours, whose
       last vertex w has d free; shift each prefix edge's colour to its fan
       predecessor and colour (u, w) with d.

    Each vertex's free colours are one int bitmask (bit c set when colour c
    is free), so "smallest free colour" is the lowest set bit.
    """
    K = g.max_degree + 1
    # at[x][c] = neighbour across the c-coloured edge at x
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    free: list[int] = [(1 << K) - 1] * g.n
    # keyed by (smaller, larger) endpoint; it holds every edge, in stored
    # order, from the start, so it is the result once the last edge is coloured
    colour_of: dict[tuple[int, int], int] = dict.fromkeys(g.edges)

    def assign(x: int, y: int, c: int) -> None:
        at[x][c] = y
        at[y][c] = x
        free[x] &= ~(1 << c)
        free[y] &= ~(1 << c)
        colour_of[(x, y) if x < y else (y, x)] = c

    def unassign(x: int, y: int, c: int) -> None:
        del at[x][c]
        del at[y][c]
        free[x] |= 1 << c
        free[y] |= 1 << c

    def invert_path(u: int, c: int, d: int) -> None:
        # c is free at u, so the c/d component containing u is a path with u
        # at one end; walk it, then swap the two colours along it.
        path = []
        cur, col = u, d
        while col in at[cur]:
            nxt = at[cur][col]
            path.append((cur, nxt, col))
            cur, col = nxt, (c if col == d else d)
        for x, y, col in path:
            unassign(x, y, col)
        for x, y, col in path:
            assign(x, y, c if col == d else d)

    for edge in g.edges:
        u, v = edge
        free_u, free_v = free[u], free[v]
        both = free_u & free_v
        if both:
            low = both & -both
            c = low.bit_length() - 1
            at[u][c] = v
            at[v][c] = u
            free[u] = free_u ^ low
            free[v] = free_v ^ low
            colour_of[edge] = c
            continue

        # maximal fan of u starting at v: each step takes the smallest colour
        # free at the last fan vertex whose u-edge leads outside the fan
        at_u = at[u]
        fan = [v]
        in_fan = {v}
        while True:
            ext = None
            # colours free at the last fan vertex and used at u, lowest first
            rest = free[fan[-1]] & ~free_u
            while rest:
                low = rest & -rest
                w = at_u[low.bit_length() - 1]
                if w not in in_fan:
                    ext = w
                    break
                rest ^= low
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)

        c = (free_u & -free_u).bit_length() - 1
        free_last = free[fan[-1]]
        d = (free_last & -free_last).bit_length() - 1
        if not free_u >> d & 1:
            invert_path(u, c, d)

        # smallest w whose fan prefix survived the inversion and has d free
        w_idx = None
        for j, fj in enumerate(fan):
            if j > 0:
                prev_edge_colour = colour_of[(u, fj) if u < fj else (fj, u)]
                if not free[fan[j - 1]] >> prev_edge_colour & 1:
                    break
            if free[fj] >> d & 1:
                w_idx = j
                break
        if w_idx is None:
            raise AssertionError(
                f"fan repair failed at edge {edge}; colouring invariant broken"
            )

        shifted = [colour_of[(u, w) if u < w else (w, u)] for w in fan[1 : w_idx + 1]]
        for q in range(w_idx):
            unassign(u, fan[q + 1], shifted[q])
        for q in range(w_idx):
            assign(u, fan[q], shifted[q])
        assign(u, fan[w_idx], d)

    return colour_of


_BRUTEFORCE_EDGE_LIMIT = 12


def is_k_edge_colourable(g: AdjacencyGraph, k: int) -> bool:
    """Exact backtracking test, exponential in the number of edges."""
    if k < 0:
        raise ValidationError(f"colour budget must be non-negative, got {k}")
    m = len(g.edges)
    if m == 0:
        return True
    if g.max_degree > k:
        return False
    used: list[set[int]] = [set() for _ in range(g.n)]
    # most-constrained-first would be faster, but stored order keeps the
    # search reproducible and m is tiny
    order = g.edges

    def place(idx: int, highest: int) -> bool:
        if idx == m:
            return True
        u, v = order[idx]
        # colours beyond highest+1 are symmetric; trying one representative
        # of the unused block is enough
        cap = min(k, highest + 2)
        for c in range(cap):
            if c not in used[u] and c not in used[v]:
                used[u].add(c)
                used[v].add(c)
                if place(idx + 1, max(highest, c)):
                    return True
                used[u].remove(c)
                used[v].remove(c)
        return False

    return place(0, -1)


def chromatic_index_bruteforce(g: AdjacencyGraph) -> int:
    """Exact minimum colour count, by exhaustive search.  Refuses graphs with
    more than 12 edges."""
    m = len(g.edges)
    if m > _BRUTEFORCE_EDGE_LIMIT:
        raise ValidationError(
            f"{m} edges exceeds the bruteforce limit of {_BRUTEFORCE_EDGE_LIMIT}"
        )
    if m == 0:
        return 0
    k = g.max_degree
    while not is_k_edge_colourable(g, k):
        k += 1
    return k


def colours_used(colouring: dict[Edge, int]) -> int:
    return len(set(colouring.values()))


def is_proper(g: AdjacencyGraph, colouring: dict[Edge, int]) -> bool:
    """Every edge of ``g`` coloured, nothing else coloured, and no vertex
    sees a colour twice."""
    if len(colouring) != len(g.edges) or colouring.keys() != set(g.edges):
        return False
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for edge, c in colouring.items():
        for x in edge:
            if c in seen[x]:
                return False
            seen[x].add(c)
    return True
