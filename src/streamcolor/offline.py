"""Offline edge colouring.

``color_vizing`` is the constructive fan-and-alternating-path colourer: it
extends a proper partial colouring one edge at a time and never needs more
than max_degree + 1 colours.  It is the per-chunk subroutine of the
chunk-buffered streaming colourer.  ``color_greedy`` is the 2*max_degree - 1
baseline.  ``chromatic_index_bruteforce`` is an exact backtracking oracle for
tiny graphs, used by the test suite to certify optimality claims.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, ValidationError, canonicalize


@dataclass
class AdjacencyGraph:
    """Static adjacency view of a simple undirected graph on vertices
    0..n-1.  ``adj[v]`` lists (neighbour, edge slot) pairs; slots index into
    ``edges``."""

    n: int
    edges: list[Edge]
    adj: list[list[tuple[int, int]]]
    max_degree: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyGraph":
        canon = []
        seen = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for edge in edges:
            e = canonicalize(Edge(*edge))
            if e.v >= n:
                raise ValidationError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise ValidationError(f"duplicate edge {e}")
            seen.add(e)
            slot = len(canon)
            canon.append(e)
            adj[e.u].append((e.v, slot))
            adj[e.v].append((e.u, slot))
        max_degree = max((len(nbrs) for nbrs in adj), default=0)
        return cls(n=n, edges=canon, adj=adj, max_degree=max_degree)


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
    """
    K = g.max_degree + 1
    # at[x][c] = neighbour across the c-coloured edge at x
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    free: list[set[int]] = [set(range(K)) for _ in range(g.n)]
    colour_of: dict[Edge, int] = {}

    def assign(x: int, y: int, c: int) -> None:
        at[x][c] = y
        at[y][c] = x
        free[x].discard(c)
        free[y].discard(c)
        colour_of[canonicalize(Edge(x, y))] = c

    def unassign(x: int, y: int, c: int) -> None:
        del at[x][c]
        del at[y][c]
        free[x].add(c)
        free[y].add(c)
        del colour_of[canonicalize(Edge(x, y))]

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
        both = free[u] & free[v]
        if both:
            assign(u, v, min(both))
            continue

        # maximal fan of u starting at v
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            ext = None
            for c in sorted(free[last]):
                w = at[u].get(c)
                if w is not None and w not in in_fan:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)

        c = min(free[u])
        d = min(free[fan[-1]])
        if d not in free[u]:
            invert_path(u, c, d)

        # smallest w whose fan prefix survived the inversion and has d free
        w_idx = None
        for j, fj in enumerate(fan):
            if j > 0:
                prev_edge_colour = colour_of[canonicalize(Edge(u, fj))]
                if prev_edge_colour not in free[fan[j - 1]]:
                    break
            if d in free[fj]:
                w_idx = j
                break
        if w_idx is None:
            raise AssertionError(
                f"fan repair failed at edge {edge}; colouring invariant broken"
            )

        shifted = [colour_of[canonicalize(Edge(u, fan[q + 1]))] for q in range(w_idx)]
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
    """Every edge coloured, and no vertex sees a colour twice."""
    if len(colouring) != len(g.edges):
        return False
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for edge, c in colouring.items():
        for x in edge:
            if c in seen[x]:
                return False
            seen[x].add(c)
    return True
