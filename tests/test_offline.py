import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    AdjacencyGraph,
    CompleteGraph,
    Edge,
    GnpRandom,
    UniformRandomPermutation,
    ValidationError,
    chromatic_index_bruteforce,
    color_greedy,
    color_vizing,
    colours_used,
    generate,
    is_k_edge_colourable,
    is_proper,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
PATH3 = [(0, 1), (1, 2)]
K4 = list(itertools.combinations(range(4), 2))
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def graph(n, edges):
    return AdjacencyGraph.from_edges(n, edges)


def color_vizing_sets(g: AdjacencyGraph) -> dict[Edge, int]:
    """The differential oracle: ``color_vizing``'s fan-and-path colouring,
    tie-breaks and all, with each vertex's free colours kept as a Python
    set instead of an int bitmask."""
    K = g.max_degree + 1
    # at[x][c] = neighbour across the c-coloured edge at x
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    free: list[set[int]] = [set(range(K)) for _ in range(g.n)]
    colour_of: dict[tuple[int, int], int] = {}  # keyed by (smaller, larger) endpoint

    def assign(x: int, y: int, c: int) -> None:
        at[x][c] = y
        at[y][c] = x
        free[x].discard(c)
        free[y].discard(c)
        colour_of[(x, y) if x < y else (y, x)] = c

    def unassign(x: int, y: int, c: int) -> None:
        del at[x][c]
        del at[y][c]
        free[x].add(c)
        free[y].add(c)
        del colour_of[(x, y) if x < y else (y, x)]

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
                prev_edge_colour = colour_of[(u, fj) if u < fj else (fj, u)]
                if prev_edge_colour not in free[fan[j - 1]]:
                    break
            if d in free[fj]:
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

    return {edge: colour_of[edge] for edge in g.edges}


class TestAdjacencyGraph:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 3)], "edge (0,3) out of range for n=3"),
            ([(-1, 2)], "edge (-1,2) out of range for n=3"),
            ([(1, 1)], "self-loop (1,1) is not a valid edge"),
            ([(0, 1), (1, 2), (1, 0)], "duplicate edge Edge(u=0, v=1)"),
        ],
        ids=["out-of-range", "negative", "self-loop", "duplicate"],
    )
    def test_checks_each_pair_with_the_colourers_rule(self, edges, message):
        # range and self-loop messages are checked_edge's; a graph is simple
        with pytest.raises(ValidationError) as err:
            graph(3, edges)
        assert str(err.value) == message

    def test_degree_and_max_degree(self):
        g = graph(4, [(1, 0), (0, 2), (3, 0)])
        assert g.max_degree == 3
        assert g.edges == [Edge(0, 1), Edge(0, 2), Edge(0, 3)]


class TestIsProper:
    def test_rejects_an_uncoloured_edge(self):
        assert not is_proper(graph(3, PATH3), {Edge(0, 1): 0})

    def test_rejects_a_colour_twice_at_a_vertex(self):
        assert not is_proper(graph(3, PATH3), {Edge(0, 1): 0, Edge(1, 2): 0})

    def test_rejects_a_colouring_of_the_right_size_with_a_non_edge(self):
        # (1,2) is left uncoloured and (0,2) is not an edge of the graph
        assert not is_proper(graph(3, PATH3), {Edge(0, 1): 0, Edge(0, 2): 1})

    def test_accepts_a_proper_colouring_in_any_key_order(self):
        assert is_proper(graph(3, PATH3), {Edge(1, 2): 1, Edge(0, 1): 0})


class TestVizing:
    def test_triangle_needs_three(self):
        g = graph(3, TRIANGLE)
        col = color_vizing(g)
        assert is_proper(g, col)
        assert colours_used(col) == 3

    def test_path_needs_two(self):
        g = graph(3, PATH3)
        col = color_vizing(g)
        assert is_proper(g, col)
        assert colours_used(col) == 2

    def test_petersen_within_four(self):
        g = graph(10, PETERSEN)
        col = color_vizing(g)
        assert is_proper(g, col)
        assert colours_used(col) <= 4

    def test_petersen_four_is_tight(self):
        # the exhaustive search oracle: no proper 3-colouring exists
        g = graph(10, PETERSEN)
        assert not is_k_edge_colourable(g, 3)
        assert is_k_edge_colourable(g, 4)

    def test_deterministic_in_edge_order(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        a = color_vizing(graph(4, edges))
        b = color_vizing(graph(4, edges))
        assert a == b
        reordered = color_vizing(graph(4, list(reversed(edges))))
        assert is_proper(graph(4, edges), reordered)

    def test_empty_graph(self):
        assert color_vizing(graph(3, [])) == {}

    @pytest.mark.parametrize(
        "n, edges, pinned",
        [
            # 5 edges need the fan repair
            (9, list(itertools.combinations(range(9), 2)),
             "0,1,2,3,4,5,8,7,2,1,4,3,6,5,8,8,5,0,7,3,6,7,5,4,6,0,6,2,0,1,8,7,2,1,3,4"),
            # 50 edges need the fan repair; pinned by the sha256 of the colour list
            (64, generate(CompleteGraph(64), UniformRandomPermutation(), 0)[1],
             "51682cdee41506f72bfbf1f830c25460734f2827bd6b97258c4fcbe057b03c7f"),
            # no repair in this order
            (10, PETERSEN, "0,1,0,1,2,1,2,2,2,0,0,0,1,3,3"),
            # one repair in this order (PETERSEN shuffled by random.Random(13))
            (10, [(2, 7), (3, 8), (0, 1), (8, 5), (1, 2), (1, 6), (0, 5), (4, 9),
                  (6, 8), (3, 4), (2, 3), (7, 9), (5, 7), (9, 6), (4, 0)],
             "0,0,2,1,1,0,0,0,3,1,2,1,3,2,3"),
        ],
        ids=["K9", "K64-random-0", "petersen", "petersen-shuffled-13"],
    )
    def test_pinned_colourings(self, n, edges, pinned):
        # exact output in stored edge order; a change to any tie-break or to
        # the fan repair shows here
        g = graph(n, edges)
        col = color_vizing(g)
        assert list(col) == g.edges
        text = ",".join(str(col[e]) for e in g.edges)
        assert pinned in (text, hashlib.sha256(text.encode()).hexdigest())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_proper_and_bounded_on_random_graphs(self, data):
        n = data.draw(st.integers(2, 10))
        possible = list(itertools.combinations(range(n), 2))
        edges = data.draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        g = graph(n, edges)
        col = color_vizing(g)
        assert is_proper(g, col)
        assert colours_used(col) <= max(1, g.max_degree + 1)
        assert all(0 <= c <= g.max_degree for c in col.values())


class TestVizingMatchesSetOracle:
    """``color_vizing`` keeps free colours as int bitmasks; it must return
    what the set-based oracle returns, entry for entry and in dict order."""

    @staticmethod
    def assert_same(g):
        assert list(color_vizing(g).items()) == list(color_vizing_sets(g).items())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_simple_graphs_in_random_orders(self, data):
        n = data.draw(st.integers(2, 14))
        possible = list(itertools.combinations(range(n), 2))
        # a unique list of sampled pairs comes in a drawn order
        edges = data.draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        self.assert_same(graph(n, edges))

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(65, 90), seed=st.integers(0, 2**32 - 1))
    def test_complete_graphs_whose_palette_spans_two_words(self, n, seed):
        edges = list(itertools.combinations(range(n), 2))
        random.Random(seed).shuffle(edges)
        g = graph(n, edges)
        assert g.max_degree + 1 > 64
        self.assert_same(g)

    def test_the_chunks_of_the_chunk_cli_input(self):
        # G(2000, 0.05) in random order at seed 11, cut into chunks of
        # alpha^2 * n edges at alpha = 4, as `run --algo chunk --alpha 4` cuts it
        header, edges = generate(GnpRandom(2000, 0.05), UniformRandomPermutation(), 11)
        capacity = 4 * 4 * header.n
        chunks = [edges[i:i + capacity] for i in range(0, len(edges), capacity)]
        assert len(chunks) == 4
        for chunk in chunks:
            self.assert_same(graph(header.n, chunk))


class TestGreedy:
    def test_single_edge(self):
        g = graph(2, [(0, 1)])
        assert color_greedy(g) == {Edge(0, 1): 0}

    def test_star_uses_leaf_count(self):
        g = graph(6, [(0, i) for i in range(1, 6)])
        col = color_greedy(g)
        assert sorted(col.values()) == [0, 1, 2, 3, 4]

    def test_triangle(self):
        g = graph(3, TRIANGLE)
        col = color_greedy(g)
        assert is_proper(g, col)
        assert colours_used(col) == 3

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_greedy_bound(self, data):
        n = data.draw(st.integers(2, 9))
        possible = list(itertools.combinations(range(n), 2))
        edges = data.draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        g = graph(n, edges)
        col = color_greedy(g)
        assert is_proper(g, col)
        if edges:
            assert colours_used(col) <= 2 * g.max_degree - 1


class TestBruteforce:
    def test_triangle(self):
        assert chromatic_index_bruteforce(graph(3, TRIANGLE)) == 3

    def test_perfect_matching(self):
        g = graph(6, [(0, 1), (2, 3), (4, 5)])
        assert chromatic_index_bruteforce(g) == 1

    def test_k4(self):
        assert chromatic_index_bruteforce(graph(4, K4)) == 3

    def test_refuses_large_graphs(self):
        with pytest.raises(ValidationError):
            chromatic_index_bruteforce(graph(10, PETERSEN))

    def test_empty(self):
        assert chromatic_index_bruteforce(graph(2, [])) == 0

    def test_vizing_sanity_on_small_random_graphs(self):
        # max_degree <= chi' <= max_degree + 1, and the constructive colourer
        # can never beat the exact optimum
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(2, 7)
            possible = list(itertools.combinations(range(n), 2))
            m = rng.randint(1, min(12, len(possible)))
            g = graph(n, rng.sample(possible, m))
            exact = chromatic_index_bruteforce(g)
            assert g.max_degree <= exact <= g.max_degree + 1
            assert colours_used(color_vizing(g)) >= exact
