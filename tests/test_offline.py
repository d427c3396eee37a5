import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    AdjacencyGraph,
    Edge,
    ValidationError,
    chromatic_index_bruteforce,
    color_greedy,
    color_vizing,
    colours_used,
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


class TestAdjacencyGraph:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            graph(3, [(0, 3)])

    def test_degree_and_max_degree(self):
        g = graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree == 3
        assert len(g.adj[0]) == 3
        assert len(g.adj[2]) == 1


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
