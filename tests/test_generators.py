import itertools
import math

import pytest

from streamcolor import (
    AdversarialSorted,
    AsGiven,
    CompleteBipartite,
    CompleteGraph,
    Edge,
    FromFile,
    GnpRandom,
    RandomRegular,
    Star,
    UniformRandomPermutation,
    ValidationError,
    canonicalize,
    default_alpha,
    default_signature_bits,
    generate,
    parse_family,
    parse_order,
    write_edge_list,
    StreamHeader,
)
from streamcolor.generators import _pair_from_index


class TestFamilies:
    def test_complete_graph_edge_count(self):
        header, edges = generate(CompleteGraph(4), AsGiven(), 0)
        assert header.n == 4
        assert len(edges) == 6
        assert len({canonicalize(e) for e in edges}) == 6

    def test_star_shares_centre(self):
        header, edges = generate(Star(5), AsGiven(), 0)
        assert header.n == 6
        assert len(edges) == 5
        assert all(e.u == 0 for e in edges)

    def test_gnp_zero_probability(self):
        _, edges = generate(GnpRandom(100, 0.0), AsGiven(), 0)
        assert edges == []

    def test_gnp_full_probability(self):
        _, edges = generate(GnpRandom(10, 1.0), AsGiven(), 3)
        assert len(edges) == 45

    def test_gnp_density_roughly_matches(self):
        _, edges = generate(GnpRandom(300, 0.1), AsGiven(), 5)
        expected = 0.1 * 300 * 299 / 2
        assert abs(len(edges) - expected) < 5 * math.sqrt(expected)

    def test_complete_bipartite(self):
        header, edges = generate(CompleteBipartite(3, 4), AsGiven(), 0)
        assert header.n == 7
        assert len(edges) == 12
        assert all(e.u < 3 <= e.v for e in edges)

    def test_random_regular_degrees(self):
        header, edges = generate(RandomRegular(50, 3), AsGiven(), 2)
        deg = [0] * 50
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert deg == [3] * 50
        assert len({canonicalize(e) for e in edges}) == len(edges)

    def test_random_regular_parity_validation(self):
        with pytest.raises(ValidationError):
            generate(RandomRegular(5, 3), AsGiven(), 0)

    def test_gnp_probability_validation(self):
        with pytest.raises(ValidationError):
            generate(GnpRandom(10, 1.5), AsGiven(), 0)

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "g.el"
        write_edge_list(path, StreamHeader(4, m=2), [Edge(2, 1), Edge(0, 3)])
        header, edges = generate(FromFile(str(path)), AsGiven(), 0)
        assert header.n == 4
        assert edges == [Edge(2, 1), Edge(0, 3)]

    def test_from_file_keeps_repeated_edges_as_read(self, tmp_path):
        # the file's edges were checked once, by read_edge_list; a repeat
        # stays, in its own orientation, as `streamcolor run` colours it
        path = tmp_path / "g.el"
        path.write_text("n 4\n0 1\n2 3\n1 0\n")
        header, edges = generate(FromFile(str(path)), AsGiven(), 0)
        assert header.n == 4
        assert edges == [Edge(0, 1), Edge(2, 3), Edge(1, 0)]


class TestPairDecode:
    def test_matches_lexicographic_enumeration(self):
        for n in (2, 3, 5, 8, 13):
            pairs = list(itertools.combinations(range(n), 2))
            decoded = [_pair_from_index(i, n) for i in range(len(pairs))]
            assert decoded == [Edge(*p) for p in pairs]


class TestOrders:
    def test_as_given_preserves_order(self):
        _, edges = generate(CompleteGraph(5), AsGiven(), 0)
        assert edges == sorted(edges)

    def test_random_permutation_is_seed_deterministic(self):
        _, a = generate(CompleteGraph(6), UniformRandomPermutation(), 9)
        _, b = generate(CompleteGraph(6), UniformRandomPermutation(), 9)
        _, c = generate(CompleteGraph(6), UniformRandomPermutation(), 10)
        assert a == b
        assert a != c
        assert sorted(a) == sorted(c)

    def test_order_seed_overrides_stream_seed(self):
        _, a = generate(CompleteGraph(6), UniformRandomPermutation(seed=5), 1)
        _, b = generate(CompleteGraph(6), UniformRandomPermutation(seed=5), 2)
        assert a == b

    def test_sorted_policy(self):
        _, edges = generate(CompleteGraph(5), AdversarialSorted(), 0)
        assert edges == sorted(edges)
        # the stream arrives as a sequence of stars: all edges at vertex 0,
        # then all remaining at 1, ...
        firsts = [e.u for e in edges]
        assert firsts == sorted(firsts)

    def test_permutation_marginals_are_uniform(self):
        # fixed edge of K4 (m = 6): over many seeds, each position is hit
        # about 1/6 of the time; allow 5 sigma
        trials = 10_000
        m = 6
        target = Edge(0, 1)
        counts = [0] * m
        for seed in range(trials):
            _, edges = generate(CompleteGraph(4), UniformRandomPermutation(), seed)
            counts[edges.index(target)] += 1
        p = 1 / m
        sigma = math.sqrt(p * (1 - p) / trials)
        for c in counts:
            assert abs(c / trials - p) < 5 * sigma


class TestParsers:
    def test_family_syntax(self):
        assert parse_family("complete:50") == CompleteGraph(50)
        assert parse_family("bipartite:30:30") == CompleteBipartite(30, 30)
        assert parse_family("star:500") == Star(500)
        assert parse_family("gnp:1000:0.01") == GnpRandom(1000, 0.01)
        assert parse_family("regular:1000:3") == RandomRegular(1000, 3)
        assert parse_family("file:g.el") == FromFile("g.el")

    def test_family_errors(self):
        for bad in ("complete", "complete:a", "gnp:10", "mystery:1"):
            with pytest.raises(ValidationError):
                parse_family(bad)

    def test_order_syntax(self):
        assert parse_order("as-given") == AsGiven()
        assert parse_order("random") == UniformRandomPermutation()
        assert parse_order("random:7") == UniformRandomPermutation(7)
        assert parse_order("sorted") == AdversarialSorted()
        for bad in ("sideways", "star-batched"):
            with pytest.raises(ValidationError):
                parse_order(bad)


class TestDefaults:
    def test_default_alpha_is_log2(self):
        assert default_alpha(128) == 7
        assert default_alpha(1000) == 10
        assert default_alpha(1) == 1

    def test_default_signature_bits_is_36_ln(self):
        assert default_signature_bits(2048) == math.ceil(36 * math.log(2048))
        assert default_signature_bits(1) == 1
