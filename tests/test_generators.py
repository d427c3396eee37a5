import itertools
import math
import random
import warnings
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    default_alpha,
    default_signature_bits,
    generate,
    parse_family,
    parse_order,
    write_edge_list,
    StreamHeader,
)
from streamcolor.batch import gnp_edges, pairs


# the scalar G(n, p) sampler, the oracle of the numpy kernel that replaced it
def _pair_from_index(idx: int, n: int) -> Edge:
    """Decode a rank in [0, C(n,2)) to the idx-th pair in lexicographic order."""
    total = n * (n - 1) // 2
    rev = total - 1 - idx
    a = n - 2 - (isqrt(8 * rev + 1) - 1) // 2
    b = idx - (a * n - a * (a + 1) // 2) + a + 1
    return Edge(a, b)


def _gnp_edges(n: int, p: float, rng: random.Random) -> list[Edge]:
    if p <= 0.0:
        return []
    total = n * (n - 1) // 2
    if p >= 1.0:
        return [_pair_from_index(i, n) for i in range(total)]
    # geometric skips over the ranked pair space: only ~p*C(n,2) draws
    edges = []
    log_q = math.log1p(-p)
    idx = -1
    while True:
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= total - 1 - idx:  # past the last pair; an infinite gap too
            return edges
        idx += int(gap) + 1
        edges.append(_pair_from_index(idx, n))


def assert_matches_oracle(n, p, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, edges = generate(GnpRandom(n, p), AsGiven(), seed)
    want = _gnp_edges(n, p, random.Random(seed))
    assert edges == want
    assert all(type(end) is int for edge in edges[:1] for end in edge)


class TestFamilies:
    def test_complete_graph_edge_count(self):
        header, edges = generate(CompleteGraph(4), AsGiven(), 0)
        assert header.n == 4
        assert len(edges) == 6
        assert len({Edge(*sorted(e)) for e in edges}) == 6

    def test_star_shares_centre(self):
        header, edges = generate(Star(5), AsGiven(), 0)
        assert header.n == 6
        assert len(edges) == 5
        assert all(e.u == 0 for e in edges)

    def test_gnp_zero_probability(self):
        _, edges = generate(GnpRandom(100, 0.0), AsGiven(), 0)
        assert edges == []

    def test_gnp_subnormal_probability(self):
        # log(1 - u) / log1p(-p) overflows to an infinite gap
        _, edges = generate(GnpRandom(10, 5e-324), AsGiven(), 0)
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
        assert len({Edge(*sorted(e)) for e in edges}) == len(edges)

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
            want = list(itertools.combinations(range(n), 2))
            decoded = pairs(np.arange(len(want)), n)
            assert decoded == [Edge(*p) for p in want]

    @pytest.mark.parametrize("n", [2**20 + 3, 2**26, 2**27 + 5, 2**30])
    def test_matches_the_scalar_decode_at_row_ends(self, n):
        # the first and last rank of rows near the top, middle and bottom,
        # where the float square root is nearest an integer
        total = n * (n - 1) // 2
        rows = [0, 1, 2, n // 3, n // 2, n - 4, n - 3, n - 2]
        firsts = [a * n - a * (a + 1) // 2 for a in rows]
        ranks = sorted({r for f, a in zip(firsts, rows) for r in (f, f + n - a - 2)} | {total - 1})
        assert pairs(np.array(ranks), n) == [_pair_from_index(r, n) for r in ranks]


class TestGnpMatchesScalarOracle:
    @settings(deadline=None)
    @given(
        n=st.integers(1, 300),
        p=st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1 - 1e-12]) | st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    def test_random_cases(self, n, p, seed):
        assert_matches_oracle(n, p, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_the_acceptance_sweep_streams(self, seed):
        assert_matches_oracle(2048, 0.05, seed)

    def test_the_chunk_cli_stream(self):
        assert_matches_oracle(2000, 0.05, 11)

    def test_the_largest_n(self):
        # C(2**30, 2) * 1e-15 is about 576 edges, each gap near 1e15
        assert_matches_oracle(2**30, 1e-15, 0)

    def test_a_log_one_ulp_off_leaves_the_stream_unchanged(self, monkeypatch):
        # at p = 1/2 these draws give gaps of exactly 1, 2 and 3; a log one ulp
        # nearer zero puts each just below its integer, where the kernel
        # recomputes it with math.log
        def draws():
            return SimpleNamespace(random=itertools.cycle([0.5, 0.75, 0.875]).__next__)

        want = _gnp_edges(50, 0.5, draws())
        log = np.log
        monkeypatch.setattr(np, "log", lambda a: np.nextafter(log(a), 0))
        assert gnp_edges(50, 0.5, draws()) == want

    def test_n_above_the_exact_domain_is_refused(self):
        with pytest.raises(ValidationError, match=r"n <= 2\*\*30"):
            GnpRandom(2**30 + 1, 1e-18)
        GnpRandom(2**30, 0.5)


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
        assert parse_family("file:/tmp/a:b.el") == FromFile("/tmp/a:b.el")

    def test_family_errors(self):
        for bad in ("complete", "complete:a", "gnp:10", "mystery:1", "file", "file:"):
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
