import math
import random

import pytest

from streamcolor import (
    BipartiteColorer,
    ConfigurationError,
    ContractViolation,
    Edge,
    GnpRandom,
    OverflowColour,
    TripleColour,
    UniformRandomPermutation,
    ValidationError,
    check_bipartition,
    colour_budget,
    generate,
    run_stream,
    verify,
)


def find_seed_with_signatures(n, s, predicate, start=0):
    """Scan seeds until the signature table satisfies ``predicate``."""
    for seed in range(start, start + 10_000):
        colorer = BipartiteColorer(n, s, seed, expose_randomness=True)
        sigs = [colorer.signature(u) for u in range(n)]
        if predicate(sigs):
            return seed
    raise AssertionError("no matching seed found")


class TestInitialisation:
    def test_single_differing_bit(self):
        seed = find_seed_with_signatures(2, 1, lambda s: s[0] != s[1])
        colorer = BipartiteColorer(2, 1, seed, expose_randomness=True)
        assert colorer.signature(0) ^ colorer.signature(1) == 0b1

    def test_equal_signatures_have_empty_differing_set(self):
        seed = find_seed_with_signatures(2, 2, lambda s: s[0] == s[1])
        colorer = BipartiteColorer(2, 2, seed, expose_randomness=True)
        assert colorer.signature(0) ^ colorer.signature(1) == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            BipartiteColorer(0, 4, 0)
        with pytest.raises(ValidationError):
            BipartiteColorer(4, 0, 0)

    def test_signatures_deterministic_in_seed(self):
        a = BipartiteColorer(50, 16, 7, expose_randomness=True)
        b = BipartiteColorer(50, 16, 7, expose_randomness=True)
        c = BipartiteColorer(50, 16, 8, expose_randomness=True)
        sa = [a.signature(u) for u in range(50)]
        assert sa == [b.signature(u) for u in range(50)]
        assert sa != [c.signature(u) for u in range(50)]

    def test_worst_case_meter_identity(self):
        n, s = 37, 5
        colorer = BipartiteColorer(n, s, 0)
        assert colorer.meter.peak_words == n * s + n + 1


class TestRandomnessGate:
    def test_signature_access_requires_exposure(self):
        colorer = BipartiteColorer(4, 4, 0)
        with pytest.raises(ConfigurationError):
            colorer.signature(0)

    def test_exposed_colorer_serves_reads(self):
        colorer = BipartiteColorer(4, 4, 0, expose_randomness=True)
        assert 0 <= colorer.signature(0) < 16


class TestColourEdges:
    def test_first_edge_uses_zero_counters(self):
        seed = find_seed_with_signatures(2, 4, lambda s: s[0] != s[1])
        colorer = BipartiteColorer(2, 4, seed)
        [(edge, colour)] = colorer.feed(Edge(0, 1))
        assert edge == Edge(0, 1)
        assert isinstance(colour, TripleColour)
        assert (colour.left, colour.right) == (0, 0)

    def test_repeat_edge_advances_both_counters(self):
        # one differing index forces both copies into the same slice
        seed = find_seed_with_signatures(
            2, 4, lambda s: (s[0] ^ s[1]).bit_count() == 1
        )
        colorer = BipartiteColorer(2, 4, seed)
        [(_, first)] = colorer.feed(Edge(0, 1))
        [(_, second)] = colorer.feed(Edge(1, 0))
        assert first.index == second.index
        assert (first.left, first.right) == (0, 0)
        assert (second.left, second.right) == (1, 1)

    def test_left_endpoint_has_bit_zero(self):
        colorer = BipartiteColorer(30, 8, 11)
        header, edges = generate(GnpRandom(30, 0.3), UniformRandomPermutation(), 5)
        transcript = run_stream(colorer, edges, header)
        for edge, colour in transcript.records:
            if isinstance(colour, TripleColour):
                assert colorer.bit(edge.u, colour.index) != colorer.bit(edge.v, colour.index)
        assert check_bipartition(transcript, colorer)

    def test_star_counters_walk_up(self):
        # all leaves differing from the centre only at bit 0: the slice is
        # forced, and the centre's coordinate enumerates 0..t-1
        n, s = 5, 2

        def pred(sigs):
            return all(sigs[leaf] == sigs[0] ^ 1 for leaf in range(1, n))

        seed = find_seed_with_signatures(n, s, pred)
        colorer = BipartiteColorer(n, s, seed)
        colours = []
        for leaf in range(1, n):
            [(_, col)] = colorer.feed(Edge(0, leaf))
            colours.append(col)
        assert len({c.index for c in colours}) == 1
        centre_is_left = colours[0].right == 0 and colours[0].left == 0 and colours[1].left == 1
        centre_coords = [c.left if centre_is_left else c.right for c in colours]
        leaf_coords = [c.right if centre_is_left else c.left for c in colours]
        assert centre_coords == list(range(n - 1))
        assert leaf_coords == [0] * (n - 1)
        assert len(set(colours)) == n - 1

    def test_overflow_on_identical_signatures(self):
        seed = find_seed_with_signatures(2, 2, lambda s: s[0] == s[1])
        colorer = BipartiteColorer(2, 2, seed)
        [(_, colour)] = colorer.feed(Edge(0, 1))
        assert colour == OverflowColour(0)
        assert colorer.overflow_count == 1

    def test_out_of_range_and_self_loop(self):
        colorer = BipartiteColorer(4, 4, 0)
        with pytest.raises(ValidationError):
            colorer.feed(Edge(0, 4))
        with pytest.raises(ValidationError):
            colorer.feed(Edge(2, 2))

    def test_feed_after_finish(self):
        colorer = BipartiteColorer(4, 4, 0)
        assert colorer.finish() == []
        with pytest.raises(ContractViolation):
            colorer.feed(Edge(0, 1))
        with pytest.raises(ContractViolation):
            colorer.finish()


def run_gnp(n, p, s, seed, order_seed=0):
    header, edges = generate(GnpRandom(n, p), UniformRandomPermutation(order_seed), seed)
    colorer = BipartiteColorer(n, s, seed)
    transcript = run_stream(colorer, edges, header)
    return colorer, transcript, edges


class TestStreamInvariants:
    def test_proper_on_k16_any_seed(self):
        from streamcolor import CompleteGraph

        for seed in range(5):
            header, edges = generate(CompleteGraph(16), UniformRandomPermutation(), seed)
            colorer = BipartiteColorer(16, 4, seed)
            transcript = run_stream(colorer, edges, header)
            assert verify(transcript).proper

    def test_properness_decomposition(self):
        colorer, transcript, _ = run_gnp(64, 0.3, 6, 3)
        by_slice: dict[int, list] = {}
        for edge, colour in transcript.records:
            if isinstance(colour, TripleColour):
                by_slice.setdefault(colour.index, []).append((edge, colour))
        # (a) palettes split on the first coordinate by construction;
        # (b) within a slice, a left node never repeats a left coordinate
        # (c) nor a right node a right coordinate;
        # (d) overflow colours are globally unique (none expected here)
        for i, records in by_slice.items():
            left_seen = set()
            right_seen = set()
            for edge, colour in records:
                u, v = edge
                if colorer.bit(u, i) == 1:
                    u, v = v, u
                assert (u, colour.left) not in left_seen
                assert (v, colour.right) not in right_seen
                left_seen.add((u, colour.left))
                right_seen.add((v, colour.right))

    def test_counter_bound_and_budget(self):
        colorer, transcript, _ = run_gnp(128, 0.2, 8, 1)
        report = verify(transcript)
        assert report.proper
        budget = colour_budget(report, "bipartite", s=8)
        assert budget.passed
        # counter values never exceed the degree of their slice
        for key, stats in report.per_palette_stats.items():
            if key[0] == "triple":
                assert stats.max_left <= stats.max_degree
                assert stats.max_right <= stats.max_degree
                assert stats.max_degree <= report.max_degree

    def test_order_independence_of_invariants(self):
        from streamcolor import AsGiven

        n, s, seed = 48, 5, 9
        header, edges = generate(GnpRandom(n, 0.3), AsGiven(), seed)
        orders = [
            edges,
            sorted(edges),
            list(reversed(edges)),
        ]
        colour_sets = []
        for stream in orders:
            colorer = BipartiteColorer(n, s, seed)
            transcript = run_stream(colorer, stream, header)
            report = verify(transcript)
            assert report.proper
            assert colour_budget(report, "bipartite", s=s).passed
            assert check_bipartition(transcript, colorer)
            colour_sets.append({c for _, c in transcript.records})
        # the colours themselves may differ between orders; the guarantees
        # may not
        assert sorted(len(cs) for cs in colour_sets)

    def test_transcript_multiset_preserved(self):
        from streamcolor import canonicalize

        _, transcript, edges = run_gnp(40, 0.2, 6, 2)
        assert sorted(e for e, _ in transcript.records) == sorted(
            canonicalize(e) for e in edges
        )


class TestSliceDegreeSpread:
    def test_slice_max_degrees_track_their_share(self):
        # direct measurement over 20 seeds on G(512, 0.1) at s=16: slice max
        # degrees sit between 1 and 3.1 times max_degree/s (the spread
        # narrows only as max_degree/s grows), and never exceed max_degree
        worst_ratio = 0.0
        for seed in range(20):
            header, edges = generate(GnpRandom(512, 0.1), UniformRandomPermutation(), seed)
            colorer = BipartiteColorer(512, 16, seed)
            rep = verify(run_stream(colorer, edges, header))
            share = rep.max_degree / 16
            for key, stats in rep.per_palette_stats.items():
                if key[0] != "triple":
                    continue
                assert 1 <= stats.max_degree <= rep.max_degree
                worst_ratio = max(worst_ratio, stats.max_degree / share)
        assert worst_ratio <= 3.2


class TestDifferingBitsRegime:
    def test_no_pair_below_quarter_s_at_default_width(self):
        # at s = ceil(36 ln n), every pair differs in at least s/4 positions
        n = 1024
        s = math.ceil(36 * math.log(n))
        for seed in range(3):
            colorer = BipartiteColorer(n, s, seed, expose_randomness=True)
            sigs = [colorer.signature(u) for u in range(n)]
            sample = random.Random(seed).sample(range(n), 80)
            worst = min(
                (sigs[u] ^ sigs[v]).bit_count()
                for i, u in enumerate(sample)
                for v in sample[i + 1 :]
            )
            assert worst >= s / 4
