import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import (
    BipartiteColorer,
    ConfigurationError,
    TripleColour,
    recommended_vertex_count,
    verify,
    worst_case_stream,
)
from streamcolor.adversary import _VertexPool


def drive(delta, s, seed, n=None):
    n = n if n is not None else recommended_vertex_count(delta, s)
    colorer = BipartiteColorer(n, s, seed, expose_randomness=True)
    return worst_case_stream(colorer, delta), n


class TestGuarantees:
    def test_delta_equal_s_forces_one_colour_per_slice(self):
        result, _ = drive(delta=6, s=6, seed=0)
        assert result.distinct_colours >= 6
        indices = {c.index for _, c in result.transcript.records}
        assert indices == set(range(6))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forces_quarter_delta_squared_over_s(self, seed):
        result, _ = drive(delta=64, s=8, seed=seed)
        assert result.distinct_colours >= 64 * 64 / (4 * 8)

    def test_small_scale_oracle(self):
        result, _ = drive(delta=16, s=4, seed=0)
        assert result.distinct_colours >= 16

    def test_grid_colours_all_present(self):
        result, _ = drive(delta=64, s=8, seed=3)
        colours = {c for _, c in result.transcript.records}
        t = result.grid_side
        for i in range(8):
            for x in range(t):
                for y in range(t):
                    assert TripleColour(i, x, y) in colours


class TestStreamDiscipline:
    def test_no_duplicate_edges(self):
        result, _ = drive(delta=32, s=4, seed=1)
        canon = [tuple(sorted(e)) for e in result.edges]
        assert len(set(canon)) == len(canon)

    def test_degree_budget_respected(self):
        result, _ = drive(delta=32, s=4, seed=2)
        degree = {}
        for u, v in result.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values()) <= 32

    def test_transcript_is_proper(self):
        result, _ = drive(delta=64, s=8, seed=4)
        assert verify(result.transcript).proper

    def test_deterministic_given_colorer_seed(self):
        a, _ = drive(delta=24, s=4, seed=11)
        b, _ = drive(delta=24, s=4, seed=11)
        assert a.edges == b.edges
        assert a.transcript.records == b.transcript.records

    def test_transcript_matches_stream(self):
        result, _ = drive(delta=24, s=4, seed=5)
        assert [e for e, _ in result.transcript.records] == result.edges


class TestFallbackPath:
    def test_wide_signatures_without_class_pairs(self):
        # s far above log2(n): no two vertices share a signature, so every
        # connection relies on the observe-and-retry device
        result, n = drive(delta=16, s=48, seed=0, n=3000)
        report = verify(result.transcript)
        assert report.proper
        assert result.distinct_colours >= 16 * 16 / (4 * 48)
        degree = {}
        for u, v in result.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values()) <= 16

    def test_counter_repair_at_grid_side_two(self):
        # no class pair of width 16 holds two vertices on each side at
        # n = 6000, so the t = 2 grids are kept by repairing missed edges,
        # one of the repairs abandoning a vertex that ran out of headroom
        result, _ = drive(delta=34, s=16, seed=0, n=6000)
        assert result.grid_side == 2
        assert verify(result.transcript).proper
        assert result.distinct_colours >= 16 * 2 * 2
        degree = {}
        for u, v in result.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values()) <= 34


class TestPreconditions:
    def test_unexposed_colorer_is_a_configuration_error(self):
        colorer = BipartiteColorer(256, 4, 0)
        with pytest.raises(ConfigurationError):
            worst_case_stream(colorer, 16)

    def test_too_few_vertices_rejected(self):
        from streamcolor import ValidationError

        colorer = BipartiteColorer(4, 8, 0, expose_randomness=True)
        with pytest.raises(ValidationError):
            worst_case_stream(colorer, 64)

    def test_recommended_vertex_count_is_bounded(self):
        assert recommended_vertex_count(64, 8) <= 100_000
        assert recommended_vertex_count(64, 300) <= 100_000
        assert recommended_vertex_count(8, 8) >= 2 * 8 + 2


class _Signatures:
    """Stands in for an exposed colourer: a vertex count and a signature each."""

    def __init__(self, signatures):
        self.n = len(signatures)
        self.signature = signatures.__getitem__


def _scan_every_class(classes, i, t):
    """The clean pair found by scanning every class: the deepest supply of
    at least t, the first in pool order on a tie."""
    best, best_score = None, t - 1
    for sig, bucket in classes.items():
        partner = classes.get(sig ^ (1 << i))
        if (sig >> i) & 1 or partner is None:
            continue
        score = min(len(bucket), len(partner))
        if score > best_score:
            best, best_score = (sig, sig ^ (1 << i)), score
    return best


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_clean_pair_matches_a_scan_of_every_class(data):
    bits = data.draw(st.integers(1, 4))
    signatures = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=60))
    t = data.draw(st.integers(1, 4))
    pool = _VertexPool(_Signatures(signatures), t)
    for _ in range(data.draw(st.integers(0, len(signatures) - 1))):
        for i in range(bits):
            assert pool.clean_pair(i) == _scan_every_class(pool.classes, i, t)
        pool.take(data.draw(st.sampled_from(list(pool.classes))))
    for i in range(bits):
        assert pool.clean_pair(i) == _scan_every_class(pool.classes, i, t)
