"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy sweeps (complete graph under the chunk colourer, dense random
graphs under the bipartite colourer) run once in module-scoped fixtures and
feed several criteria.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from graph_enum import EXPECTED_COUNTS, connected_graphs_up_to

from streamcolor import (
    AdjacencyGraph,
    AdversarialSorted,
    AsGiven,
    BipartiteColorer,
    ChunkColorer,
    ChunkConfig,
    CompleteBipartite,
    CompleteGraph,
    GnpRandom,
    RandomRegular,
    Star,
    UniformRandomPermutation,
    check_bipartition,
    chromatic_index_bruteforce,
    color_vizing,
    colour_budget,
    colours_used,
    generate,
    is_k_edge_colourable,
    is_proper,
    recommended_vertex_count,
    run_stream,
    verify,
    worst_case_stream,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: properness across the corpus, both algorithms, all orders.
# ---------------------------------------------------------------------------


def test_criterion_1_properness_universal():
    corpus = [
        CompleteGraph(50),
        CompleteBipartite(30, 30),
        Star(500),
        GnpRandom(1000, 0.01),
        RandomRegular(1000, 3),
    ]
    orders = [
        UniformRandomPermutation(),
        AsGiven(),
        AdversarialSorted(),
    ]
    started = time.perf_counter()
    runs = 0
    conflicts = 0
    for family in corpus:
        for order in orders:
            for seed in range(5):
                header, edges = generate(family, order, seed)
                n = header.n
                for algo in ("chunk", "bipartite"):
                    if algo == "chunk":
                        alpha = max(1, math.ceil(math.log2(n)))
                        colorer = ChunkColorer(ChunkConfig(n=n, alpha=alpha))
                    else:
                        s = max(1, math.ceil(36 * math.log(n)))
                        colorer = BipartiteColorer(n, s, seed)
                    transcript = run_stream(colorer, edges, header)
                    rep = verify(transcript)
                    runs += 1
                    conflicts += len(rep.conflicts)
                    assert rep.proper, (family, order, seed, algo)
                    assert rep.records == len(edges)
    elapsed = time.perf_counter() - started
    ok = conflicts == 0 and elapsed < 60.0
    report("1 properness", ok, f"{runs} runs, {conflicts} conflicts, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criteria 2, 3, 7a: chunk colourer sweep on the complete graph.
# ---------------------------------------------------------------------------

CHUNK_N = 128
CHUNK_ALPHAS = (4, 8, 16)
CHUNK_SEEDS = range(10)


@pytest.fixture(scope="module")
def chunk_sweep():
    results = {alpha: [] for alpha in CHUNK_ALPHAS}
    for alpha in CHUNK_ALPHAS:
        for seed in CHUNK_SEEDS:
            header, edges = generate(
                CompleteGraph(CHUNK_N), UniformRandomPermutation(), seed
            )
            colorer = ChunkColorer(ChunkConfig(n=CHUNK_N, alpha=alpha))
            transcript = run_stream(colorer, edges, header)
            rep = verify(transcript)
            budget = colour_budget(rep, "chunk")
            chunk_stats = [
                st for key, st in rep.per_palette_stats.items() if key[0] == "chunk"
            ]
            num_chunks = len(chunk_stats)
            expected = rep.max_degree / num_chunks
            per_chunk_ratios = [st.max_degree / expected for st in chunk_stats]
            results[alpha].append(
                {
                    "proper": rep.proper,
                    "colours": rep.distinct_colours,
                    "exact_ok": budget.passed,
                    "max_degree": rep.max_degree,
                    "m": rep.records,
                    "capacity": colorer.config.capacity,
                    "peak_buffered": colorer.peak_buffered_edges,
                    "mean_chunk_max_ratio": sum(per_chunk_ratios) / num_chunks,
                }
            )
    return results


def test_criterion_2_chunk_exact_bound_and_trend(chunk_sweep):
    exact_ok = all(r["exact_ok"] and r["proper"] for rs in chunk_sweep.values() for r in rs)
    means = {
        alpha: sum(r["colours"] for r in rs) / len(rs)
        for alpha, rs in chunk_sweep.items()
    }
    nonincreasing = means[4] >= means[8] >= means[16]
    delta = chunk_sweep[16][0]["max_degree"]
    at_16 = means[16] <= 1.6 * delta
    ok = exact_ok and nonincreasing and at_16
    report(
        "2 chunk colour bound",
        ok,
        f"exact bound on all runs: {exact_ok}; mean colours "
        f"{means[4]:.1f} >= {means[8]:.1f} >= {means[16]:.1f}; "
        f"alpha=16 mean {means[16]:.1f} <= 1.6*{delta} = {1.6 * delta:.1f}",
    )
    assert ok


def test_criterion_3_chunk_concentration(chunk_sweep):
    ratios = [r["mean_chunk_max_ratio"] for r in chunk_sweep[16]]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    report(
        "3 chunk concentration",
        ok,
        f"alpha=16 per-run mean of max chunk degree / (max_degree/N): "
        f"min {min(ratios):.3f}, max {max(ratios):.3f} within [0.5, 2.0]",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 4, 5, 7b: bipartite colourer sweep on dense random graphs.
# ---------------------------------------------------------------------------

GNP_N = 2048
GNP_P = 0.05
GNP_SEEDS = range(20)
GNP_WIDTHS = (4, 8, 16)
GNP_FULL_WIDTH = math.ceil(36 * math.log(GNP_N))  # 275


def _min_pairwise_differing_bits(colorer: BipartiteColorer) -> int:
    n, s = colorer.n, colorer.s
    nbytes = (s + 7) // 8
    bits = np.zeros((n, s), dtype=np.float32)
    for u in range(n):
        raw = np.frombuffer(
            colorer.signature(u).to_bytes(nbytes, "little"), dtype=np.uint8
        )
        bits[u] = np.unpackbits(raw, bitorder="little")[:s]
    ones = bits
    zeros = 1.0 - bits
    differing = ones @ zeros.T + zeros @ ones.T
    np.fill_diagonal(differing, s)
    return int(differing.min())


@pytest.fixture(scope="module")
def gnp_sweep():
    per_width = {s: [] for s in (*GNP_WIDTHS, GNP_FULL_WIDTH)}
    min_differing = []
    for seed in GNP_SEEDS:
        header, edges = generate(
            GnpRandom(GNP_N, GNP_P), UniformRandomPermutation(), seed
        )
        for s in (*GNP_WIDTHS, GNP_FULL_WIDTH):
            expose = s == GNP_FULL_WIDTH
            colorer = BipartiteColorer(GNP_N, s, seed, expose_randomness=expose)
            transcript = run_stream(colorer, edges, header)
            rep = verify(transcript)
            budget = colour_budget(rep, "bipartite", s=s)
            per_width[s].append(
                {
                    "proper": rep.proper,
                    "exact_ok": budget.passed,
                    "ratio": budget.ratio,
                    "triples": rep.distinct_triple_colours,
                    "overflow": colorer.overflow_count,
                    "max_degree": rep.max_degree,
                    "bipartite_ok": check_bipartition(transcript, colorer),
                    "peak_words": colorer.meter.peak_words,
                }
            )
            if expose:
                min_differing.append(_min_pairwise_differing_bits(colorer))
    return {"per_width": per_width, "min_differing": min_differing}


def test_criterion_4_exact_bound_every_run(gnp_sweep):
    runs = [r for rs in gnp_sweep["per_width"].values() for r in rs]
    ok = all(r["exact_ok"] and r["proper"] for r in runs)
    report(
        "4 bipartite exact bound",
        ok,
        f"{len(runs)} runs: distinct triples <= s*(max slice degree)^2 on every run",
    )
    assert ok


@pytest.mark.parametrize("s", GNP_WIDTHS)
def test_criterion_4_colour_trend(gnp_sweep, s):
    rows = gnp_sweep["per_width"][s]
    mean_ratio = sum(r["ratio"] for r in rows) / len(rows)
    ok = mean_ratio <= 1.5
    report(
        f"4 bipartite colour trend s={s}",
        ok,
        f"mean colours/(max_degree^2/s) = {mean_ratio:.3f} (threshold 1.5)",
    )
    assert ok, (
        f"mean ratio {mean_ratio:.3f} exceeds 1.5 at s={s}: at this scale the "
        f"counter-pair grid fills well past max_degree^2/s"
    )


def test_criterion_4_overflow_free_at_full_width(gnp_sweep):
    rows = gnp_sweep["per_width"][GNP_FULL_WIDTH]
    total_overflow = sum(r["overflow"] for r in rows)
    ok = total_overflow == 0
    report(
        "4 bipartite overflow",
        ok,
        f"s = ceil(36 ln n) = {GNP_FULL_WIDTH}: {total_overflow} overflow colours "
        f"across {len(rows)} seeds",
    )
    assert ok


def test_criterion_5_bipartiteness_and_differing_bits(gnp_sweep):
    runs = [r for rs in gnp_sweep["per_width"].values() for r in rs]
    bipartite_ok = all(r["bipartite_ok"] for r in runs)
    worst = min(gnp_sweep["min_differing"])
    bits_ok = worst >= GNP_FULL_WIDTH / 4
    ok = bipartite_ok and bits_ok
    report(
        "5 bipartition and differing bits",
        ok,
        f"every slice bipartite by its bit in {len(runs)} runs; min pairwise "
        f"differing bits {worst} >= s/4 = {GNP_FULL_WIDTH / 4:.1f} over "
        f"{len(gnp_sweep['min_differing'])} seeds",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: the adversary forces max_degree^2/(4s) colours.
# ---------------------------------------------------------------------------


def test_criterion_6_worst_case():
    delta, s = 64, 8
    started = time.perf_counter()
    n = recommended_vertex_count(delta, s)
    colorer = BipartiteColorer(n, s, seed=0, expose_randomness=True)
    result = worst_case_stream(colorer, delta)
    elapsed = time.perf_counter() - started
    floor = delta * delta / (4 * s)
    rep = verify(result.transcript)
    degree: dict[int, int] = {}
    for u, v in result.edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    ok = (
        result.distinct_colours >= floor
        and n <= 100_000
        and elapsed < 10.0
        and rep.proper
        and max(degree.values()) <= delta
    )
    report(
        "6 worst case",
        ok,
        f"forced {result.distinct_colours} >= {floor:.0f} colours on {n} vertices "
        f"in {elapsed:.2f}s, stream max degree {max(degree.values())} <= {delta}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: space accounting.
# ---------------------------------------------------------------------------


def test_criterion_7_space_accounting(chunk_sweep, gnp_sweep):
    # chunk: the buffer peaks at exactly C edges whenever the stream is long
    # enough to fill a chunk
    chunk_ok = True
    for alpha, rows in chunk_sweep.items():
        for r in rows:
            if r["m"] >= r["capacity"]:
                chunk_ok = chunk_ok and r["peak_buffered"] == r["capacity"]
            else:
                chunk_ok = chunk_ok and r["peak_buffered"] == r["m"]

    # bipartite worst-case accounting: n signature words + n*s counter words +
    # the overflow serial, charged up front and never exceeded
    bip_ok = True
    for s, rows in gnp_sweep["per_width"].items():
        for r in rows:
            bip_ok = bip_ok and r["peak_words"] == GNP_N * s + GNP_N + 1
    ok = chunk_ok and bip_ok
    report(
        "7 space accounting",
        ok,
        f"chunk peak buffered == capacity on every filling run: {chunk_ok}; "
        f"bipartite peak == n*s + n + 1 on every run: {bip_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: offline colourer against the exhaustive oracle.
# ---------------------------------------------------------------------------


def test_criterion_8_offline_colourer():
    levels = connected_graphs_up_to(8)
    counts = [len(levels[m]) for m in range(1, 9)]
    assert counts == EXPECTED_COUNTS, "enumeration disagrees with the known census"

    checked = 0
    for m, reps in levels.items():
        for n, edges in reps:
            g = AdjacencyGraph.from_edges(n, edges)
            col = color_vizing(g)
            assert is_proper(g, col), edges
            used = colours_used(col)
            assert used <= g.max_degree + 1, edges
            exact = chromatic_index_bruteforce(g)
            assert g.max_degree <= exact <= g.max_degree + 1, edges
            assert used >= exact, edges
            checked += 1

    # K4: optimum 3, within max_degree + 1
    k4 = AdjacencyGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    col = color_vizing(k4)
    assert is_proper(k4, col)
    assert chromatic_index_bruteforce(k4) == 3
    assert 3 <= colours_used(col) <= 4

    # Petersen: 15 edges is beyond the bruteforce contract, but the
    # backtracking oracle certifies no 3-colouring exists, so 4 is optimal
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    g = AdjacencyGraph.from_edges(10, petersen)
    col = color_vizing(g)
    assert is_proper(g, col)
    assert not is_k_edge_colourable(g, 3)
    assert colours_used(col) == 4

    report(
        "8 offline colourer",
        True,
        f"{checked} connected graphs (<= 8 edges) plus K4 and Petersen: proper, "
        f"<= max_degree + 1, never below the exhaustive optimum",
    )
