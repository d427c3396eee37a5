"""Chunk-buffered colouring of a random-order stream.

The colourer buffers alpha^2 * n edges at a time and colours each chunk
offline under a fresh palette.  Under a uniformly random arrival order every
vertex's degree splits evenly across the N chunks, so the total colour count
lands near max_degree * (1 + 1/sqrt(alpha)).  Larger alpha buys fewer
palettes with bigger buffers; the buffer column shows the price, and the
greedy baseline at the end shows why buffering is worth it: greedy announces
instantly but must remember a colour set for every vertex forever.
"""

from streamcolor import (
    ChunkColorer,
    ChunkConfig,
    CompleteGraph,
    GreedyStreamColorer,
    UniformRandomPermutation,
    chunk_concentration,
    colour_budget,
    generate,
    run_stream,
    verify,
)

N = 128
SEEDS = range(5)

print(f"complete graph on {N} vertices, uniformly random edge order")
print(f"{'alpha':>5} {'chunks':>6} {'colours':>8} {'colours/maxdeg':>14} "
      f"{'max d_i(u)/(d(u)*|chunk_i|/m)':>30} {'peak buffered':>13}")

for alpha in (2, 4, 8, 16):
    colours = []
    ratios = []
    peaks = []
    chunks = 0
    for seed in SEEDS:
        header, edges = generate(CompleteGraph(N), UniformRandomPermutation(), seed)
        colorer = ChunkColorer(ChunkConfig(n=N, alpha=alpha))
        transcript = run_stream(colorer, edges, header)
        report = verify(transcript)
        assert report.proper and colour_budget(report, "chunk").passed
        conc = chunk_concentration(transcript)
        colours.append(report.distinct_colours)
        ratios.append(conc.max_ratio)
        peaks.append(colorer.peak_buffered_edges)
        chunks = conc.num_chunks
    mean_colours = sum(colours) / len(colours)
    delta = N - 1
    # over one chunk every ratio is 1 by construction, so nothing is measured
    ratio = f"{sum(ratios)/len(ratios):.3f}" if chunks >= 2 else "n/a"
    print(f"{alpha:>5} {chunks:>6} {mean_colours:>8.1f} {mean_colours/delta:>14.3f} "
          f"{ratio:>30} {max(peaks):>13}")

print()
header, edges = generate(CompleteGraph(N), UniformRandomPermutation(), 0)
baseline = GreedyStreamColorer(N)
report = verify(run_stream(baseline, edges, header))
print(f"greedy baseline: {report.distinct_colours} colours here "
      f"(worst-case bound 2*maxdeg-1 = {2*(N-1)-1}) but "
      f"{baseline.meter.peak_words} peak words of live state, "
      f"two per edge, forever")
