"""Bit-signature colouring of an adversarially ordered stream.

Each node draws s random bits up front.  An edge goes to slice B_i for a
uniform i among the differing signature positions; the colour is the pair of
per-node counters in that slice, tagged by i.  Nothing about the guarantee
depends on the arrival order, so we feed the same graph three ways and watch
the invariants hold while the colour count stays within a small factor of
max_degree^2 / s (the factor shrinks as max_degree/s grows).
"""

import math

from streamcolor import (
    AdversarialSorted,
    AsGiven,
    BipartiteColorer,
    GnpRandom,
    UniformRandomPermutation,
    check_bipartition,
    colour_budget,
    generate,
    run_stream,
    verify,
)

N, P, SEED = 512, 0.1, 7

print(f"sparse random graph: n={N}, edge probability {P}")
for s in (4, 8, 16):
    print(f"\nsignature width s={s}")
    for order, name in [
        (AsGiven(), "as generated"),
        (UniformRandomPermutation(), "random permutation"),
        (AdversarialSorted(), "sorted"),
    ]:
        header, edges = generate(GnpRandom(N, P), order, SEED)
        colorer = BipartiteColorer(N, s, SEED, expose_randomness=True)
        transcript = run_stream(colorer, edges, header)
        report = verify(transcript)
        budget = colour_budget(report, "bipartite", s=s)
        assert report.proper and budget.passed
        assert check_bipartition(transcript, colorer)
        delta = report.max_degree
        print(f"  {name:<20} colours={report.distinct_triple_colours:>5} "
              f"overflow={report.overflow_colours:>3} "
              f"colours/(maxdeg^2/s)={budget.ratio:>5.2f} "
              f"exact bound {budget.bound}")

# the overflow path: signatures too narrow for the vertex count
print("\nnarrow signatures (s=2): identical signatures are common, and every")
print("such edge falls back to a globally unique overflow colour")
header, edges = generate(GnpRandom(N, P), AsGiven(), SEED)
colorer = BipartiteColorer(N, 2, SEED)
report = verify(run_stream(colorer, edges, header))
print(f"  overflow colours: {report.overflow_colours} of {report.records} edges; "
      f"transcript still proper: {report.proper}")

# the default width keeps every pair of signatures far apart
s_default = math.ceil(36 * math.log(N))
colorer = BipartiteColorer(N, s_default, SEED, expose_randomness=True)
worst = min(
    (colorer.signature(u) ^ colorer.signature(v)).bit_count()
    for u in range(0, N, 8)
    for v in range(u + 1, N, 8)
)
print(f"\ndefault width s = ceil(36 ln n) = {s_default}: sampled min differing "
      f"bits {worst} (never below s/4 = {s_default/4:.0f})")
