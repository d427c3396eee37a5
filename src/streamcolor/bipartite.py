"""Bit-signature streaming colourer for adversarial-order streams.

Every node draws s random bits at initialisation.  An edge (u, v) is routed
to the bipartite slice B_i for an index i drawn uniformly from the positions
where the two signatures differ; within B_i the node whose bit i is 0 is the
left endpoint.  The announced colour is (i, left counter, right counter) and
both counters then increment, so no counter value is ever reused at a node:
the transcript is proper for every arrival order.

If two signatures are identical there is no differing index; such edges get
globally unique overflow colours instead of crashing.  At the default
signature width (36 ln n bits) identical signatures essentially never occur.

``feed`` colours one edge; ``feed_many`` hands each run of checked edges,
smaller endpoint first, to ``batch.feed_block``, which colours it with numpy
into transcript columns and announces exactly what ``feed`` would, up to an
edge whose index draw only ``feed`` makes.  ``feed`` stays the reference the
batch path is tested against.  The counters are one int64 array of n*s
words, the n*s the meter charges: ``feed`` indexes it, ``feed_block``
gathers and scatters through a numpy view of it.
"""

from __future__ import annotations

from array import array

from .core import (
    ColourId,
    ConfigurationError,
    Edge,
    OverflowColour,
    StreamColorer,
    Transcript,
    TripleColour,
    ValidationError,
)
from .rng import MASK64, SplitMix64


def _select_bit(word: int, rank: int) -> int:
    """Position of the rank-th set bit of ``word`` (rank 0 = lowest)."""
    offset = 0
    while True:
        limb = word & MASK64
        pop = limb.bit_count()
        if rank < pop:
            for _ in range(rank):
                limb &= limb - 1
            return offset + (limb & -limb).bit_length() - 1
        rank -= pop
        word >>= 64
        offset += 64


class BipartiteColorer(StreamColorer):
    """Sequential state machine; announcements are immediate, one per edge.

    The meter charges the worst-case n*s counter words up front, which is the
    accounting the space-bound analysis assumes.

    ``expose_randomness`` grants readers (the worst-case stream construction)
    access to the signature table via :meth:`signature`.
    """

    def __init__(
        self,
        n: int,
        s: int,
        seed: int,
        expose_randomness: bool = False,
    ):
        super().__init__(n)
        if s < 1:
            raise ValidationError(f"signature width must be >= 1, got {s}")
        self.s = s
        self._exposed = expose_randomness

        stream = SplitMix64(seed)
        self._signatures = [stream.bits(s) for _ in range(n)]
        self._choice = stream  # continues the same word sequence
        self._counters = array("q", [0]) * (n * s)  # u*s + i -> uses of i at u
        self._overflow_serial = 0
        self._signature_limbs = None  # (n, ceil(s/64)) uint64, built by the batch kernels

        # one signature word per node, the overflow serial, n*s counters
        self.meter.charge(n + 1 + n * s)

    def signature(self, u: int) -> int:
        """Read node u's signature bits.  Requires expose_randomness."""
        if not self._exposed:
            raise ConfigurationError(
                "signature access requires expose_randomness=True"
            )
        if not (0 <= u < self.n):
            raise ValidationError(f"vertex {u} out of range for n={self.n}")
        return self._signatures[u]

    def _take(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        u, v = edge
        diff = self._signatures[u] ^ self._signatures[v]
        count = diff.bit_count()
        if count == 0:
            colour: ColourId = OverflowColour(self._overflow_serial)
            self._overflow_serial += 1
            return [(edge, colour)]
        i = _select_bit(diff, self._choice.below(count))
        if (self._signatures[u] >> i) & 1:
            u, v = v, u  # left endpoint carries bit i = 0
        ku = u * self.s + i
        kv = v * self.s + i
        cu = self._counters[ku]
        cv = self._counters[kv]
        self._counters[ku] = cu + 1
        self._counters[kv] = cv + 1
        return [(edge, TripleColour(i, cu, cv))]

    def _take_run(self, run: list, out: Transcript) -> None:
        from .batch import feed_block  # numpy and the kernel load on first use

        while run:
            taken = feed_block(self, run, out)
            if taken < len(run):  # below rejects this edge's draw: feed redraws
                out.extend(self.feed(run[taken]))
            run = run[taken + 1:]

    @property
    def overflow_count(self) -> int:
        return self._overflow_serial

    def bit(self, u: int, i: int) -> int:
        """Bit i of node u's signature; defines its side in slice i."""
        if not (0 <= u < self.n):
            raise ValidationError(f"vertex {u} out of range for n={self.n}")
        if not (0 <= i < self.s):
            raise ValidationError(f"index {i} out of range for s={self.s}")
        return (self._signatures[u] >> i) & 1
