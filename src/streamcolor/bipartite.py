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

``feed`` colours one edge; ``feed_many`` colours a whole stream with numpy,
a block at a time, and announces exactly what ``feed`` would.  ``feed``
stays the reference the batch path is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from .core import (
    ColourId,
    ConfigurationError,
    ContractViolation,
    Edge,
    OverflowColour,
    SpaceMeter,
    TripleColour,
    ValidationError,
    canonicalize,
    validate_endpoints,
)
from .rng import MASK64, SplitMix64

_BLOCK = 8192  # edges per numpy block in feed_many; bounds its temporaries


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


class BipartiteColorer:
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
        if n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {n}")
        if s < 1:
            raise ValidationError(f"signature width must be >= 1, got {s}")
        self.n = n
        self.s = s
        self._exposed = expose_randomness
        self.meter = SpaceMeter()

        stream = SplitMix64(seed)
        self._signatures = [stream.bits(s) for _ in range(n)]
        self._choice = stream  # continues the same word sequence
        self._counters: dict[int, int] = {}  # key u*s + i
        self._overflow_serial = 0
        self._signature_limbs = None  # (n, ceil(s/64)) uint64, built by batch.feed_block
        self.finished = False

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

    def differing_indices(self, u: int, v: int) -> list[int]:
        """All positions where u's and v's signatures differ.  Requires
        expose_randomness."""
        if not self._exposed:
            raise ConfigurationError(
                "signature access requires expose_randomness=True"
            )
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValidationError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        diff = self._signatures[u] ^ self._signatures[v]
        return [i for i in range(self.s) if (diff >> i) & 1]

    def feed(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        if self.finished:
            raise ContractViolation("feed after finish")
        validate_endpoints(edge, self.n)
        u, v = edge
        if u == v:
            raise ValidationError(f"self-loop ({u},{v}) is not a valid edge")
        diff = self._signatures[u] ^ self._signatures[v]
        count = diff.bit_count()
        if count == 0:
            colour: ColourId = OverflowColour(self._overflow_serial)
            self._overflow_serial += 1
            return [(canonicalize(edge), colour)]
        i = _select_bit(diff, self._choice.below(count))
        if (self._signatures[u] >> i) & 1:
            u, v = v, u  # left endpoint carries bit i = 0
        ku = u * self.s + i
        kv = v * self.s + i
        cu = self._counters.get(ku, 0)
        cv = self._counters.get(kv, 0)
        self._counters[ku] = cu + 1
        self._counters[kv] = cv + 1
        return [(canonicalize(edge), TripleColour(i, cu, cv))]

    def feed_many(self, edges: Iterable[Edge]) -> list[tuple[Edge, ColourId]]:
        """Feed ``edges`` in order: the announcements, counters, draws and
        overflow serials are those of calling :meth:`feed` on each edge,
        computed with numpy a block at a time.  An edge the batch cannot take
        (an invalid one, or one whose index draw ``below`` would reject) goes
        to :meth:`feed`, so its errors are feed's too."""
        from .batch import feed_block  # numpy and the kernel load on first use

        records: list[tuple[Edge, ColourId]] = []
        stream = iter(edges)
        while block := list(islice(stream, _BLOCK)):
            start = 0
            while start < len(block):
                start += feed_block(self, block, start, records)
                if start < len(block):
                    records += self.feed(block[start])
                    start += 1
        return records

    def finish(self) -> list[tuple[Edge, ColourId]]:
        if self.finished:
            raise ContractViolation("finish called twice")
        self.finished = True
        return []

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
