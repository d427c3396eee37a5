"""Deterministic 64-bit generator used wherever bit-exact replay matters.

The bipartite colourer's node signatures and per-edge index draws must be
reproducible from a single 64-bit seed, independently of the host's
``random`` module internals.  This is the SplitMix64 sequence: state advances
by the odd constant 0x9E3779B97F4A7C15, and each output word is finalised by

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """One SplitMix64 finalisation round of ``x`` (mod 2**64)."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 word stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def peek_words(self, k: int):
        """The next ``k`` words as a numpy uint64 array, without drawing
        them; ``skip(k)`` draws them.  numpy is imported here, on first use."""
        import numpy as np

        steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = steps + np.uint64(self._state)  # uint64 arrays wrap mod 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def skip(self, k: int) -> None:
        """Draw ``k`` words without computing them."""
        self._state = (self._state + k * _GAMMA) & MASK64

    def bits(self, k: int) -> int:
        """A k-bit integer; bit 0 is the least significant bit of the first
        word drawn, bit 64 the least significant bit of the second, and so on."""
        if k < 0:
            raise ValueError(f"bit count must be non-negative, got {k}")
        value = 0
        for chunk in range(0, k, 64):
            value |= self.next_word() << chunk
        return value & ((1 << k) - 1)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (MASK64 + 1) - (MASK64 + 1) % bound
        while True:
            w = self.next_word()
            if w < limit:
                return w % bound
