"""Reproducible edge streams: graph families and arrival-order policies.

Every stream is a deterministic function of (family, order, seed).  A family
checks its parameters when built and never emits a repeated edge or a self-loop;
``FromFile`` streams its file as ``read_edge_list`` checked it, repeats included.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import isqrt
from typing import Union

from .core import Edge, StreamHeader, ValidationError, read_edge_list
from .rng import mix64


@dataclass(frozen=True)
class CompleteGraph:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"complete graph needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class CompleteBipartite:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValidationError(f"bipartite sides must be >= 1, got {self.a},{self.b}")


@dataclass(frozen=True)
class Star:
    t: int  # leaf count; centre is vertex 0

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError(f"star needs >= 1 leaf, got {self.t}")


@dataclass(frozen=True)
class GnpRandom:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 1 or not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"gnp needs n >= 1 and p in [0,1], got n={self.n} p={self.p}")


@dataclass(frozen=True)
class RandomRegular:
    n: int
    d: int

    def __post_init__(self):
        n, d = self.n, self.d
        if not (0 <= d < n) or n * d % 2:
            raise ValidationError(f"regular graph needs 0 <= d < n and n*d even, got n={n} d={d}")


@dataclass(frozen=True)
class FromFile:
    path: str


GraphFamily = Union[CompleteGraph, CompleteBipartite, Star, GnpRandom, RandomRegular, FromFile]


@dataclass(frozen=True)
class AsGiven:
    pass


@dataclass(frozen=True)
class UniformRandomPermutation:
    seed: int | None = None  # falls back to the stream seed


@dataclass(frozen=True)
class AdversarialSorted:
    """Canonical edges in lexicographic order, so each vertex's edges to
    higher vertices arrive together."""


ArrivalOrder = Union[AsGiven, UniformRandomPermutation, AdversarialSorted]


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


def _random_regular_edges(n: int, d: int, rng: random.Random) -> list[Edge]:
    # pairing model: shuffle d stubs per vertex, retry until the pairing is
    # simple; acceptance odds are good for the small d this package targets
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(10_000):
        rng.shuffle(stubs)
        edges = []
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = Edge(u, v) if u < v else Edge(v, u)
            if e in seen:
                ok = False
                break
            seen.add(e)
            edges.append(e)
        if ok:
            return edges
    raise ValidationError(
        f"could not realise a simple {d}-regular graph on {n} vertices; "
        "density too high for the pairing model"
    )


def _family_edges(family: GraphFamily, rng: random.Random) -> tuple[int, list[Edge]]:
    """Vertex count and edge list in the family's natural order."""
    if isinstance(family, CompleteGraph):
        n = family.n
        return n, [Edge(u, v) for u in range(n) for v in range(u + 1, n)]
    if isinstance(family, CompleteBipartite):
        a, b = family.a, family.b
        return a + b, [Edge(u, a + w) for u in range(a) for w in range(b)]
    if isinstance(family, Star):
        return family.t + 1, [Edge(0, leaf) for leaf in range(1, family.t + 1)]
    if isinstance(family, GnpRandom):
        return family.n, _gnp_edges(family.n, family.p, rng)
    if isinstance(family, RandomRegular):
        return family.n, _random_regular_edges(family.n, family.d, rng)
    if isinstance(family, FromFile):
        header, edges = read_edge_list(family.path)
        return header.n, edges
    raise ValidationError(f"unknown family {family!r}")


def _apply_order(edges: list[Edge], order: ArrivalOrder, seed: int) -> list[Edge]:
    if isinstance(order, AsGiven):
        return list(edges)
    if isinstance(order, UniformRandomPermutation):
        if order.seed is not None:
            shuffle_seed = order.seed
        else:
            # decouple the permutation stream from the family-sampling stream
            shuffle_seed = mix64(seed ^ 0x5DEECE66D)
        out = list(edges)
        random.Random(shuffle_seed).shuffle(out)
        return out
    if isinstance(order, AdversarialSorted):
        return sorted(Edge(u, v) if u < v else Edge(v, u) for u, v in edges)
    raise ValidationError(f"unknown arrival order {order!r}")


def generate(
    family: GraphFamily, order: ArrivalOrder, seed: int
) -> tuple[StreamHeader, list[Edge]]:
    """Produce one stream: each family edge exactly once, in the order the
    policy dictates, deterministic in ``seed``."""
    rng = random.Random(seed)
    n, edges = _family_edges(family, rng)
    ordered = _apply_order(edges, order, seed)
    return StreamHeader(n=n, m=len(ordered), seed=seed), ordered


_FAMILY_SPECS = {
    "complete": (CompleteGraph, (int,)),
    "bipartite": (CompleteBipartite, (int, int)),
    "star": (Star, (int,)),
    "gnp": (GnpRandom, (int, float)),
    "regular": (RandomRegular, (int, int)),
    "file": (FromFile, (str,)),
}


def parse_family(text: str) -> GraphFamily:
    """Parse CLI syntax like ``complete:50``, ``gnp:1000:0.01``, ``file:g.el``."""
    name, _, rest = text.partition(":")
    if name not in _FAMILY_SPECS:
        raise ValidationError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILY_SPECS)}"
        )
    cls, arg_types = _FAMILY_SPECS[name]
    raw_args = rest.split(":") if rest else []
    if len(raw_args) != len(arg_types):
        raise ValidationError(f"family {name} takes {len(arg_types)} parameters")
    try:
        args = [t(a) for t, a in zip(arg_types, raw_args)]
    except ValueError:
        raise ValidationError(f"bad parameters for family {text!r}")
    return cls(*args)


def parse_order(text: str) -> ArrivalOrder:
    """Parse CLI syntax: ``as-given``, ``random``, ``random:SEED``,
    ``sorted``."""
    name, _, rest = text.partition(":")
    if name == "random":
        try:
            return UniformRandomPermutation(int(rest) if rest else None)
        except ValueError:
            raise ValidationError(f"bad permutation seed in {text!r}") from None
    if text == "as-given":
        return AsGiven()
    if text == "sorted":
        return AdversarialSorted()
    raise ValidationError(f"unknown arrival order {text!r}")


def default_alpha(n: int) -> int:
    """Chunk scale parameter matching the random-order colourer's intended
    regime: ceil(log2 n), at least 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def default_signature_bits(n: int) -> int:
    """Signature width for the adversarial-order colourer: ceil(36 ln n),
    at least 1."""
    return max(1, math.ceil(36 * math.log(n))) if n > 1 else 1
