"""numpy batch kernels behind ``BipartiteColorer.feed_many`` and
``verify``.

Each kernel computes exactly what its scalar twin computes, on integer
columns, and declines what it cannot hold: ``feed_block`` stops before an
edge that ``BipartiteColorer.feed`` must take, and ``verify_columns``
returns None for a transcript that ``verify``'s record-by-record loop must
decide.  This module is the only one that imports numpy at load time;
``feed_many`` and ``verify`` import it on first use, so ``import
streamcolor`` and building a colourer load neither it nor numpy.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .core import ChunkColour, Edge, OverflowColour, TripleColour
from .rng import MASK64
from .verify import PaletteKey, PaletteStats, VerificationReport

if TYPE_CHECKING:
    from .bipartite import BipartiteColorer


def _byte_select_table():
    """``table[b, r]``: position of the r-th set bit of byte b (0 if b has
    fewer than r + 1 set bits)."""
    table = np.zeros((256, 8), dtype=np.uint8)
    for b in range(1, 256):
        for r, pos in enumerate(i for i in range(8) if (b >> i) & 1):
            table[b, r] = pos
    return table


_BYTE_SELECT = _byte_select_table()


def _signature_limbs(colorer: BipartiteColorer):
    """The colourer's signature table as an (n, ceil(s/64)) uint64 array,
    limb j of a row holding bits 64j..64j+63; built once per colourer."""
    if colorer._signature_limbs is None:
        width = -(-colorer.s // 64)
        colorer._signature_limbs = np.array(
            [[(sig >> (64 * j)) & MASK64 for j in range(width)] for sig in colorer._signatures],
            dtype=np.uint64,
        )
    return colorer._signature_limbs


def feed_block(colorer: BipartiteColorer, block: list, start: int, records: list) -> int:
    """Colour the longest run of ``block[start:]`` that needs no scalar
    step, append its announcements to ``records``, and return its length.
    Reads and advances ``colorer``'s counters, index draws, overflow serial
    and meter exactly as ``BipartiteColorer.feed`` would on each edge."""
    if colorer.finished:
        return 0
    n = colorer.n
    stop = start
    for edge in islice(block, start, None):
        if type(edge) is not Edge:
            break
        u, v = edge
        if type(u) is not int or type(v) is not int or u == v:
            break
        if not (0 <= u < n and 0 <= v < n):
            break
        stop += 1
    k = stop - start
    if k == 0:
        return 0

    uv = np.fromiter(chain.from_iterable(block[start:stop]), dtype=np.int64, count=2 * k)
    uv = uv.reshape(k, 2)
    limbs = _signature_limbs(colorer)
    diff = limbs[uv[:, 0]] ^ limbs[uv[:, 1]]
    pop = np.bitwise_count(diff).astype(np.int64)
    total = pop.sum(axis=1)
    drawn = total > 0  # overflow edges draw no word
    count = total[drawn].astype(np.uint64)
    words = colorer._choice.peek_words(len(count))
    # below(count) rejects a word >= 2**64 - (2**64 mod count); the batch
    # stops before the first such edge and feed redraws for it
    spare = (0 - count) % count
    rejected = np.flatnonzero((spare != 0) & (words >= 0 - spare))
    if len(rejected):
        count, words = count[: rejected[0]], words[: rejected[0]]
        k = int(np.flatnonzero(drawn)[rejected[0]])
        uv, diff, pop, drawn = uv[:k], diff[:k], pop[:k], drawn[:k]
    diff, pop = diff[drawn], pop[drawn]
    draws = len(count)

    # the rank-th set bit of diff: its limb, then its byte, then the table
    rank = (words % count).astype(np.int64)
    rows = np.arange(draws)
    cum = np.cumsum(pop, axis=1)
    limb = (cum <= rank[:, None]).sum(axis=1)
    rank -= cum[rows, limb] - pop[rows, limb]
    byte = (diff[rows, limb][:, None] >> np.arange(0, 64, 8, dtype=np.uint64)) & np.uint64(0xFF)
    byte_pop = np.bitwise_count(byte).astype(np.int64)
    cum = np.cumsum(byte_pop, axis=1)
    at = (cum <= rank[:, None]).sum(axis=1)
    rank -= cum[rows, at] - byte_pop[rows, at]
    index = 64 * limb + 8 * at + _BYTE_SELECT[byte[rows, at], rank]

    # left endpoint carries bit index = 0
    u, v = uv[drawn, 0], uv[drawn, 1]
    swap = (limbs[u, limb] >> (index % 64).astype(np.uint64)) & np.uint64(1) == 1
    left, right = np.where(swap, v, u), np.where(swap, u, v)

    # a counter's value is its stored count plus its earlier uses in the
    # interleaved key order left_0, right_0, left_1, right_1, ...
    keys = np.stack([left * colorer.s + index, right * colorer.s + index], axis=1).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.flatnonzero(np.diff(ordered, prepend=-1))  # keys are >= 0
    sizes = np.diff(first, append=len(keys))
    unique = ordered[first].tolist()
    stored = map(colorer._counters.get, unique, repeat(0))
    stored = np.fromiter(stored, dtype=np.int64, count=len(unique))
    value = np.empty_like(keys)
    value[order] = np.arange(len(keys)) - np.repeat(first - stored, sizes)
    colorer._counters.update(zip(unique, (stored + sizes).tolist()))
    if not colorer.strict_meter:
        colorer.meter.charge(int((stored == 0).sum()))
    colorer._choice.skip(draws)

    # tuple.__new__ builds the NamedTuples without a Python-level __new__
    triples = zip(index.tolist(), value[0::2].tolist(), value[1::2].tolist())
    colours = list(map(tuple.__new__, repeat(TripleColour), triples))
    if draws < k:
        serial = colorer._overflow_serial
        triples, overflows = iter(colours), map(OverflowColour, range(serial, serial + k - draws))
        colours = [next(triples) if d else next(overflows) for d in drawn.tolist()]
        colorer._overflow_serial += k - draws
    ends = zip(uv.min(axis=1).tolist(), uv.max(axis=1).tolist())
    records += zip(map(tuple.__new__, repeat(Edge), ends), colours)
    return k


# ---------------------------------------------------------------------------
# verify


_KINDS = {ChunkColour: 0, TripleColour: 1, OverflowColour: 2}


def _dense(key):
    """Rank of each entry of ``key`` among its distinct values (0 for the
    smallest), and the number of distinct values."""
    order = np.argsort(key)
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    new[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, int(rank[order[-1]]) + 1


def _rank(*columns):
    """``_dense`` over the rows of several int64 columns.  Each step packs
    two ranks below the row count into one key, so no key overflows."""
    rank, count = _dense(columns[0])
    for column in columns[1:]:
        sub, sub_count = _dense(column)
        rank, count = _dense(rank * sub_count + sub)
    return rank, count


def verify_columns(records) -> VerificationReport | None:
    """``_verify_scalar``'s report computed on integer columns, or None when
    that loop must decide: an empty transcript, a record that is not two
    plain-int endpoints and a known colour of plain ints, a self-loop, a
    negative vertex, or a conflict."""
    if not records:
        return None
    k = len(records)
    try:
        edges = [edge for edge, _ in records]
        colours = [colour for _, colour in records]
        if set(map(len, edges)) != {2} or not set(map(type, colours)) <= _KINDS.keys():
            return None
        numbers = chain.from_iterable(chain(edges, colours))
        if set(map(type, numbers)) != {int}:
            return None
        uv = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * k).reshape(k, 2)
        kind = np.fromiter(map(_KINDS.__getitem__, map(type, colours)), dtype=np.int64, count=k)
        fields = np.zeros((k, 3), dtype=np.int64)
        for cls, code in _KINDS.items():
            rows = np.flatnonzero(kind == code)
            if len(rows):
                arity = len(cls._fields)
                values = chain.from_iterable(c for c in colours if type(c) is cls)
                fields[rows, :arity] = np.fromiter(
                    values, dtype=np.int64, count=arity * len(rows)
                ).reshape(-1, arity)
    except (TypeError, ValueError, OverflowError):
        return None
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    if lo.min() < 0 or (lo == hi).any():
        return None

    colour, colour_count = _rank(kind, *fields.T)
    vertex, vertex_count = _dense(np.concatenate([lo, hi]))  # lo ends, then hi ends
    end_colour = np.concatenate([colour, colour])
    if _dense(vertex * colour_count + end_colour)[1] < 2 * k:
        return None  # two records share a vertex and a colour
    colour_kind = np.empty(colour_count, dtype=np.int64)
    colour_kind[colour] = kind
    distinct_per_kind = np.bincount(colour_kind, minlength=3).tolist()

    # palettes: (kind, chunk or slice index), one for all overflow colours
    index = np.where(kind == 2, 0, fields[:, 0])
    palette, palette_count = _rank(kind, index)
    first = np.full(palette_count, k, dtype=np.int64)
    np.minimum.at(first, palette, np.arange(k))
    end_palette = np.concatenate([palette, palette])
    incidence, incidence_count = _dense(end_palette * vertex_count + vertex)
    incidence_palette = np.empty(incidence_count, dtype=np.int64)
    incidence_palette[incidence] = end_palette
    max_degree = np.zeros(palette_count, dtype=np.int64)
    np.maximum.at(max_degree, incidence_palette, np.bincount(incidence))
    # highest local colour (chunk), highest left and right counter (triple)
    highest = np.full((palette_count, 3), -1, dtype=np.int64)
    for code, source, target in ((0, 1, 0), (1, 1, 1), (1, 2, 2)):
        rows = kind == code
        np.maximum.at(highest[:, target], palette[rows], fields[rows, source])

    edge_count = np.bincount(palette, minlength=palette_count).tolist()
    max_degree, highest = max_degree.tolist(), highest.tolist()
    labels = ("chunk", "triple")
    palettes: dict[PaletteKey, PaletteStats] = {}
    for p in np.argsort(first).tolist():
        row = int(first[p])
        code = int(kind[row])
        key = (labels[code], int(index[row])) if code < 2 else ("overflow",)
        local, left, right = highest[p]
        palettes[key] = PaletteStats(
            edge_count=edge_count[p],
            max_degree=max_degree[p],
            max_local=local,
            # the counters increment past the announced value
            max_left=left + 1,
            max_right=right + 1,
        )

    return VerificationReport(
        proper=True,
        conflicts=[],
        distinct_colours=colour_count,
        overflow_colours=distinct_per_kind[2],
        max_degree=int(np.bincount(vertex).max()),
        per_palette_stats=palettes,
        distinct_triple_colours=distinct_per_kind[1],
        distinct_chunk_colours=distinct_per_kind[0],
        duplicate_edges=k - _dense(vertex[:k] * vertex_count + vertex[k:])[1],
        records=k,
    )
