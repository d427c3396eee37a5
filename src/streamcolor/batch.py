"""numpy batch kernels behind ``BipartiteColorer._take_run``, ``verify``,
``check_bipartition``, ``chunk_concentration``, ``streamcolor verify``'s
edge check and the two file readers.

Each kernel computes exactly what its scalar twin computes, on a
transcript's int64 columns, and declines what it cannot hold:
``feed_block`` takes the runs ``feed_many`` checked and oriented, and stops
before an edge whose index draw ``feed`` must redraw; ``verify_columns``
returns None for a transcript that ``verify``'s record-by-record loop must
decide, such as one with an edge out of range; and ``edge_block`` and
``transcript_block`` decline a block of a file that the line parser must
read.  This module is the only one that imports numpy at load time; its
callers import it on first use, so ``import streamcolor`` and building a
colourer load neither it nor numpy.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from .core import _ARITY, _KINDS, Edge, Transcript, WrongAlgorithmError, checked_edge
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


def _columns(transcript: Transcript) -> list:
    """The transcript's six columns as int64 arrays sharing its memory; the
    transcript cannot grow while they live."""
    return [np.frombuffer(column, dtype=np.int64) for column in transcript.columns]


def _signature_limbs(colorer: BipartiteColorer):
    """The colourer's signature table as an (n, ceil(s/64)) uint64 array,
    limb j of a row holding bits 64j..64j+63; built once per colourer."""
    if colorer._signature_limbs is None:
        size = 8 * -(-colorer.s // 64)
        raw = b"".join(sig.to_bytes(size, "little") for sig in colorer._signatures)
        colorer._signature_limbs = np.frombuffer(raw, dtype="<u8").reshape(colorer.n, -1)
    return colorer._signature_limbs


def feed_block(colorer: BipartiteColorer, run: list, out: Transcript) -> int:
    """Colour the checked edges of ``run``, each with its smaller endpoint
    first, up to the first whose index draw ``below`` would reject, append
    their announcements to ``out``'s columns, and return how many it
    coloured.  Reads and advances ``colorer``'s counters, index draws and
    overflow serial exactly as ``BipartiteColorer.feed`` would on each
    edge."""
    k = len(run)
    ends = np.fromiter(chain.from_iterable(run), dtype=np.int64, count=2 * k)
    u, v = ends.reshape(k, 2).T.copy()  # two contiguous columns
    limbs = _signature_limbs(colorer)
    diff = limbs[u] ^ limbs[v]
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
        u, v, diff, pop, drawn = u[:k], v[:k], diff[:k], pop[:k], drawn[:k]
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
    du, dv = u[drawn], v[drawn]
    swap = (limbs[du, limb] >> (index % 64).astype(np.uint64)) & np.uint64(1) == 1
    left, right = np.where(swap, dv, du), np.where(swap, du, dv)

    # a counter's value is its stored count plus its earlier uses in the
    # interleaved key order left_0, right_0, left_1, right_1, ...
    keys = np.stack([left * colorer.s + index, right * colorer.s + index], axis=1).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.flatnonzero(np.diff(ordered, prepend=-1))  # keys are >= 0
    sizes = np.diff(first, append=len(keys))
    counters = np.frombuffer(colorer._counters, dtype=np.int64)
    unique = ordered[first]
    stored = counters[unique]
    value = np.empty_like(keys)
    value[order] = np.arange(len(keys)) - np.repeat(first - stored, sizes)
    counters[unique] = stored + sizes
    colorer._choice.skip(draws)

    # triples (index, left, right) where drawn, overflow serials elsewhere
    fields = np.zeros((3, k), dtype=np.int64)
    fields[:, drawn] = index, value[0::2], value[1::2]
    serial = colorer._overflow_serial
    fields[0, ~drawn] = np.arange(serial, serial + k - draws)
    colorer._overflow_serial += k - draws
    kind = np.where(drawn, 1, 2).astype(np.int64)
    out._append(u, v, kind, *fields)
    return k


# ---------------------------------------------------------------------------
# verify


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


def verify_columns(transcript: Transcript) -> VerificationReport | None:
    """``_verify_scalar``'s report computed on the transcript's columns, or
    None when that loop must decide: an empty transcript, an edge that
    ``checked_edge`` fails on the header's ``n``, or a conflict."""
    k = len(transcript)
    if not k:
        return None
    u, v, kind, *fields = _columns(transcript)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.min() < 0 or hi.max() >= transcript.header.n or (lo == hi).any():
        return None

    colour, colour_count = _rank(kind, *fields)
    vertex, vertex_count = _dense(np.concatenate([lo, hi]))  # lo ends, then hi ends
    end_colour = np.concatenate([colour, colour])
    if _dense(vertex * colour_count + end_colour)[1] < 2 * k:
        return None  # two records share a vertex and a colour
    colour_kind = np.empty(colour_count, dtype=np.int64)
    colour_kind[colour] = kind
    distinct_per_kind = np.bincount(colour_kind, minlength=3).tolist()

    # palettes: (kind, chunk or slice index), one for all overflow colours
    index = np.where(kind == 2, 0, fields[0])
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
        np.maximum.at(highest[:, target], palette[rows], fields[source][rows])

    edge_count = np.bincount(palette, minlength=palette_count).tolist()
    max_degree, highest = max_degree.tolist(), highest.tolist()
    palettes: dict[PaletteKey, PaletteStats] = {}
    for p in np.argsort(first).tolist():
        row = int(first[p])
        code = int(kind[row])
        label = _KINDS[code][2]
        key = (label, int(index[row])) if code < 2 else (label,)
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


# ---------------------------------------------------------------------------
# the other transcript checks


def distinct_colours(transcript: Transcript) -> int:
    """The number of distinct (kind, c0, c1, c2) rows."""
    return _rank(*_columns(transcript)[2:])[1] if len(transcript) else 0


def across_slices(transcript: Transcript, colorer: BipartiteColorer) -> bool:
    """``check_bipartition`` on the columns: whether every triple-coloured
    record joins a bit-0 and a bit-1 node at its slice index, gathering
    both endpoints' bits from the signature limbs in one step.  At the first
    record out of range for ``colorer``, ``colorer.bit`` raises, as in the
    record-by-record loop."""
    u, v, kind, index, _, _ = _columns(transcript)
    rows = np.flatnonzero(kind == 1)
    ends, index = np.stack([u[rows], v[rows]]), index[rows]
    fits = ((0 <= ends) & (ends < colorer.n)).all(axis=0) & (0 <= index) & (index < colorer.s)
    stop = len(rows) if fits.all() else int(np.argmin(fits))
    slices = index[:stop]
    limbs = _signature_limbs(colorer)
    bits = (limbs[ends[:, :stop], slices // 64] >> (slices % 64).astype(np.uint64)) & np.uint64(1)
    if (bits[0] == bits[1]).any():
        return False
    if stop < len(rows):
        for end in ends[:, stop].tolist():
            colorer.bit(end, int(index[stop]))  # raises ValidationError
    return True


def chunk_degrees(transcript: Transcript) -> tuple[int, list]:
    """``chunk_concentration``'s counts on the columns: the number of chunks,
    and for each (chunk, vertex) pair an endpoint meets, in that sorted
    order, ``(degree in the chunk, degree, chunk size)``.  The first record
    that is not chunk-coloured, or whose edge ``checked_edge`` fails on the
    header's ``n``, raises as in the record-by-record loop."""
    u, v, kind, chunk, _, _ = _columns(transcript)
    n = transcript.header.n
    bad = np.flatnonzero((kind != 0) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n) | (u == v))
    if len(bad):
        row = bad[0]
        if kind[row] != 0:
            raise WrongAlgorithmError("transcript has non-chunk colours; chunk structure unavailable")
        checked_edge(Edge(int(u[row]), int(v[row])), n)  # raises its ValidationError
    if not len(kind):
        raise WrongAlgorithmError("empty transcript has no chunk structure")

    ends, chunks = np.concatenate([u, v]), np.concatenate([chunk, chunk])
    order = np.lexsort((ends, chunks))
    ends, chunks = ends[order], chunks[order]
    first = np.flatnonzero(np.diff(ends, prepend=-1) | np.diff(chunks, prepend=chunks[:1]))
    vertices, degree = np.unique(ends, return_counts=True)
    chunk_ids, size = np.unique(chunk, return_counts=True)
    rows = (
        np.diff(first, append=len(ends)),
        degree[np.searchsorted(vertices, ends[first])],
        size[np.searchsorted(chunk_ids, chunks[first])],
    )
    return len(chunk_ids), list(zip(*(column.tolist() for column in rows)))


def same_edge_multiset(edges: list[Edge], transcript: Transcript) -> bool:
    """Whether ``transcript`` announces each of ``edges`` exactly as often as
    it occurs there, endpoints in either order: the canonical ``(min, max)``
    pairs of both sides, sorted, are equal.  Where every key
    ``min * base + max`` fits in int64, ``base`` exceeding every endpoint,
    one sort of the keys compares them; otherwise the pairs are compared
    exactly.  Every endpoint must be non-negative."""
    k = len(edges)
    if k != len(transcript):
        return False
    try:
        uv = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * k).reshape(k, 2)
    except OverflowError:  # an endpoint beyond int64, which no transcript holds
        return False
    u, v, *_ = _columns(transcript)
    lo = np.concatenate([uv.min(axis=1), np.minimum(u, v)])
    hi = np.concatenate([uv.max(axis=1), np.maximum(u, v)])
    base = int(hi.max(initial=0)) + 1
    if base * base <= 1 << 63:  # the largest key, base * base - 1, fits
        keys = lo * base + hi
        return np.array_equal(np.sort(keys[:k]), np.sort(keys[k:]))
    pairs = np.stack([lo, hi], axis=1)
    by_lo_then_hi = [side[np.lexsort((side[:, 1], side[:, 0]))] for side in (pairs[:k], pairs[k:])]
    return np.array_equal(*by_lo_then_hi)


# ---------------------------------------------------------------------------
# the file readers' blocks

# the canonical form the writers emit: single spaces, every line ended by
# "\n", integers without sign or leading zero and of at most 18 digits, so
# that every value fits int64.  Each pattern is matched against one block
# at a time: the engine keeps a little state per line it repeats over.
_UINT = rb"(?:0|[1-9][0-9]{0,17})"
_EDGE_LINES = re.compile(rb"(?:U U\n)*".replace(b"U", _UINT))
_COLOUR = "|".join(letter + ":U" * arity for (_, letter, _), arity in zip(_KINDS, _ARITY))
_TRANSCRIPT_LINES = re.compile(rf"(?:U U (?:{_COLOUR})\n)*".encode().replace(b"U", _UINT))
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_KIND_OF_LETTER = np.zeros(256, dtype=np.int64)  # a colour letter's kind
_KIND_OF_LETTER[[ord(letter) for _, letter, _ in _KINDS]] = range(len(_KINDS))
_FIELDS = np.array(_ARITY)  # colour fields of each kind


def _numbers(b: np.ndarray) -> np.ndarray:
    """The integers of a canonical block's bytes ``b`` in order: each run of
    digits is one, and each digit adds its value times 10 to the power of
    the number of digits after it."""
    at = np.flatnonzero((b >= ord("0")) & (b <= ord("9")))
    first = np.flatnonzero(np.diff(at, prepend=-2) != 1)  # each number's first digit
    length = np.diff(first, append=len(at))
    place = np.repeat(first + length - 1, length) - np.arange(len(at))
    return np.add.reduceat((b[at] - ord("0")).astype(np.int64) * _POW10[place], first)


def _checked(u: np.ndarray, v: np.ndarray, n: int) -> bool:
    """``checked_edge``'s rule on every (u, v); no parsed id is negative."""
    n = min(n, 1 << 62)  # every parsed id is below 10**18
    return bool(((u < n) & (v < n) & (u != v)).all())


def edge_block(data: bytes, start: int, stop: int, n: int) -> list[Edge] | None:
    """The edges of the stream file block ``data[start:stop]`` in file order
    and orientation, or None unless the block is canonical and every edge
    passes ``checked_edge`` on ``n`` vertices."""
    if not _EDGE_LINES.fullmatch(data, start, stop):
        return None
    b = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    u, v = _numbers(b).reshape(-1, 2).T
    if not _checked(u, v, n):
        return None
    # Edge(u, v) is tuple.__new__(Edge, (u, v)); calling it directly skips a Python frame
    return list(map(tuple.__new__, repeat(Edge), zip(u.tolist(), v.tolist())))


def transcript_block(data: bytes, start: int, stop: int, n: int, out: Transcript) -> bool:
    """Append the records of the transcript file block ``data[start:stop]``
    to ``out``'s columns and return True; or return False, appending
    nothing, unless the block is canonical and every edge passes
    ``checked_edge`` on ``n`` vertices."""
    if not _TRANSCRIPT_LINES.fullmatch(data, start, stop):
        return False
    b = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    kind = _KIND_OF_LETTER[b[b >= ord("a")]]  # one colour letter per line
    width = 2 + _FIELDS[kind]
    first = np.cumsum(width) - width  # each line's u among the numbers
    numbers = np.append(_numbers(b), [0, 0])  # a short colour reads zeros
    u, v, c0, c1, c2 = (numbers[first + j] for j in range(5))
    if not _checked(u, v, n):
        return False
    c1[width < 4] = 0
    c2[width < 5] = 0
    out._append(u, v, kind, c0, c1, c2)
    return True
