"""Offline oracle over transcripts.

The verifier holds the whole transcript in memory; the streaming space budget
applies to colourers, not to this test harness.  ``verify`` is the sound and
complete properness check; ``chunk_concentration`` and ``colour_budget`` are
the per-algorithm measurements the experiment harness and acceptance suite
consume.

``verify``, ``chunk_concentration`` and ``check_bipartition`` compute on the
transcript's int64 columns with numpy.  The record-by-record loop ``verify``
replaces stays as ``_verify_scalar``, which decides every transcript the
columns cannot (conflicts, edges out of range) and is the reference the
numpy path is tested against.  ``verify`` and ``chunk_concentration`` apply
``checked_edge`` on the header's ``n`` as ``read_transcript`` does, so a
transcript and its file get one verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    _KIND_OF,
    _KINDS,
    ChunkColour,
    ColourId,
    Edge,
    OverflowColour,
    Transcript,
    TripleColour,
    ValidationError,
    checked_edge,
)

PaletteKey = tuple  # ("chunk", index) | ("triple", index) | ("overflow",)


@dataclass
class PaletteStats:
    edge_count: int = 0
    max_degree: int = 0
    max_local: int = -1  # chunk palettes: highest local colour
    max_left: int = 0  # triple palettes: highest left counter value reached
    max_right: int = 0


@dataclass
class VerificationReport:
    proper: bool
    conflicts: list[tuple[Edge, Edge, int, ColourId]]
    distinct_colours: int
    overflow_colours: int
    max_degree: int
    per_palette_stats: dict[PaletteKey, PaletteStats]
    distinct_triple_colours: int = 0
    distinct_chunk_colours: int = 0
    duplicate_edges: int = 0
    records: int = 0


def _palette_key(colour: ColourId) -> PaletteKey:
    """The colour's palette: its kind's label, and its first field unless
    it is an overflow colour, whose palette is one for all."""
    _, _, label = _KINDS[_KIND_OF[type(colour)]]
    return (label,) if type(colour) is OverflowColour else (label, colour[0])


def verify(transcript: Transcript) -> VerificationReport:
    """Exhaustive pairwise-incidence properness check plus palette stats.

    A conflict is two records sharing a vertex and a colour; every such pair
    is reported, not just the first.
    """
    from .batch import verify_columns  # numpy and the kernel load on first use

    report = verify_columns(transcript)
    return report if report is not None else _verify_scalar(transcript)


def _verify_scalar(transcript: Transcript) -> VerificationReport:
    """The record-by-record form of :func:`verify`; it decides every
    transcript the numpy columns cannot."""
    at_vertex: dict[int, dict[ColourId, list[Edge]]] = {}
    degree: dict[int, int] = {}
    colours: set[ColourId] = set()
    palettes: dict[PaletteKey, PaletteStats] = {}
    palette_degrees: dict[PaletteKey, dict[int, int]] = {}
    distinct_edges: set[Edge] = set()

    for edge, colour in transcript:
        e = checked_edge(edge, transcript.header.n)
        distinct_edges.add(e)
        colours.add(colour)
        key = _palette_key(colour)
        stats = palettes.setdefault(key, PaletteStats())
        pdeg = palette_degrees.setdefault(key, {})
        stats.edge_count += 1
        for x in e:
            pdeg[x] = pdeg.get(x, 0) + 1
            stats.max_degree = max(stats.max_degree, pdeg[x])
            degree[x] = degree.get(x, 0) + 1
            at_vertex.setdefault(x, {}).setdefault(colour, []).append(e)
        if isinstance(colour, ChunkColour):
            stats.max_local = max(stats.max_local, colour.local)
        elif isinstance(colour, TripleColour):  # the counters increment past the announced value
            stats.max_left = max(stats.max_left, colour.left + 1)
            stats.max_right = max(stats.max_right, colour.right + 1)

    conflicts: list[tuple[Edge, Edge, int, ColourId]] = []
    for vertex in sorted(at_vertex):
        for colour, edges in at_vertex[vertex].items():
            if len(edges) > 1:
                for a in range(len(edges)):
                    for b in range(a + 1, len(edges)):
                        conflicts.append((edges[a], edges[b], vertex, colour))

    per_kind = Counter(map(type, colours))
    return VerificationReport(
        proper=not conflicts,
        conflicts=conflicts,
        distinct_colours=len(colours),
        overflow_colours=per_kind[OverflowColour],
        max_degree=max(degree.values(), default=0),
        per_palette_stats=palettes,
        distinct_triple_colours=per_kind[TripleColour],
        distinct_chunk_colours=per_kind[ChunkColour],
        duplicate_edges=len(transcript) - len(distinct_edges),
        records=len(transcript),
    )


@dataclass
class ConcentrationSummary:
    num_chunks: int
    max_ratio: float
    mean_ratio: float


def chunk_concentration(transcript: Transcript) -> ConcentrationSummary:
    """Per-chunk degree of every touched vertex against its share by chunk
    size, d(u) * |chunk_i| / m, which is d(u) / N when the N chunks are
    equal: the largest and the mean ratio over (chunk, vertex) pairs.

    Requires a chunk-colourer transcript: the chunk index of each record is
    the chunk structure.
    """
    from .batch import chunk_degrees  # numpy and the kernel load on first use

    num_chunks, counts = chunk_degrees(transcript)
    m = len(transcript)
    ratios = [d_i / (degree * size / m) for d_i, degree, size in counts]
    return ConcentrationSummary(num_chunks, max(ratios), sum(ratios) / len(ratios))


@dataclass
class BudgetCheck:
    passed: bool
    distinct: int
    bound: int
    ratio: float  # chunk: colours / max_degree; triple: colours / (max_degree^2 / s)
    detail: str


def colour_budget(report: VerificationReport, algo: str, s: int | None = None) -> BudgetCheck:
    """Check the per-run exact colour bounds a transcript must satisfy.

    chunk:     distinct colours <= sum over chunks of (chunk max degree + 1),
               or of max(that, 2 * chunk max degree - 1) once an edge repeats
    bipartite: distinct triple colours <= s * (max slice degree)^2, and
               <= sum over slices of (max left counter * max right counter)
    """
    chunk_keys = [k for k in report.per_palette_stats if k[0] == "chunk"]
    triple_keys = [k for k in report.per_palette_stats if k[0] == "triple"]

    if algo == "chunk":
        if triple_keys:
            raise ValidationError("chunk budget asked of a triple-coloured transcript")
        distinct = report.distinct_chunk_colours
        # a repeated edge can make a chunk a multigraph, which max degree + 1 colours
        # need not cover (a doubled triangle needs 6); repeats get greedy colours
        repeats = report.duplicate_edges > 0
        degrees = (report.per_palette_stats[k].max_degree for k in chunk_keys)
        bound = sum(max(d + 1, 2 * d - 1) if repeats else d + 1 for d in degrees)
        rule = "chunk max degree + 1"
        if repeats:
            rule = f"max({rule}, 2 * chunk max degree - 1)"
        ratio = distinct / report.max_degree if report.max_degree else 0.0
        return BudgetCheck(
            passed=distinct <= bound,
            distinct=distinct,
            bound=bound,
            ratio=ratio,
            detail=f"{distinct} colours vs sum({rule}) = {bound}",
        )

    if algo == "bipartite":
        if chunk_keys:
            raise ValidationError("bipartite budget asked of a chunk-coloured transcript")
        if s is None or s < 1:
            raise ValidationError("bipartite budget needs the signature width s")
        for key in triple_keys:
            if key[1] >= s:
                raise ValidationError(f"slice index {key[1]} out of range for s={s}")
        distinct = report.distinct_triple_colours
        max_slice_degree = max(
            (report.per_palette_stats[k].max_degree for k in triple_keys), default=0
        )
        bound = s * max_slice_degree * max_slice_degree
        pair_bound = sum(
            report.per_palette_stats[k].max_left * report.per_palette_stats[k].max_right
            for k in triple_keys
        )
        delta = report.max_degree
        ratio = distinct / (delta * delta / s) if delta else 0.0
        return BudgetCheck(
            passed=distinct <= min(bound, pair_bound),
            distinct=distinct,
            bound=bound,
            ratio=ratio,
            detail=(
                f"{distinct} triple colours vs s*(max slice degree)^2 = {bound}, "
                f"counter-pair bound = {pair_bound}"
            ),
        )

    raise ValidationError(f"unknown algorithm {algo!r}")


def check_bipartition(transcript: Transcript, colorer) -> bool:
    """Every triple-coloured edge must join a bit-0 node (left) to a bit-1
    node (right) at its slice index.  ``colorer``, the bit-signature
    colourer that wrote the transcript, supplies the bits."""
    from .batch import across_slices  # numpy and the kernel load on first use

    return across_slices(transcript, colorer)
