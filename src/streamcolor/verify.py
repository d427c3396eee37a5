"""Offline oracle over transcripts.

The verifier holds the whole transcript in memory; the streaming space budget
applies to colourers, not to this test harness.  ``verify`` is the sound and
complete properness check; ``chunk_concentration`` and ``colour_budget`` are
the per-algorithm measurements the experiment harness and acceptance suite
consume.

``verify`` computes its report with numpy; the record-by-record loop it
replaces stays as ``_verify_scalar``, which decides every transcript the
columns cannot (conflicts, errors, unusual records) and is the reference
the numpy path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ChunkColour,
    ColourId,
    Edge,
    Transcript,
    TripleColour,
    ValidationError,
    WrongAlgorithmError,
    canonicalize,
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
    if isinstance(colour, ChunkColour):
        return ("chunk", colour.chunk)
    if isinstance(colour, TripleColour):
        return ("triple", colour.index)
    return ("overflow",)


def verify(transcript: Transcript) -> VerificationReport:
    """Exhaustive pairwise-incidence properness check plus palette stats.

    A conflict is two records sharing a vertex and a colour; every such pair
    is reported, not just the first.
    """
    from .batch import verify_columns  # numpy and the kernel load on first use

    report = verify_columns(transcript.records)
    return report if report is not None else _verify_scalar(transcript)


def _verify_scalar(transcript: Transcript) -> VerificationReport:
    """The record-by-record form of :func:`verify`; it decides every
    transcript the numpy columns cannot."""
    at_vertex: dict[int, dict[ColourId, list[Edge]]] = {}
    degree: dict[int, int] = {}
    colours: set[ColourId] = set()
    overflow_serials: set[int] = set()
    palettes: dict[PaletteKey, PaletteStats] = {}
    palette_degrees: dict[PaletteKey, dict[int, int]] = {}
    edge_seen: dict[Edge, int] = {}
    duplicates = 0

    for edge, colour in transcript.records:
        e = canonicalize(edge)
        edge_seen[e] = edge_seen.get(e, 0) + 1
        if edge_seen[e] > 1:
            duplicates += 1
        colours.add(colour)
        key = _palette_key(colour)
        stats = palettes.get(key)
        if stats is None:
            stats = palettes[key] = PaletteStats()
            palette_degrees[key] = {}
        stats.edge_count += 1
        pdeg = palette_degrees[key]
        for x in e:
            pdeg[x] = pdeg.get(x, 0) + 1
            if pdeg[x] > stats.max_degree:
                stats.max_degree = pdeg[x]
            degree[x] = degree.get(x, 0) + 1
            at_vertex.setdefault(x, {}).setdefault(colour, []).append(e)
        if isinstance(colour, ChunkColour):
            if colour.local > stats.max_local:
                stats.max_local = colour.local
        elif isinstance(colour, TripleColour):
            # the counter increments past the announced value
            if colour.left + 1 > stats.max_left:
                stats.max_left = colour.left + 1
            if colour.right + 1 > stats.max_right:
                stats.max_right = colour.right + 1
        else:
            overflow_serials.add(colour.serial)

    conflicts: list[tuple[Edge, Edge, int, ColourId]] = []
    for vertex in sorted(at_vertex):
        for colour, edges in at_vertex[vertex].items():
            if len(edges) > 1:
                for a in range(len(edges)):
                    for b in range(a + 1, len(edges)):
                        conflicts.append((edges[a], edges[b], vertex, colour))

    return VerificationReport(
        proper=not conflicts,
        conflicts=conflicts,
        distinct_colours=len(colours),
        overflow_colours=len(overflow_serials),
        max_degree=max(degree.values(), default=0),
        per_palette_stats=palettes,
        distinct_triple_colours=sum(1 for c in colours if isinstance(c, TripleColour)),
        distinct_chunk_colours=sum(1 for c in colours if isinstance(c, ChunkColour)),
        duplicate_edges=duplicates,
        records=len(transcript.records),
    )


@dataclass
class ConcentrationRow:
    chunk: int
    vertex: int
    chunk_degree: int
    expected: float  # full degree / number of chunks


@dataclass
class ConcentrationSummary:
    num_chunks: int
    rows: list[ConcentrationRow]
    max_ratio: float
    mean_ratio: float


def chunk_concentration(transcript: Transcript) -> ConcentrationSummary:
    """Per-chunk degree of every touched vertex against its even share.

    Requires a chunk-colourer transcript: the chunk index of each record is
    the chunk structure.
    """
    chunk_degree: dict[tuple[int, int], int] = {}
    full_degree: dict[int, int] = {}
    chunks: set[int] = set()
    for edge, colour in transcript.records:
        if not isinstance(colour, ChunkColour):
            raise WrongAlgorithmError(
                "transcript has non-chunk colours; chunk structure unavailable"
            )
        chunks.add(colour.chunk)
        for x in canonicalize(edge):
            full_degree[x] = full_degree.get(x, 0) + 1
            chunk_degree[(colour.chunk, x)] = chunk_degree.get((colour.chunk, x), 0) + 1
    if not chunks:
        raise WrongAlgorithmError("empty transcript has no chunk structure")

    num_chunks = len(chunks)
    rows = []
    ratios = []
    for (chunk, vertex), d_i in sorted(chunk_degree.items()):
        expected = full_degree[vertex] / num_chunks
        rows.append(ConcentrationRow(chunk, vertex, d_i, expected))
        ratios.append(d_i / expected)
    return ConcentrationSummary(
        num_chunks=num_chunks,
        rows=rows,
        max_ratio=max(ratios),
        mean_ratio=sum(ratios) / len(ratios),
    )


@dataclass
class BudgetCheck:
    passed: bool
    distinct: int
    bound: int
    ratio: float  # chunk: colours / max_degree; triple: colours / (max_degree^2 / s)
    detail: str


def colour_budget(report: VerificationReport, algo: str, s: int | None = None) -> BudgetCheck:
    """Check the per-run exact colour bounds a transcript must satisfy.

    chunk:     distinct colours <= sum over chunks of (chunk max degree + 1)
    bipartite: distinct triple colours <= s * (max slice degree)^2, and
               <= sum over slices of (max left counter * max right counter)
    """
    chunk_keys = [k for k in report.per_palette_stats if k[0] == "chunk"]
    triple_keys = [k for k in report.per_palette_stats if k[0] == "triple"]

    if algo == "chunk":
        if triple_keys:
            raise ValidationError("chunk budget asked of a triple-coloured transcript")
        distinct = report.distinct_chunk_colours
        bound = sum(report.per_palette_stats[k].max_degree + 1 for k in chunk_keys)
        ratio = distinct / report.max_degree if report.max_degree else 0.0
        return BudgetCheck(
            passed=distinct <= bound,
            distinct=distinct,
            bound=bound,
            ratio=ratio,
            detail=f"{distinct} colours vs sum(chunk max degree + 1) = {bound}",
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
    node (right) at its slice index.  ``colorer`` supplies the bits."""
    for edge, colour in transcript.records:
        if not isinstance(colour, TripleColour):
            continue
        u, v = edge
        bu = colorer.bit(u, colour.index)
        bv = colorer.bit(v, colour.index)
        if bu == bv:
            return False
    return True
