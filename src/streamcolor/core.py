"""Core types shared by every module: edges, colours, transcripts, the space
meter, and the two plain-text file formats.

An input stream is a :class:`StreamHeader` plus an ordered list of
:class:`Edge`.  A colourer consumes the stream and produces a
:class:`Transcript`: the ordered list of (edge, colour) announcements it wrote
to its output stream.  Colours live in one of three disjoint namespaces:

* ``ChunkColour(chunk, local)`` for the chunk-buffered colourer, one palette
  per flushed chunk,
* ``TripleColour(index, left, right)`` for the bit-signature colourer, one
  palette per bit index,
* ``OverflowColour(serial)``, globally unique fallbacks for edges whose
  endpoints drew identical signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Union


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ContractViolation(RuntimeError):
    """An operation was driven outside its state-machine contract."""


class ConfigurationError(RuntimeError):
    """A component was wired up without an access it requires."""


class WrongAlgorithmError(ValueError):
    """An analysis was asked of a transcript the other algorithm produced."""


class TranscriptParseError(ValueError):
    """Malformed stream or transcript file; carries the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Edge(NamedTuple):
    u: int
    v: int


def canonicalize(edge: Edge) -> Edge:
    """Return ``edge`` with the smaller endpoint first.  Idempotent.

    Self-loops are rejected: no colouring of a loop can be proper.
    """
    u, v = edge
    if u == v:
        raise ValidationError(f"self-loop ({u},{v}) is not a valid edge")
    if u < 0 or v < 0:
        raise ValidationError(f"negative vertex id in ({u},{v})")
    return Edge(u, v) if u < v else Edge(v, u)


def validate_endpoints(edge: Edge, n: int) -> None:
    if not (0 <= edge.u < n and 0 <= edge.v < n):
        raise ValidationError(f"edge ({edge.u},{edge.v}) out of range for n={n}")


# The three variants have distinct arities, so tuple equality can never hold
# across variants; palettes stay disjoint under plain structural comparison.


class ChunkColour(NamedTuple):
    chunk: int
    local: int


class TripleColour(NamedTuple):
    index: int
    left: int
    right: int


class OverflowColour(NamedTuple):
    serial: int


ColourId = Union[ChunkColour, TripleColour, OverflowColour]


def format_colour(colour: ColourId) -> str:
    if isinstance(colour, ChunkColour):
        return f"c:{colour.chunk}:{colour.local}"
    if isinstance(colour, TripleColour):
        return f"t:{colour.index}:{colour.left}:{colour.right}"
    if isinstance(colour, OverflowColour):
        return f"o:{colour.serial}"
    raise ValidationError(f"not a colour: {colour!r}")


def parse_colour(text: str) -> ColourId:
    parts = text.split(":")
    try:
        if parts[0] == "c" and len(parts) == 3:
            return ChunkColour(int(parts[1]), int(parts[2]))
        if parts[0] == "t" and len(parts) == 4:
            return TripleColour(int(parts[1]), int(parts[2]), int(parts[3]))
        if parts[0] == "o" and len(parts) == 2:
            return OverflowColour(int(parts[1]))
    except ValueError:
        pass
    raise ValidationError(f"unparseable colour {text!r}")


@dataclass(frozen=True)
class StreamHeader:
    """Stream metadata.  ``n`` is always known up front; both colourers size
    their state from it.  ``m`` and ``seed`` are optional bookkeeping."""

    n: int
    m: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {self.n}")
        if self.m is not None:
            cap = self.n * (self.n - 1) // 2
            if not (0 <= self.m <= cap):
                raise ValidationError(f"edge count {self.m} impossible for n={self.n}")


@dataclass
class Transcript:
    """The recorded output stream: (edge, colour) in announcement order."""

    header: StreamHeader
    records: list[tuple[Edge, ColourId]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def distinct_colours(self) -> int:
        return len({colour for _, colour in self.records})


class SpaceMeter:
    """Word-count accounting of an algorithm's live state.

    A word holds one integer of magnitude up to max(n, max degree, number of
    colours).  ``peak_words`` is monotone; ``release`` never lowers it.
    """

    __slots__ = ("current_words", "peak_words")

    def __init__(self):
        self.current_words = 0
        self.peak_words = 0

    def charge(self, words: int) -> None:
        if words < 0:
            raise ValidationError(f"cannot charge {words} words")
        self.current_words += words
        if self.current_words > self.peak_words:
            self.peak_words = self.current_words

    def release(self, words: int) -> None:
        if words < 0:
            raise ValidationError(f"cannot release {words} words")
        if words > self.current_words:
            raise ContractViolation(
                f"releasing {words} words but only {self.current_words} are held"
            )
        self.current_words -= words


def run_stream(colorer, edges: Iterable[Edge], header: StreamHeader) -> Transcript:
    """Feed ``edges`` through a colourer and collect its announcements.

    A colourer is any object with ``feed(edge) -> list`` and
    ``finish() -> list`` returning (edge, colour) announcements.  One that
    also has ``feed_many(edges) -> list``, announcing what ``feed`` would on
    each edge in turn, gets the whole stream through it.
    """
    transcript = Transcript(header=header)
    feed_many = getattr(colorer, "feed_many", None)
    if feed_many is not None:
        transcript.records.extend(feed_many(edges))
    else:
        for edge in edges:
            transcript.records.extend(colorer.feed(edge))
    transcript.records.extend(colorer.finish())
    return transcript


# ---------------------------------------------------------------------------
# File formats.
#
# Edge list:   header line `n <n> [m <m>] [seed <seed>]`, then `u v` per line,
#              stream order = line order; 0 <= u, v < n and u != v.
# Transcript:  same header line, then `u v <colour>` per line with the same
#              endpoint rules and colour rendered by format_colour.
# ---------------------------------------------------------------------------


def _format_header(header: StreamHeader) -> str:
    parts = [f"n {header.n}"]
    if header.m is not None:
        parts.append(f"m {header.m}")
    if header.seed is not None:
        parts.append(f"seed {header.seed}")
    return " ".join(parts)


def _parse_header(line: str, line_no: int) -> StreamHeader:
    tokens = line.split()
    if len(tokens) < 2 or len(tokens) % 2 != 0 or tokens[0] != "n":
        raise TranscriptParseError(f"bad header {line!r}", line_no)
    fields: dict[str, int] = {}
    for key, value in zip(tokens[::2], tokens[1::2]):
        if key not in ("n", "m", "seed"):
            raise TranscriptParseError(f"unknown header field {key!r}", line_no)
        try:
            fields[key] = int(value)
        except ValueError:
            raise TranscriptParseError(f"non-integer {key} value {value!r}", line_no)
    try:
        return StreamHeader(fields["n"], fields.get("m"), fields.get("seed"))
    except ValidationError as exc:
        raise TranscriptParseError(str(exc), line_no)


def write_edge_list(path: str | Path, header: StreamHeader, edges: Iterable[Edge]) -> None:
    with open(path, "w") as fh:
        fh.write(_format_header(header) + "\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | Path) -> tuple[StreamHeader, list[Edge]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TranscriptParseError("empty file", 1)
    header = _parse_header(lines[0], 1)
    n = header.n
    edges = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise TranscriptParseError(f"expected `u v`, got {line!r}", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise TranscriptParseError(f"non-integer endpoint in {line!r}", line_no)
        if u == v:
            raise TranscriptParseError(f"self-loop ({u},{v})", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise TranscriptParseError(f"edge ({u},{v}) out of range for n={n}", line_no)
        edges.append(Edge(u, v))
    return header, edges


def write_transcript(path: str | Path, transcript: Transcript) -> None:
    with open(path, "w") as fh:
        fh.write(_format_header(transcript.header) + "\n")
        for (u, v), colour in transcript.records:
            fh.write(f"{u} {v} {format_colour(colour)}\n")


def read_transcript(path: str | Path) -> Transcript:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TranscriptParseError("empty file", 1)
    header = _parse_header(lines[0], 1)
    n = header.n
    records: list[tuple[Edge, ColourId]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise TranscriptParseError(f"expected `u v colour`, got {line!r}", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise TranscriptParseError(f"non-integer endpoint in {line!r}", line_no)
        if u == v:
            raise TranscriptParseError(f"self-loop ({u},{v})", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise TranscriptParseError(f"edge ({u},{v}) out of range for n={n}", line_no)
        edge = Edge(u, v)
        try:
            colour = parse_colour(tokens[2])
        except ValidationError as exc:
            raise TranscriptParseError(str(exc), line_no)
        records.append((edge, colour))
    return Transcript(header=header, records=records)
