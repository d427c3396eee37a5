"""Core types shared by every module: edges, colours, transcripts, the space
meter, the colourer contract, and the two plain-text file formats.

An input stream is a :class:`StreamHeader` plus an ordered list of
:class:`Edge`.  A colourer, a :class:`StreamColorer`, consumes the stream and
produces a :class:`Transcript`: the ordered (edge, colour) announcements it
wrote to its output stream; :func:`run_stream` drives one over a whole
stream.  Colours live in one of three disjoint namespaces:

* ``ChunkColour(chunk, local)`` for the chunk-buffered colourer, one palette
  per flushed chunk,
* ``TripleColour(index, left, right)`` for the bit-signature colourer, one
  palette per bit index,
* ``OverflowColour(serial)``, globally unique fallbacks for edges whose
  endpoints drew identical signatures.

A transcript stores its records as six parallel int64 columns
(``array('q')``, so no numpy is needed to build one): ``u`` and ``v`` as
announced, the colour's kind (its index in ``_KINDS``: 0 chunk, 1 triple,
2 overflow) and its fields ``c0``, ``c1``, ``c2`` in order, zero where the
colour has fewer.  The batch kernels read them zero-copy with
``numpy.frombuffer``.  A transcript is also the read-only sequence of its
announcements, each ``(Edge, colour)`` built from the columns when read;
taking its length builds nothing.

The two file readers parse a block of lines at a time: ``read_edge_list``
returns the stream's edges, and ``read_transcript`` writes a transcript's
columns directly.  A block in the writers' canonical form is parsed with
numpy; any other goes to the line parser, which stays the oracle.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union


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


def checked_edge(edge: Edge, n: int) -> Edge:
    """The one edge rule, applied once where an edge enters: both endpoints
    in 0..n-1 and distinct.  Returns the edge with the smaller endpoint first."""
    u, v = edge.u, edge.v
    if type(u) is not int or type(v) is not int:
        raise ValidationError(f"edge {edge!r} has an endpoint that is not an int")
    if not (0 <= u < n and 0 <= v < n):
        raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise ValidationError(f"self-loop ({u},{v}) is not a valid edge")
    return edge if u < v else Edge(v, u)


_BLOCK = 8192  # edges feed_many reads at a time; bounds a run hook's temporaries


def _run_end(block: list, start: int, n: int) -> int:
    """The end of the longest run from ``block[start]`` that a colourer may
    take without ``feed``: ``Edge``s of two plain ints that ``checked_edge``
    passes on ``n`` vertices."""
    stop = start
    for edge in islice(block, start, None):
        if type(edge) is not Edge:
            break
        u, v = edge
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n) or u == v:
            break
        stop += 1
    return stop


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


# The colour kinds: each one's class, its letter in a transcript file and
# its palette label.  A kind's index is its code in a transcript's ``kind``
# column, and its arity is its class's number of fields.
_KINDS = (
    (ChunkColour, "c", "chunk"),
    (TripleColour, "t", "triple"),
    (OverflowColour, "o", "overflow"),
)
_KIND_OF = {cls: kind for kind, (cls, _, _) in enumerate(_KINDS)}
_ARITY = tuple(len(cls._fields) for cls, _, _ in _KINDS)


def _decimal(text: str) -> int:
    """``text`` as an integer in ASCII digits with an optional sign; the
    file formats take no other form (``int`` alone reads ``1_0`` and
    non-ASCII digits)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_colour(text: str) -> ColourId:
    letter, *fields = text.split(":")
    for cls, mark, _ in _KINDS:
        if letter == mark and len(fields) == len(cls._fields):
            try:
                return cls(*map(_decimal, fields))
            except ValueError:
                break
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


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _check_held(record: tuple[Edge, ColourId]) -> None:
    """Raise ValidationError unless a transcript's columns hold ``record`` as itself."""
    edge, colour = record
    if not (
        type(edge) is Edge
        and type(colour) in _KIND_OF
        and all(type(x) is int and _INT64_MIN <= x <= _INT64_MAX for x in (*edge, *colour))
    ):
        raise ValidationError(f"record {record!r} is not an Edge and a colour of int64s")


def _record(u: int, v: int, kind: int, c0: int, c1: int, c2: int) -> tuple[Edge, ColourId]:
    """The (edge, colour) of one row of a transcript's columns."""
    return Edge(u, v), _KINDS[kind][0](*(c0, c1, c2)[: _ARITY[kind]])


class Transcript(Sequence):
    """The recorded output stream: (edge, colour) in announcement order, held
    as the six int64 columns ``u``, ``v``, ``kind``, ``c0``, ``c1``, ``c2``.
    It is the read-only sequence of those records, equal to any sequence of
    the same (edge, colour) pairs."""

    def __init__(self, header: StreamHeader, records: Iterable[tuple[Edge, ColourId]] = ()):
        self.header = header
        self.columns = tuple(array("q") for _ in range(6))
        self.u, self.v, self.kind, self.c0, self.c1, self.c2 = self.columns
        self.extend(records)

    def extend(self, records: Iterable[tuple[Edge, ColourId]]) -> None:
        """Append the (edge, colour) pairs ``records`` in order.  If one pair
        cannot be held by the columns as itself (its edge is not an ``Edge``,
        its colour of no known kind, or a field not a plain int in int64
        range), ValidationError names the first such pair and nothing is
        appended."""
        records = list(records)
        kinds = {type(colour) for _, colour in records}
        if len(kinds) == 1 and {type(edge) for edge, _ in records} == {Edge}:
            # one colour kind, so a record is a fixed-width run of numbers
            numbers = list(chain.from_iterable(chain.from_iterable(records)))
            kind = _KIND_OF.get(kinds.pop())
            if kind is not None and set(map(type, numbers)) == {int}:
                try:
                    block = array("q", numbers)
                except OverflowError:
                    pass  # the record-by-record check below names it
                else:
                    width = 2 + _ARITY[kind]
                    u, v, *fields = (block[j::width] for j in range(width))
                    self._append(u, v, kind, *fields)
                    return
        for record in records:
            _check_held(record)
        if records:
            rows = ((u, v, _KIND_OF[type(colour)], *colour, 0, 0)[:6] for (u, v), colour in records)
            self._append(*(array("q", column) for column in zip(*rows)))

    def _append(self, u, v, kind, c0, c1=0, c2=0) -> None:
        """Append rows to the six columns, one per entry of ``u``.  Each
        argument is an int64 ``array('q')``, a contiguous int64 numpy
        column, or one int that every row takes."""
        given = [array("q", [x]) * len(u) if type(x) is int else x for x in (u, v, kind, c0, c1, c2)]
        for column, values in zip(self.columns, given):
            column.frombytes(memoryview(values).cast("B"))

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, index):
        fields = (column[index] for column in self.columns)
        return list(map(_record, *fields)) if isinstance(index, slice) else _record(*fields)

    def __iter__(self) -> Iterator[tuple[Edge, ColourId]]:
        return map(_record, *self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))

    @property
    def records(self) -> Transcript:
        return self

    def distinct_colours(self) -> int:
        from .batch import distinct_colours  # numpy loads on first use

        return distinct_colours(self)


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


class StreamColorer:
    """A one-pass colourer: it sees each edge once, in stream order, and has
    announced a colour for every edge once the stream ends.

    ``feed(edge)`` returns the (edge, colour) announcements the edge
    triggers, possibly none; ``finish()`` ends the stream and returns the
    rest.  This class makes the contract's checks: ``n`` at construction,
    each fed edge through :func:`checked_edge`, no ``feed`` after ``finish``
    and no second ``finish``.  ``feed_many`` feeds a whole stream as the
    ``feed`` loop would.  A subclass charges its state to ``meter`` and
    writes ``_take(edge)``, which gets the checked edge with its smaller
    endpoint first; it may write ``_drain()`` for what ``finish`` announces
    and ``_take_run`` to colour a checked run of edges at once.
    """

    peak_buffered_edges = 0  # most edges held unannounced at one time

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {n}")
        self.n = n
        self.meter = SpaceMeter()
        self.finished = False

    def feed(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        if self.finished:
            raise ContractViolation("feed after finish")
        return self._take(checked_edge(edge, self.n))

    def finish(self) -> list[tuple[Edge, ColourId]]:
        if self.finished:
            raise ContractViolation("finish called twice")
        self.finished = True
        return self._drain()

    def feed_many(self, edges: Iterable[Edge]) -> Transcript:
        """Feed ``edges`` in order and return their announcements as a
        transcript on ``n`` vertices; it, the colourer's state and any error
        are those of extending a transcript by ``feed(edge)`` for each edge.
        Each run that ``_run_end`` passes goes to ``_take_run`` instead."""
        out = Transcript(StreamHeader(self.n))
        stream, full = iter(edges), True
        while full:
            block: list = []
            try:
                block += islice(stream, _BLOCK)
                full = len(block) == _BLOCK
            finally:  # if the input raises, the edges read before it are fed first
                start = 0
                while start < len(block):
                    stop = start if self.finished else _run_end(block, start, self.n)
                    if stop > start:
                        start = self._take_run(block, start, stop, out)
                    if start < len(block):  # feed takes the edge after a run
                        out.extend(self.feed(block[start]))
                        start += 1
        return out

    def _take_run(self, block: list, start: int, stop: int, out: Transcript) -> int:
        """Append to ``out`` the announcements of the run ``block[start:stop]``
        and return the index of the first edge it did not take."""
        for edge in islice(block, start, stop):
            u, v = edge
            out.extend(self._take(edge if u < v else Edge(v, u)))
        return stop

    def _take(self, edge: Edge) -> list[tuple[Edge, ColourId]]:
        raise NotImplementedError

    def _drain(self) -> list[tuple[Edge, ColourId]]:
        return []


def run_stream(colorer: StreamColorer, edges: Iterable[Edge], header: StreamHeader) -> Transcript:
    """Feed ``edges`` through ``colorer``, finish it, and return every
    announcement in order as a transcript under ``header``."""
    transcript = colorer.feed_many(edges)
    transcript.extend(colorer.finish())
    transcript.header = header
    return transcript


# ---------------------------------------------------------------------------
# File formats.
#
# Edge list:   header line `n <n> [m <m>] [seed <seed>]`, then `u v` per line,
#              stream order = line order; 0 <= u, v < n and u != v.
# Transcript:  same header line, then `u v <colour>` per line with the same
#              endpoint rules; a colour is its kind's letter and its fields,
#              each after a colon (`c:2:7`, `t:1:0:3`, `o:9`).
#
# Lines end at `\n` only, tokens are split at ASCII whitespace, and a line
# must be UTF-8.  The readers take the body in blocks of whole lines.  A
# block in the canonical form the writers emit is parsed at once by a numpy
# kernel in ``batch``; any other block, or one that fails a check, goes to
# the line parser, so every error is the line parser's.
# ---------------------------------------------------------------------------

_BLOCK_BYTES = 1 << 15  # bytes of whole lines the readers parse at a time


def _format_header(header: StreamHeader) -> str:
    parts = [f"n {header.n}"]
    if header.m is not None:
        parts.append(f"m {header.m}")
    if header.seed is not None:
        parts.append(f"seed {header.seed}")
    return " ".join(parts)


def _decoded(line: bytes, line_no: int) -> str:
    try:
        return line.decode()
    except UnicodeDecodeError:
        raise TranscriptParseError(f"not UTF-8 text: {line!r}", line_no) from None


def _parse_header(line: bytes, line_no: int) -> StreamHeader:
    text = _decoded(line, line_no)
    tokens = [token.decode() for token in line.split()]
    if len(tokens) < 2 or len(tokens) % 2 != 0 or tokens[0] != "n":
        raise TranscriptParseError(f"bad header {text!r}", line_no)
    fields: dict[str, int] = {}
    for key, value in zip(tokens[::2], tokens[1::2]):
        if key not in ("n", "m", "seed"):
            raise TranscriptParseError(f"unknown header field {key!r}", line_no)
        if key in fields:
            raise TranscriptParseError(f"repeated header field {key!r}", line_no)
        try:
            fields[key] = _decimal(value)
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


def _blocks(path: str | Path) -> tuple[bytes, StreamHeader, Iterator[tuple[int, int, int]]]:
    """A stream or transcript file's bytes, its header, and its body as
    blocks of whole lines: ``(line_no, start, stop)`` for the block
    ``data[start:stop]``, whose first line is numbered ``line_no``."""
    data = Path(path).read_bytes()
    if not data:
        raise TranscriptParseError("empty file", 1)
    body = data.find(b"\n") + 1 or len(data)
    header = _parse_header(data[:body].removesuffix(b"\n"), 1)

    def blocks(start=body, line_no=2):
        while start < len(data):
            stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
            yield line_no, start, stop
            line_no += data.count(b"\n", start, stop)
            start = stop

    return data, header, blocks()


def _parse_lines(
    text: bytes, line_no: int, n: int, shape: str
) -> Iterator[tuple[int, Edge, list[str]]]:
    """The line parser: ``(line_no, edge, tokens)`` for each non-blank line
    of ``text``, whose first line is numbered ``line_no``.  Each line must
    hold the tokens ``shape`` names (``u v`` or ``u v colour``) and an edge
    that ``checked_edge`` passes on ``n`` vertices."""
    width = len(shape.split())
    for line_no, raw in enumerate(text.split(b"\n"), start=line_no):
        tokens = raw.split()
        if not tokens:
            continue
        line = _decoded(raw, line_no)
        tokens = [token.decode() for token in tokens]
        if len(tokens) != width:
            raise TranscriptParseError(f"expected `{shape}`, got {line!r}", line_no)
        try:
            edge = Edge(_decimal(tokens[0]), _decimal(tokens[1]))
            checked_edge(edge, n)
        except ValidationError as exc:
            raise TranscriptParseError(str(exc), line_no)
        except ValueError:
            raise TranscriptParseError(f"non-integer endpoint in {line!r}", line_no)
        yield line_no, edge, tokens  # in the file's orientation


def read_edge_list(path: str | Path) -> tuple[StreamHeader, list[Edge]]:
    """Read a stream file.  A header that gives ``m`` must be followed by
    exactly ``m`` edge lines."""
    from .batch import edge_block  # numpy loads on first use

    data, header, blocks = _blocks(path)
    n, m = header.n, header.m
    edges: list[Edge] = []
    for line_no, start, stop in blocks:
        block = edge_block(data, start, stop, n)
        if block is None:
            for line_no, edge, _ in _parse_lines(data[start:stop], line_no, n, "u v"):
                if len(edges) == m:
                    raise TranscriptParseError(f"edge beyond the header's m {m}", line_no)
                edges.append(edge)
        elif m is not None and len(edges) + len(block) > m:
            # a canonical block holds one edge per line
            raise TranscriptParseError(f"edge beyond the header's m {m}", line_no + m - len(edges))
        else:
            edges += block
    if m is not None and len(edges) < m:
        raise TranscriptParseError(f"header says m {m} but the file has {len(edges)} edges", 1)
    return header, edges


def write_transcript(path: str | Path, transcript: Transcript) -> None:
    # "{} {} c:{}:{}\n" and so on, one per kind; format ignores unused fields
    lines = tuple(f"{{}} {{}} {letter}{':{}' * arity}\n".format
                  for (_, letter, _), arity in zip(_KINDS, _ARITY))
    with open(path, "w") as fh:
        fh.write(_format_header(transcript.header) + "\n")
        for u, v, kind, c0, c1, c2 in zip(*transcript.columns):
            fh.write(lines[kind](u, v, c0, c1, c2))  # format ignores unused fields


def read_transcript(path: str | Path) -> Transcript:
    """Read a transcript file straight into a transcript's columns."""
    from .batch import transcript_block  # numpy loads on first use

    data, header, blocks = _blocks(path)
    n, transcript = header.n, Transcript(header)
    for line_no, start, stop in blocks:
        if transcript_block(data, start, stop, n, transcript):
            continue
        records = []
        for line_no, edge, tokens in _parse_lines(data[start:stop], line_no, n, "u v colour"):
            try:
                record = (edge, parse_colour(tokens[2]))
                _check_held(record)
            except ValidationError as exc:
                raise TranscriptParseError(str(exc), line_no)
            records.append(record)
        transcript.extend(records)
    return transcript
