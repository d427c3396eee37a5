"""In-memory spans around the benchmark's calls into streamcolor.

Spans are opened only from the benchmark's own files: around the calls the
workloads make, around module attributes that ``harness`` and ``cli`` look up
at call time (``installed`` swaps them for the duration of a traced pass), and
around the ``feed``/``finish`` methods of the colourers it builds.  Names
that other modules bind at import time (``ChunkColorer``'s offline step) are
out of reach; ``offline_retime`` covers that one.

Each span name accumulates its total duration, its self time (duration minus
the time its child spans cover) and its call count.  With ``heap=True`` and
tracemalloc running, a span also records the largest heap growth it saw
above its start; per-edge spans skip this bookkeeping.
"""

from __future__ import annotations

import contextlib
import os
import time
import tracemalloc
from collections import defaultdict

from streamcolor import (
    AdjacencyGraph,
    BipartiteColorer,
    ChunkColorer,
    cli,
    color_vizing,
    harness,
)

MB = 1 << 20


def _path_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# counts taken at the same boundaries as the spans: span -> (counter, how)
COUNTERS = {
    "generators.generate": [("generators.edges", lambda args, result: len(result[1]))],
    "verify.verify": [("verify.records", lambda args, result: len(args[0].records))],
    "adversary.worst_case": [
        ("adversary.edges", lambda args, result: len(result.edges)),
        ("adversary.colours", lambda args, result: result.distinct_colours),
    ],
    "core.read_edge_list": [("core.bytes_io", _path_bytes)],
    "core.write_edge_list": [("core.bytes_io", _path_bytes)],
    "core.read_transcript": [("core.bytes_io", _path_bytes)],
    "core.write_transcript": [("core.bytes_io", _path_bytes)],
}

# module attributes swapped while tracing: (module, attribute, span name)
PATCHES = (
    (harness, "generate", "generators.generate"),
    (harness, "verify", "verify.verify"),
    (harness, "colour_budget", "verify.colour_budget"),
    (cli, "generate", "generators.generate"),
    (cli, "read_edge_list", "core.read_edge_list"),
    (cli, "write_edge_list", "core.write_edge_list"),
    (cli, "read_transcript", "core.read_transcript"),
    (cli, "write_transcript", "core.write_transcript"),
    (cli, "verify", "verify.verify"),
    (cli, "colour_budget", "verify.colour_budget"),
    (cli, "chunk_concentration", "verify.chunk_concentration"),
)


class Tracer:
    def __init__(self, heap: bool = False):
        self.heap = heap
        self.stack: list[list] = []  # [name, start, child time, heap start, heap peak]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.heap_mb: dict[str, float] = defaultdict(float)
        self.colourers: list[tuple[str, object]] = []
        self._peak = 0

    # -- spans ---------------------------------------------------------------

    def _fold(self) -> int:
        """Charge tracemalloc's peak since the last fold to every open span,
        then restart the peak; returns the peak."""
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.stack:
            if peak > frame[4]:
                frame[4] = peak
        self._peak = max(self._peak, peak)
        tracemalloc.reset_peak()
        return peak

    def peak(self) -> int:
        """tracemalloc's peak since tracing started, across folds."""
        return max(self._peak, tracemalloc.get_traced_memory()[1])

    def _enter(self, name: str) -> None:
        frame = [name, 0.0, 0.0, 0, 0]
        if self.heap:
            self._fold()
            frame[3] = frame[4] = tracemalloc.get_traced_memory()[0]
        self.stack.append(frame)
        frame[1] = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        if self.heap:
            self._fold()
        name, start, child, heap_start, heap_peak = self.stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if self.heap:
            self.heap_mb[name] = max(self.heap_mb[name], (heap_peak - heap_start) / MB)

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            result = fn(*args, **kwargs)
        for counter, how in COUNTERS.get(name, ()):
            self.counts[counter] += how(args, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def leaf(self, name: str, fn):
        """A per-edge span: timed and counted, no heap bookkeeping."""

        def traced(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                duration = time.perf_counter() - start
                self.total[name] += duration
                self.self_time[name] += duration
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][2] += duration

        return traced

    # -- colourers -----------------------------------------------------------

    def bipartite(self, *args, **kwargs):
        colorer = self.call("bipartite.init", BipartiteColorer, *args, **kwargs)
        colorer.feed = self.leaf("bipartite.feed", colorer.feed)
        self.colourers.append(("bipartite", colorer))
        return colorer

    def chunked(self, *args):
        if self.heap:
            self._fold()
        colorer = self.leaf("chunked.run", ChunkColorer)(*args)
        colorer.finish = self.leaf("chunked.run", colorer.finish)
        feed = self.leaf("chunked.run", colorer.feed)
        if self.heap:
            # no span folds between here and the first flush, so tracemalloc's
            # peak at that flush is the colourer's first chunk: its buffer,
            # the offline workspace and the announcements
            base = tracemalloc.get_traced_memory()[0]

            def feed(edge, _feed=feed):
                out = _feed(edge)
                if out and "chunked" not in self.heap_mb:
                    self.heap_mb["chunked"] = (self._fold() - base) / MB
                return out

        colorer.feed = feed
        self.colourers.append(("chunked", colorer))
        return colorer

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced names into harness and cli."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        for module, attr, name in PATCHES:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for module in (harness, cli):
            saved += [(module, "BipartiteColorer", module.BipartiteColorer)]
            module.BipartiteColorer = self.bipartite
        saved.append((cli, "ChunkColorer", cli.ChunkColorer))
        cli.ChunkColorer = self.chunked
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def offline_retime(n: int, capacity: int, stream, records) -> tuple[float, float, int, bool]:
    """Time ``AdjacencyGraph.from_edges`` and ``color_vizing`` on the chunk
    slices the chunk colourer flushes for ``stream``, and check that the
    colouring matches the transcript's chunk-local colours.

    ``ChunkColorer`` binds ``color_vizing`` at import, so its own calls
    cannot be wrapped; this re-runs the same work on the same slices.
    Returns (from_edges seconds, color_vizing seconds, edges, matches).
    """
    announced = {(u, v): colour for u, v, colour in records}
    from_edges_s = vizing_s = 0.0
    matches = True
    for chunk, first in enumerate(range(0, len(stream), capacity)):
        support = list(dict.fromkeys(
            (u, v) if u < v else (v, u) for u, v in stream[first:first + capacity]
        ))
        start = time.perf_counter()
        graph = AdjacencyGraph.from_edges(n, support)
        mid = time.perf_counter()
        local = color_vizing(graph)
        end = time.perf_counter()
        from_edges_s += mid - start
        vizing_s += end - mid
        matches &= all(announced.get(e) == f"c:{chunk}:{c}" for e, c in local.items())
    return from_edges_s, vizing_s, len(stream), matches
