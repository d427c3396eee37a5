"""Experiment harness: generate, colour under the meter, verify, report.

One CSV row per (spec, seed).  Rows are deterministic except for the wall
time column, which is reported for convenience and excluded from any
reproducibility comparison.
"""

from __future__ import annotations

import csv
import io
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .bipartite import BipartiteColorer
from .chunked import ChunkColorer, ChunkConfig
from .core import (
    Edge,
    StreamColorer,
    StreamHeader,
    Transcript,
    ValidationError,
    run_stream,
    write_transcript,
)
from .generators import (
    ArrivalOrder,
    GraphFamily,
    default_alpha,
    default_signature_bits,
    generate,
)
from .verify import VerificationReport, colour_budget, verify

ALGORITHMS = ("chunk", "bipartite")  # the paper's two colourers
CSV_VERSION = "streamcolor-csv-1"
CSV_COLUMNS = [
    "algo",
    "family",
    "order",
    "seed",
    "n",
    "m",
    "max_degree",
    "param",
    "chunks",
    "colours",
    "overflow",
    "max_palette_degree",
    "peak_words",
    "peak_buffered_edges",
    "proper",
    "error",
    "wall_time_s",
]


@dataclass
class ExperimentSpec:
    family: GraphFamily
    order: ArrivalOrder
    algo: str  # one of ALGORITHMS
    seeds: list[int]
    alpha: int | None = None  # chunk scale; default ceil(log2 n)
    s: int | None = None  # signature width; default ceil(36 ln n)
    out_dir: Path | None = None  # transcripts written here when set

    def __post_init__(self):
        check_parameters(self.algo, self.alpha, self.s)
        if not self.seeds:
            raise ValidationError("at least one seed is required")


def check_parameters(algo: str, alpha: int | None, s: int | None) -> None:
    """The one check of an algorithm and its parameters, for ``run`` and
    ``sweep`` alike: a known algorithm, no parameter of the other one, and
    every parameter given at least 1."""
    if algo not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algo!r}")
    if algo == "chunk" and s is not None:
        raise ValidationError("s is a bipartite parameter")
    if algo == "bipartite" and alpha is not None:
        raise ValidationError("alpha is a chunk parameter")
    for name, value in (("alpha", alpha), ("s", s)):
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value}")


def _make_colorer(spec: ExperimentSpec, n: int, seed: int):
    if spec.algo == "chunk":
        alpha = spec.alpha if spec.alpha is not None else default_alpha(n)
        return ChunkColorer(ChunkConfig(n=n, alpha=alpha)), alpha
    s = spec.s if spec.s is not None else default_signature_bits(n)
    return BipartiteColorer(n, s, seed), s


def colour_pass(
    row: dict, colorer: StreamColorer, param: int, header: StreamHeader, edges: list[Edge],
    started: float, save: Callable[[Transcript], None] | None = None,
) -> tuple[Transcript, VerificationReport]:
    """The one step behind every CSV row, for ``run_single`` and
    ``streamcolor run`` alike: colour ``edges`` with ``colorer``, verify the
    transcript, hand it to ``save`` and fill ``row``'s measured columns.
    ``proper`` is 1 only if the transcript is proper, keeps the colour
    budget of ``row["algo"]`` and announces exactly the multiset of
    ``edges``.  ``wall_time_s`` runs from ``started``, taken before the
    stream was generated or read, until the transcript is saved."""
    from .batch import same_edge_multiset  # numpy loads on first use

    transcript = run_stream(colorer, edges, header)
    report = verify(transcript)
    in_budget = colour_budget(report, row["algo"], s=param).passed  # only bipartite reads s
    row.update(
        n=header.n,
        m=len(edges),
        max_degree=report.max_degree,
        param=param,
        chunks=sum(k[0] == "chunk" for k in report.per_palette_stats),
        colours=report.distinct_colours,
        overflow=report.overflow_colours,
        max_palette_degree=max(
            (st.max_degree for st in report.per_palette_stats.values()), default=0
        ),
        peak_words=colorer.meter.peak_words,
        peak_buffered_edges=colorer.peak_buffered_edges,
        proper=int(report.proper and in_budget and same_edge_multiset(edges, transcript)),
    )
    if save is not None:
        save(transcript)
    row["wall_time_s"] = f"{time.perf_counter() - started:.4f}"
    return transcript, report


def run_single(spec: ExperimentSpec, seed: int) -> tuple[dict, Transcript | None]:
    """One seed of the pipeline; returns (row, transcript)."""
    start = time.perf_counter()
    row = {col: "" for col in CSV_COLUMNS}
    row.update(
        algo=spec.algo,
        family=_label(spec.family),
        order=_label(spec.order),
        seed=seed,
    )
    try:
        header, edges = generate(spec.family, spec.order, seed)
        colorer, param = _make_colorer(spec, header.n, seed)
        save = None
        if spec.out_dir is not None:
            spec.out_dir.mkdir(parents=True, exist_ok=True)
            family = row["family"].replace(os.sep, "_").replace("/", "_")  # a file family's path
            name = f"{spec.algo}_{family}_{row['order']}_{seed}.transcript"
            save = partial(write_transcript, spec.out_dir / name)
        transcript, _ = colour_pass(row, colorer, param, header, edges, start, save)
        return row, transcript
    except Exception as exc:  # record, keep the sweep going
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["proper"] = 0
        row["wall_time_s"] = f"{time.perf_counter() - start:.4f}"
        return row, None


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    return [run_single(spec, seed)[0] for seed in spec.seeds]


def _label(x) -> str:
    """Compact deterministic label for family/order values."""
    name = type(x).__name__
    fields = getattr(x, "__dataclass_fields__", {})
    parts = [str(getattr(x, f)) for f in fields if getattr(x, f) is not None]
    return name + ("(" + "-".join(parts) + ")" if parts else "")


def rows_to_csv(rows: list[dict]) -> str:
    """The version line, the header and one line per row; a field holding a
    comma, a quote or a line break is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([str(row.get(col, "")) for col in CSV_COLUMNS] for row in rows)
    return f"# {CSV_VERSION}\n" + text.getvalue()
