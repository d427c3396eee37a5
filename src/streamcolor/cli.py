"""Command line entry point.

Subcommands: generate, run, verify, color-offline, worst-case, sweep.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
STREAMCOLOR_OUT sets the default output directory (default: cwd).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from .adversary import recommended_vertex_count, worst_case_stream
from .bipartite import BipartiteColorer
from .chunked import ChunkColorer, ChunkConfig
from .core import (
    TranscriptParseError,
    ValidationError,
    read_edge_list,
    read_transcript,
    write_edge_list,
    write_transcript,
)
from .generators import (
    default_alpha,
    default_signature_bits,
    generate,
    parse_family,
    parse_order,
)
from .harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    GreedyStreamColorer,
    colour_pass,
    rows_to_csv,
    run_experiment,
)
from .offline import AdjacencyGraph, color_greedy, color_vizing, colours_used, is_proper
from .verify import chunk_concentration, verify
from .verify import colour_budget  # noqa: F401  (unused; perfbench/spans.py wraps it)


def _out_dir() -> Path:
    return Path(os.environ.get("STREAMCOLOR_OUT", "."))


def _resolve(path: str | None, default_name: str) -> Path:
    if path is None:
        return _out_dir() / default_name
    p = Path(path)
    return p if p.is_absolute() or p.parent != Path(".") else _out_dir() / p


def _cmd_generate(args) -> int:
    family = parse_family(args.family)
    order = parse_order(args.order)
    header, edges = generate(family, order, args.seed)
    out = _resolve(args.output, "stream.el")
    write_edge_list(out, header, edges)
    print(f"wrote {len(edges)} edges on {header.n} vertices to {out}")
    return 0


def _cmd_run(args) -> int:
    started = time.perf_counter()
    header, edges = read_edge_list(args.graph)
    n = header.n
    seed = args.seed if args.seed is not None else (header.seed or 0)
    if args.algo == "chunk":
        param = args.alpha if args.alpha is not None else default_alpha(n)
        colorer = ChunkColorer(ChunkConfig(n=n, alpha=param))
    elif args.algo == "bipartite":
        param = args.s if args.s is not None else default_signature_bits(n)
        colorer = BipartiteColorer(n, param, seed)
    else:
        colorer, param = GreedyStreamColorer(n), 0
    out = _resolve(args.output, "run.transcript")
    row = {"algo": args.algo, "family": args.graph, "order": "as-given", "seed": seed}
    _, report = colour_pass(row, colorer, param, header, edges, started,
                            partial(write_transcript, out))
    _emit_csv([row], args.csv)
    print(
        f"{args.algo}: {row['colours']} colours on m={row['m']} "
        f"max_degree={row['max_degree']}, proper={report.proper}, "
        f"peak_words={row['peak_words']}, transcript: {out}"
    )
    return 0 if row["proper"] else 1


def _cmd_verify(args) -> int:
    transcript = read_transcript(args.transcript)
    report = verify(transcript)
    _, graph_edges = read_edge_list(args.graph)
    # both readers reject self-loops, so each pair has one canonical form;
    # one Counter, less the announced pairs, holds half the memory of two
    unmatched = Counter((u, v) if u < v else (v, u) for u, v in graph_edges)
    unmatched.subtract((u, v) if u < v else (v, u) for (u, v), _ in transcript.records)
    complete = not any(unmatched.values())

    if args.csv:
        row = {col: "" for col in CSV_COLUMNS}
        row.update(
            algo="verify",
            family=args.graph,
            n=transcript.header.n,
            m=len(transcript.records),
            max_degree=report.max_degree,
            colours=report.distinct_colours,
            overflow=report.overflow_colours,
            proper=int(report.proper and complete),
        )
        print(rows_to_csv([row]), end="")
    else:
        print(f"records: {report.records}  distinct colours: {report.distinct_colours}")
        print(f"max degree: {report.max_degree}  overflow colours: {report.overflow_colours}")
        print(f"covers input edge multiset: {complete}")
        if report.duplicate_edges:
            print(f"duplicate edges: {report.duplicate_edges}")
        for key in sorted(report.per_palette_stats):
            st = report.per_palette_stats[key]
            print(
                f"  palette {key}: edges={st.edge_count} max_degree={st.max_degree}"
                + (f" max_local={st.max_local}" if key[0] == "chunk" else "")
                + (
                    f" max_left={st.max_left} max_right={st.max_right}"
                    if key[0] == "triple"
                    else ""
                )
            )
        if report.records and all(key[0] == "chunk" for key in report.per_palette_stats):
            if len(report.per_palette_stats) >= 2:
                conc = chunk_concentration(transcript)
                print(
                    f"chunk concentration over {conc.num_chunks} chunks: "
                    f"mean d_i(u)/(d(u)/N) = {conc.mean_ratio:.3f}, max = {conc.max_ratio:.3f}"
                )
            else:
                # one chunk holds every edge, so each ratio is 1 by construction
                print("chunk concentration: not measured over a single chunk")
        if report.proper:
            print("PROPER")
        else:
            print(f"NOT PROPER: {len(report.conflicts)} conflicts")
            for e1, e2, vertex, colour in report.conflicts[: args.max_conflicts]:
                print(f"  {e1} and {e2} share vertex {vertex} and colour {colour}")
    return 0 if (report.proper and complete) else 1


def _cmd_color_offline(args) -> int:
    header, edges = read_edge_list(args.graph)
    graph = AdjacencyGraph.from_edges(header.n, edges)
    colouring = color_vizing(graph) if args.method == "vizing" else color_greedy(graph)
    ok = is_proper(graph, colouring)
    print(
        f"{args.method}: {colours_used(colouring)} colours, "
        f"max_degree={graph.max_degree}, proper={ok}"
    )
    return 0 if ok else 1


def _cmd_worst_case(args) -> int:
    n = args.n if args.n is not None else recommended_vertex_count(args.delta, args.s)
    colorer = BipartiteColorer(n, args.s, args.seed, expose_randomness=True)
    result = worst_case_stream(colorer, args.delta)
    stream_out = _resolve(args.output, "worst_case.el")
    transcript_out = _resolve(args.transcript, "worst_case.transcript")
    write_edge_list(stream_out, result.header, result.edges)
    write_transcript(transcript_out, result.transcript)
    floor = args.delta * args.delta / (4 * args.s)
    print(
        f"forced {result.distinct_colours} distinct colours "
        f"(grid target {result.target_colours}, floor delta^2/(4s) = {floor:.0f}) "
        f"with {len(result.edges)} edges on {n} vertices"
    )
    print(f"stream: {stream_out}\ntranscript: {transcript_out}")
    return 0 if result.distinct_colours >= floor else 1


def _parse_int_list(text: str) -> list[int]:
    """Accept `1,2,3` and `0..9` range syntax."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValidationError(f"expected `1,2,3` or `lo..hi` integers, got {text!r}") from None


def _cmd_sweep(args) -> int:
    family = parse_family(args.family)
    order = parse_order(args.order)
    seeds = _parse_int_list(args.seeds)
    alphas = _parse_int_list(args.alpha) if args.alpha else [None]
    widths = _parse_int_list(args.s) if args.s else [None]
    # every spec is built, and so checked, before the first run
    specs = [
        ExperimentSpec(
            family=family,
            order=order,
            algo=args.algo,
            seeds=seeds,
            alpha=alpha,
            s=s,
            out_dir=Path(args.transcripts) if args.transcripts else None,
        )
        for alpha in alphas
        for s in widths
    ]
    rows = [row for spec in specs for row in run_experiment(spec)]
    _emit_csv(rows, args.csv)
    bad = [r for r in rows if not r["proper"]]
    return 1 if bad else 0


def _emit_csv(rows: list[dict], path: str | None) -> None:
    text = rows_to_csv(rows)
    if path:
        target = _resolve(path, path)
        new = not target.exists()
        with open(target, "a") as fh:
            fh.write(text if new else "\n".join(text.splitlines()[2:]) + "\n")
    else:
        print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="One-pass streaming edge colouring experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an edge stream file")
    p.add_argument("--family", required=True, help="complete:N | bipartite:A:B | star:T | gnp:N:P | regular:N:D | file:PATH")
    p.add_argument("--order", default="as-given", help="as-given | random[:seed] | sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="colour a stream file and verify the transcript")
    p.add_argument("--algo", choices=("chunk", "bipartite", "greedy-baseline"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=int, help="chunk scale (default ceil(log2 n))")
    p.add_argument("--s", type=int, help="signature bits (default ceil(36 ln n))")
    p.add_argument("--seed", type=int, help="colourer seed (default: stream header seed)")
    p.add_argument("-o", "--output")
    p.add_argument("--csv", help="append the metrics row to this CSV file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="check a transcript against its input graph")
    p.add_argument("transcript")
    p.add_argument("graph")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--max-conflicts", type=int, default=20)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("color-offline", help="offline-colour a whole graph file")
    p.add_argument("graph")
    p.add_argument("--method", choices=("vizing", "greedy"), default="vizing")
    p.set_defaults(func=_cmd_color_offline)

    p = sub.add_parser("worst-case", help="drive the adversary against a live colourer")
    p.add_argument("--delta", type=int, required=True, help="degree budget")
    p.add_argument("--s", type=int, required=True, help="signature bits of the target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help="target colourer vertex count")
    p.add_argument("-o", "--output", help="stream file")
    p.add_argument("--transcript", help="transcript file")
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("sweep", help="run a seed/parameter sweep and emit CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--order", default="random")
    p.add_argument("--algo", choices=("chunk", "bipartite", "greedy-baseline"), required=True)
    p.add_argument("--alpha", help="comma list or lo..hi, chunk only")
    p.add_argument("--s", help="comma list or lo..hi, bipartite only")
    p.add_argument("--seeds", default="0..4")
    p.add_argument("--csv", help="append rows to this CSV file")
    p.add_argument("--transcripts", help="directory for per-run transcripts")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, TranscriptParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
