"""The benchmark's three workloads: their pipeline runs, their set-up and the
checks applied to every output.

A workload is a list of configurations (one seed with one parameter each).
``run(config, probe, workdir)`` executes one pipeline run and returns a
:class:`Result`; :meth:`Gate.check` is the benchmark's own correctness gate
and runs outside the timed region.  ``probe`` is how a run opens spans and
builds colourers (:class:`NullProbe` or ``spans.Tracer``), so that the traced
and untraced passes share one pipeline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

from streamcolor import (
    BipartiteColorer,
    ChunkColorer,
    ChunkConfig,
    ExperimentSpec,
    GnpRandom,
    UniformRandomPermutation,
    check_bipartition,
    cli,
    colour_budget,
    generate,
    harness,
    recommended_vertex_count,
    verify,
    worst_case_stream,
)

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

GNP_N, GNP_P = 2048, 0.05
GNP_WIDTHS = (275, 16)  # heaviest first: the memory pass runs the first config
CLI_FAMILY, CLI_ALPHA, CLI_N = "gnp:2000:0.05", 4, 2000
ADVERSARY_CASES = ((2048, 8), (128, 16))  # (degree budget, signature width)


@dataclass(frozen=True)
class Config:
    seed: int
    label: str  # key of this configuration's transcript digest
    param: tuple = ()


@dataclass
class Result:
    """What one pipeline run leaves for the gate."""

    edges: int  # input edges taken through the pipeline
    verdict: list[str]  # the program's own checks that failed
    transcript: object = None  # in-memory transcript, when the run keeps one
    stream: list | None = None  # input stream, when the run keeps one
    # filled in by the gate
    records: list[tuple[int, int, str]] = field(default_factory=list)
    transcript_text: bytes = b""


def _colour_text(colour) -> str:
    # the three colour kinds have distinct arities
    return {2: "c", 3: "t", 1: "o"}[len(colour)] + ":" + ":".join(map(str, colour))


def _load_records(result: Result) -> None:
    result.records = [(u, v, _colour_text(c)) for (u, v), c in result.transcript.records]
    result.transcript_text = "".join(f"{u} {v} {c}\n" for u, v, c in result.records).encode()


class NullProbe:
    """Untraced runs: no spans, colourers built directly."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def bipartite(self, *args, **kwargs):
        return BipartiteColorer(*args, **kwargs)


# ---------------------------------------------------------------------------
# bipartite-gnp: harness.run_single with the bit-signature colourer


def gnp_configs(seed: int) -> list[Config]:
    return [Config(seed, f"s{s}", (s,)) for s in GNP_WIDTHS]


def gnp_run(cfg: Config, probe, workdir: Path) -> Result:
    (s,) = cfg.param
    spec = ExperimentSpec(
        family=GnpRandom(GNP_N, GNP_P),
        order=UniformRandomPermutation(),
        algo="bipartite",
        seeds=[cfg.seed],
        s=s,
    )
    row, transcript = probe.call("harness.run_single", harness.run_single, spec, cfg.seed)
    if transcript is None:
        return Result(edges=0, verdict=[f"run_single: {row['error']}"])
    verdict = [] if row["proper"] == 1 else ["run_single: not proper or over budget"]
    return Result(edges=row["m"], verdict=verdict, transcript=transcript)


def gnp_stream(cfg: Config) -> list[tuple[int, int]]:
    _, edges = generate(GnpRandom(GNP_N, GNP_P), UniformRandomPermutation(), cfg.seed)
    return [tuple(e) for e in edges]


def gnp_bits(cfg: Config, records) -> list[str]:
    # the colourer is rebuilt from its seed to read its signature bits
    colorer = BipartiteColorer(GNP_N, cfg.param[0], cfg.seed)
    for u, v, colour in records:
        if colour.startswith("t:"):
            i = int(colour.split(":")[1])
            if colorer.bit(u, i) == colorer.bit(v, i):
                return [f"edge ({u},{v}) is not across slice {i}"]
    return []


# ---------------------------------------------------------------------------
# chunk-cli: generate, run and verify through cli.main, with files


def cli_configs(seed: int) -> list[Config]:
    return [Config(seed, f"alpha{CLI_ALPHA}")]


def cli_run(cfg: Config, probe, workdir: Path) -> Result:
    graph, out = workdir / "stream.el", workdir / "run.transcript"
    steps = (
        ("generate", ["--family", CLI_FAMILY, "--order", "random", "--seed", str(cfg.seed), "-o", str(graph)]),
        ("run", ["--algo", "chunk", "--alpha", str(CLI_ALPHA), "--graph", str(graph), "-o", str(out)]),
        ("verify", [str(out), str(graph)]),
    )
    verdict = []
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in steps:
            code = probe.call(f"cli.{name}", cli.main, [name, *argv])
            if code != 0:
                verdict.append(f"cli {name} exited with {code}")
    return Result(edges=0, verdict=verdict)  # the gate counts the edges


def cli_files(cfg: Config, workdir: Path, result: Result) -> None:
    """Parse the run's files into the result, outside the timed region."""
    lines = (workdir / "stream.el").read_text().splitlines()[1:]
    result.stream = [tuple(map(int, line.split())) for line in lines if line.strip()]
    result.edges = len(result.stream)
    raw = (workdir / "run.transcript").read_bytes()
    result.transcript_text = raw
    result.records = []
    for line in raw.decode().splitlines()[1:]:
        if line.strip():
            u, v, colour = line.split()
            result.records.append((int(u), int(v), colour))


# ---------------------------------------------------------------------------
# adversary-interactive: the worst-case stream against a live colourer


def adversary_configs(seed: int) -> list[Config]:
    return [Config(seed, f"delta{d}_s{s}", (d, s)) for d, s in ADVERSARY_CASES]


def adversary_floor(delta: int, s: int) -> int:
    return ceil(delta * delta / (4 * s))


def adversary_run(cfg: Config, probe, workdir: Path) -> Result:
    delta, s = cfg.param
    n = recommended_vertex_count(delta, s)
    colorer = probe.bipartite(n, s, cfg.seed, expose_randomness=True)
    result = probe.call("adversary.worst_case", worst_case_stream, colorer, delta)
    report = probe.call("verify.verify", verify, result.transcript)
    budget = probe.call("verify.colour_budget", colour_budget, report, "bipartite", s=s)
    across = probe.call("verify.check_bipartition", check_bipartition, result.transcript, colorer)
    verdict = []
    if not report.proper:
        verdict.append("verify: not proper")
    if not budget.passed:
        verdict.append(f"colour_budget: {budget.detail}")
    if not across:
        verdict.append("check_bipartition failed")
    if result.distinct_colours < adversary_floor(delta, s):
        verdict.append(f"forced {result.distinct_colours} colours, below the floor")
    return Result(
        edges=len(result.edges),
        verdict=verdict,
        transcript=result.transcript,
        stream=result.edges,
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    configs: object  # seed -> list[Config], one cycle of the closed loop
    run: object  # (Config, probe, workdir) -> Result


WORKLOADS = {
    "bipartite-gnp": Workload(gnp_configs, gnp_run),
    "chunk-cli": Workload(cli_configs, cli_run),
    "adversary-interactive": Workload(adversary_configs, adversary_run),
}


def build_colorers(name: str, seed: int) -> list:
    """The colourers a workload builds before it takes its first edge."""
    if name == "bipartite-gnp":
        return [BipartiteColorer(GNP_N, s, seed) for s in GNP_WIDTHS]
    if name == "chunk-cli":
        return [ChunkColorer(ChunkConfig(n=CLI_N, alpha=CLI_ALPHA))]
    return [
        BipartiteColorer(recommended_vertex_count(d, s), s, seed, expose_randomness=True)
        for d, s in ADVERSARY_CASES
    ]


def _sorted_pairs_digest(pairs) -> str:
    canon = sorted((u, v) if u < v else (v, u) for u, v in pairs)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def _first_conflict(records) -> str | None:
    seen = set()
    for u, v, colour in records:
        for x in (u, v):
            if (x, colour) in seen:
                return f"vertex {x} sees colour {colour} twice"
            seen.add((x, colour))
    return None


def transcript_digest(result: Result) -> str:
    return hashlib.sha256(result.transcript_text).hexdigest()


class Gate:
    """The benchmark's correctness gate, independent of the library's own
    ``verify``: announced edges against the input stream as multisets,
    properness from the records, and the transcript's sha256 against the
    digest recorded for this seed, when one was recorded."""

    def __init__(self, workload: str, digests: dict | None = None):
        self.workload = workload
        if digests is None:
            digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
        self.digests = digests.get(workload, {})
        self.inputs: dict[int, tuple[str, int]] = {}  # input digest, max degree
        self.colour_ratio: dict[Config, float] = {}
        self.digest_checked = 0

    def _input(self, cfg: Config, result: Result) -> tuple[str, int]:
        if self.workload == "bipartite-gnp":
            key = cfg.seed  # both widths colour the same stream
            if key not in self.inputs:
                self.inputs[key] = self._summarise(gnp_stream(cfg))
            return self.inputs[key]
        return self._summarise(result.stream)

    @staticmethod
    def _summarise(stream) -> tuple[str, int]:
        degree: dict[int, int] = {}
        for u, v in stream:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        return _sorted_pairs_digest(stream), max(degree.values(), default=0)

    def check(self, cfg: Config, result: Result, workdir: Path) -> list[str]:
        failures = list(result.verdict)
        if self.workload == "chunk-cli":
            cli_files(cfg, workdir, result)
        elif result.transcript is not None:
            _load_records(result)
        if not result.records:
            return failures or ["no transcript"]
        input_digest, max_degree = self._input(cfg, result)
        if _sorted_pairs_digest((u, v) for u, v, _ in result.records) != input_digest:
            failures.append("announced edges differ from the input stream")
        conflict = _first_conflict(result.records)
        if conflict:
            failures.append(conflict)
        if self.workload == "bipartite-gnp":
            failures += gnp_bits(cfg, result.records)
        want = self.digests.get(str(cfg.seed), {}).get(cfg.label)
        if want is not None:
            self.digest_checked += 1
            if transcript_digest(result) != want:
                failures.append("transcript sha256 differs from the recorded digest")
        colours = len({colour for _, _, colour in result.records})
        self.colour_ratio[cfg] = colours / max_degree if max_degree else 0.0
        return failures
