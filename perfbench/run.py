"""streamcolor benchmark: one workload per invocation, in one process and one
thread.  A closed loop of one caller starts the next pipeline run only when
the previous one has finished, cycling over the workload's configurations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a separate traced pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md
for the method.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 21
MB = 1 << 20


def import_program() -> None:
    package = SRC / "streamcolor"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no streamcolor sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import streamcolor

    if Path(streamcolor.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported streamcolor from {streamcolor.__file__}, not {package}")


def measure_setup(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh interpreter that imports streamcolor
    and builds the workload's colourers."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


class Runner:
    """Runs pipeline runs, times them and passes each output to the gate."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS, Gate

        self.workload = WORKLOADS[workload]
        self.configs = self.workload.configs(seed)
        self.gate = Gate(workload)
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.timing = False  # inside a run's timed region
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def run(self, cfg, probe, measure=None, after=None):
        """One pipeline run; returns its wall seconds and input edges, or
        None if it failed.  ``measure(result)`` runs right after the timed
        region, before the gate; ``after(cfg, result)`` after the gate."""
        self.attempted += 1
        gc.collect()  # every run starts from the same heap, see NOTES.md
        self.timing = True
        start = time.perf_counter()
        try:
            result = self.workload.run(cfg, probe, self.workdir)
        except Exception as exc:  # a failed run is counted, the loop goes on
            self.failures.append(f"{cfg.label} seed {cfg.seed}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.timing = False
        seconds = time.perf_counter() - start
        if measure is not None:
            measure(result)
        problems = self.gate.check(cfg, result, self.workdir)
        if problems:
            self.failures.append(f"{cfg.label} seed {cfg.seed}: {'; '.join(problems)}")
            return None
        if after is not None:
            after(cfg, result)
        return seconds, result.edges

    def loop(self, budget: float, probe, after=None, idle=None) -> list[tuple]:
        """Whole cycles over the configurations until ``budget`` seconds of
        pipeline time are spent; returns (config, seconds, edges) samples.
        ``idle(spent / budget)`` runs between pipeline runs."""
        samples = []
        spent = 0.0
        while True:
            for cfg in self.configs:
                started = time.perf_counter()
                timed = self.run(cfg, probe, after=after)
                if timed is None:
                    spent += time.perf_counter() - started
                else:
                    samples.append((cfg, *timed))
                    spent += timed[0]
                if idle is not None:
                    idle(spent / budget)
            if spent >= budget:
                return samples

    @contextlib.contextmanager
    def counting_gc(self):
        """Count cyclic GC inside the timed region of each run, not the
        collections between runs or the gate's."""
        gc.callbacks.append(self._gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._gc)

    def _gc(self, phase, info) -> None:
        if not self.timing:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def per_config_median(samples) -> float:
    by_config: dict = {}
    for cfg, seconds, _ in samples:
        by_config.setdefault(cfg, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def end_to_end(args, runner: Runner) -> dict:
    from workloads import NullProbe

    setup: list[float] = []

    def probe_setup(progress: float) -> None:
        # the probes are spread over the measuring window, so that they see
        # the same phases of processor speed as the timed runs
        while len(setup) < SETUP_PROBES * min(1.0, progress):
            setup.append(measure_setup(args.workload, args.seed))

    # memory pass: the first run in this process, untimed; it also warms the
    # process up.  Its peak heap is the growth of the resident-set high-water
    # mark (tracemalloc would slow the run 5-6x; the traced pass keeps it).
    peak = {}
    start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def read_peak(result):
        peak["kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start_kb

    runner.run(runner.configs[0], NullProbe(), measure=read_peak)

    samples = runner.loop(args.seconds, NullProbe(), idle=probe_setup)
    probe_setup(1.0)
    total_s = sum(s for _, s, _ in samples)
    total_edges = sum(e for _, _, e in samples)
    ratios = list(runner.gate.colour_ratio.values())
    times = sorted(s for _, s, _ in samples) or [0.0]
    print(
        f"{args.workload}: {len(samples)} timed runs over {len(runner.configs)} configurations, "
        f"{SETUP_PROBES} set-up probes, 1 memory-pass run; "
        f"run seconds min/median/max = {times[0]:.3f}/{statistics.median(times):.3f}/{times[-1]:.3f}"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "edges_per_s": (total_edges / total_s if total_s else 0.0, "1/s"),
        "run_s_p50": (per_config_median(samples) if samples else 0.0, "s"),
        "peak_heap_mb": (peak.get("kb", 0) / 1024, "MB"),
        "colour_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
    }


def per_layer(args, runner: Runner) -> dict:
    from spans import Tracer, offline_retime
    from workloads import CLI_ALPHA, CLI_N, NullProbe

    # memory pass: spans with heap bookkeeping, untimed
    heap = Tracer(heap=True)
    mem = {}

    def read_heap(result):
        mem["peak"] = heap.peak()
        mem.update({f"{kind}.peak_words": c.meter.peak_words for kind, c in heap.colourers})
        if "chunked" in heap.heap_mb:
            mem["chunked"] = heap.heap_mb["chunked"]
        if "bipartite.peak_words" in mem:
            # the colourer's state: the heap its release gives back
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            heap.colourers.clear()
            gc.collect()
            mem["bipartite"] = (before - tracemalloc.get_traced_memory()[0]) / MB
        tracemalloc.stop()

    tracemalloc.start()
    with heap.installed():
        runner.run(runner.configs[0], heap, measure=read_heap)
    if tracemalloc.is_tracing():
        tracemalloc.stop()

    # cyclic GC is counted on untraced runs: the span wrappers allocate and
    # would add collections of their own
    with runner.counting_gc():
        untraced = runner.loop(args.seconds / 2, NullProbe())

    tracer = Tracer()
    stats = {"bipartite.overflow": 0, "bipartite.peak_words": 0, "chunked.chunks": 0,
             "chunked.peak_buffered_edges": 0, "chunked.peak_words": 0}
    offline = [0.0, 0.0, 0]

    def harvest(cfg, result):
        for kind, colorer in tracer.colourers:
            if kind == "bipartite":
                stats["bipartite.overflow"] += colorer.overflow_count
                stats["bipartite.peak_words"] = max(stats["bipartite.peak_words"], colorer.meter.peak_words)
            else:
                stats["chunked.chunks"] += colorer.chunk_index
                stats["chunked.peak_buffered_edges"] = max(
                    stats["chunked.peak_buffered_edges"], colorer.peak_buffered_edges)
                stats["chunked.peak_words"] = max(stats["chunked.peak_words"], colorer.meter.peak_words)
        tracer.colourers.clear()
        if args.workload == "chunk-cli":
            retimed = offline_retime(CLI_N, CLI_ALPHA * CLI_ALPHA * CLI_N, result.stream, result.records)
            if not retimed[3]:
                runner.failures.append(f"{cfg.label} seed {cfg.seed}: re-timed offline colouring differs")
            for i in range(3):
                offline[i] += retimed[i]

    with tracer.installed():
        traced = runner.loop(args.seconds / 2, tracer, after=harvest)

    runs = max(1, len(traced))
    wall = sum(s for _, s, _ in traced) / runs
    untraced_wall = sum(s for _, s, _ in untraced) / max(1, len(untraced))
    total, own, counts = tracer.total, tracer.self_time, tracer.counts

    def per_run(name):
        return total.get(name, 0.0) / runs

    def rate(count, span):
        return counts.get(count, 0) / total[span] if total.get(span) else 0.0

    def heap_of(prefix):
        return max((v for k, v in heap.heap_mb.items() if k.startswith(prefix)), default=0.0)

    def heap_to_meter(kind):
        words = mem.get(f"{kind}.peak_words", 0)
        return mem.get(kind, 0.0) * MB / (8 * words) if words else 0.0

    from_edges_s, vizing_s = offline[0] / runs, offline[1] / runs
    attributed = sum(own.values()) / runs
    adversary_edges = counts.get("adversary.edges", 0)
    m = {
        "generators.generate_s": (per_run("generators.generate"), "s"),
        "generators.edges_per_s": (rate("generators.edges", "generators.generate"), "1/s"),
        "generators.heap_mb": (heap_of("generators."), "MB"),
        "bipartite.init_s": (per_run("bipartite.init"), "s"),
        "bipartite.feed_s": (per_run("bipartite.feed"), "s"),
        "bipartite.edges": (tracer.calls.get("bipartite.feed", 0) / runs, "count"),
        "bipartite.overflow": (stats["bipartite.overflow"] / runs, "count"),
        "bipartite.peak_words": (stats["bipartite.peak_words"], "words"),
        "bipartite.heap_mb": (mem.get("bipartite", 0.0), "MB"),
        "bipartite.heap_to_meter": (heap_to_meter("bipartite"), "ratio"),
        "chunked.run_s": (per_run("chunked.run"), "s"),
        "chunked.self_s": (per_run("chunked.run") - from_edges_s - vizing_s, "s"),
        "chunked.chunks": (stats["chunked.chunks"] / runs, "count"),
        "chunked.peak_buffered_edges": (stats["chunked.peak_buffered_edges"], "count"),
        "chunked.peak_words": (stats["chunked.peak_words"], "words"),
        "chunked.heap_mb": (mem.get("chunked", 0.0), "MB"),
        "chunked.heap_to_meter": (heap_to_meter("chunked"), "ratio"),
        "offline.from_edges_s": (from_edges_s, "s"),
        "offline.color_vizing_s": (vizing_s, "s"),
        "offline.edges": (offline[2] / runs, "count"),
        "verify.verify_s": (per_run("verify.verify"), "s"),
        "verify.records_per_s": (rate("verify.records", "verify.verify"), "1/s"),
        "verify.colour_budget_s": (per_run("verify.colour_budget"), "s"),
        "verify.check_bipartition_s": (per_run("verify.check_bipartition"), "s"),
        "verify.chunk_concentration_s": (per_run("verify.chunk_concentration"), "s"),
        "verify.heap_mb": (heap_of("verify."), "MB"),
        "core.read_edge_list_s": (per_run("core.read_edge_list"), "s"),
        "core.write_edge_list_s": (per_run("core.write_edge_list"), "s"),
        "core.write_transcript_s": (per_run("core.write_transcript"), "s"),
        "core.read_transcript_s": (per_run("core.read_transcript"), "s"),
        "core.bytes_io": (counts.get("core.bytes_io", 0) / runs, "bytes"),
        "core.heap_mb": (heap_of("core."), "MB"),
        "adversary.worst_case_s": (per_run("adversary.worst_case"), "s"),
        "adversary.self_s": (own.get("adversary.worst_case", 0.0) / runs, "s"),
        "adversary.edges": (adversary_edges / runs, "count"),
        "adversary.useful_ratio": (
            counts.get("adversary.colours", 0) / adversary_edges if adversary_edges else 0.0, "ratio"),
        "adversary.heap_mb": (heap_of("adversary."), "MB"),
        "harness.run_single_s": (per_run("harness.run_single"), "s"),
        "harness.self_s": (own.get("harness.run_single", 0.0) / runs, "s"),
        "harness.heap_mb": (heap_of("harness."), "MB"),
        "cli.generate_s": (per_run("cli.generate"), "s"),
        "cli.run_s": (per_run("cli.run"), "s"),
        "cli.verify_s": (per_run("cli.verify"), "s"),
        "cli.self_s": (sum(v for k, v in own.items() if k.startswith("cli.")) / runs, "s"),
        "cli.heap_mb": (heap_of("cli."), "MB"),
        "runtime.gc_s": (runner.gc_s / max(1, len(untraced)), "s"),
        "runtime.gc_collections": (runner.gc_collections / max(1, len(untraced)), "count"),
        "runtime.traced_run_s": (wall, "s"),
        "runtime.tracing_overhead_s": (wall - untraced_wall, "s"),
        "runtime.unattributed_s": (wall - attributed, "s"),
        "runtime.peak_heap_mb": (mem.get("peak", 0) / MB, "MB"),
    }
    print(
        f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced runs, 1 memory-pass run; "
        f"per traced run {wall:.3f} s = {attributed:.3f} s in spans (self times) "
        f"+ {wall - attributed:.3f} s outside them; untraced run {untraced_wall:.3f} s"
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bipartite-gnp", "chunk-cli", "adversary-interactive"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        metrics = (per_layer if args.trace else end_to_end)(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another invocation still uses it

    print(f"{runner.gate.digest_checked} transcripts checked against recorded digests")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
