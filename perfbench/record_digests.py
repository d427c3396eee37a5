"""Record the transcript sha256 of every configuration for seeds 0..31 into
digests.json.  The gate then requires these exact transcripts for those
seeds; other seeds get the structural checks alone.  Re-record only when a
change is meant to alter colourings.

Usage: python3 perfbench/record_digests.py
"""

import json
import shutil

from run import WORK_DIR, import_program

import_program()

from workloads import DIGESTS_PATH, WORKLOADS, Gate, NullProbe, transcript_digest  # noqa: E402

seeds = range(32)
workdir = WORK_DIR / "record"
workdir.mkdir(parents=True, exist_ok=True)
digests = {}
try:
    for name, workload in WORKLOADS.items():
        gate = Gate(name, digests={})
        for seed in seeds:
            for cfg in workload.configs(seed):
                result = workload.run(cfg, NullProbe(), workdir)
                problems = gate.check(cfg, result, workdir)
                if problems:
                    raise SystemExit(f"{name} {cfg}: {problems}")
                digests.setdefault(name, {}).setdefault(str(seed), {})[cfg.label] = transcript_digest(result)
            print(name, seed, flush=True)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
