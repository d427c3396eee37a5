"""Set-up probe: a fresh interpreter imports streamcolor and builds one
workload's colourers, then prints ``ready``.  ``run.py`` times each probe
from spawn to that line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import build_colorers  # noqa: E402  (imports streamcolor)

build_colorers(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
