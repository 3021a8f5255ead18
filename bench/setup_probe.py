"""Set up one workload in a fresh interpreter and exit; `run.py` times it.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

The wall time of this process is the workload's `setup_s`: interpreter
start-up, ``import fracseries`` and building the seeded inputs (for
``oracle`` also solving the problems it verifies).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir)
