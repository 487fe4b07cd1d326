"""Set-up probe: a fresh interpreter gets one workload's inputs ready.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED INDEX

Imports apsum, parses and validates the seeded config and resolves its
spectrum and matrices, then prints ``ready``.  ``run.py`` times the span
from starting this process to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    work = workloads.WORKLOADS[name]
    work.setup(work.make(workloads.inputs_rng(seed, index)))
    print("ready", flush=True)
