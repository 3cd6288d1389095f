"""Print the seconds a fresh process takes to import accordion_tau and build
one workload's inputs.  run.py starts it several times for setup_s.

Usage:

    python3 perfbench/setup_probe.py WORKLOAD SEED M SAMPLE
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import accordion_tau  # noqa: E402,F401

imported = time.perf_counter() - start

# the benchmark's own modules and its frozen strata are not set-up of the program
import dataclasses  # noqa: E402

import workloads  # noqa: E402

name, seed, m, sample = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
wl = dataclasses.replace(workloads.WORKLOADS[name], m=m, sample=sample)
frozen = workloads.load_frozen()
start = time.perf_counter()
workloads.build_inputs(wl, seed, frozen)
print(imported + time.perf_counter() - start)
