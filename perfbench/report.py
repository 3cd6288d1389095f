"""Run every benchmark workload, each in a fresh process, and print a table.

Usage:

    python3 perfbench/report.py [--seconds 25] [--seed 1] [--trace] [--m 8]

Prints every end-to-end metric of every workload by name with its unit,
plus failed_frac and the environment each run recorded; with --trace, the
per-layer metrics of a separate traced run too.  Exits 1 if the correctness
gate fails on any run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parent / "BENCHMARK.json"


def run(workload: str, args, trace: int) -> tuple[dict, dict, int]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.m:
        cmd += ["--m", str(args.m)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {}, {"correct": False, "metrics": {}}, proc.returncode or 1
    return json.loads(lines[-2])["info"], json.loads(lines[-1]), proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    parser.add_argument("--m", type=int, help="polygon size of the exhaustive workloads")
    args = parser.parse_args()

    with open(MANIFEST) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    bad = 0
    print(f"{'workload':<14} {'metric':<44} {'value':>14}  unit")
    for name in names:
        for trace in (0, 1) if args.trace else (0,):
            info, result, code = run(name, args, trace)
            if code or not result["correct"]:
                bad += 1
                print(f"{name:<14} correctness gate FAILED (exit {code})")
            for metric, entry in result["metrics"].items():
                print(f"{name:<14} {metric:<44} {entry['value']:>14.6g}  {entry['unit']}")
            if info and not trace:
                print(f"{name:<14} {'failed_frac':<44} {info['failed_frac']:>14.6g}  ratio")
                print(
                    f"{name:<14} m={info['m']} instances={info['instances']} "
                    f"sweeps={info['sweeps']} tail=p{info['tail_percentile']:g} of "
                    f"{info['latency_samples']} python={info['python']} nproc={info['nproc']} "
                    f"load={info['loadavg'][0]:.2f} commit={info['commit']} seed={info['seed']}"
                )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
