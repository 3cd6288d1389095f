"""Run one workload of the sweep benchmark and print its metrics.

Usage:

    python3 perfbench/run.py --workload main-audited --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it measures the package under src/.
The first sweep is the gate sweep: untimed, it warms up and checks every
g-vector match against perfbench/frozen.json.  Sweeps then repeat until
--seconds have passed.  With --trace 0 the metrics are the end-to-end ones:
times are means over the timed sweeps, set-up a median over fresh processes.
With --trace 1 untraced and traced sweeps alternate and the metrics are the
per-layer ones (see spans.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the environment and details of the
run.  The exit code is 1 when the correctness gate fails, 2 when the
package is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "accordion_tau" / "__init__.py"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "sweep_s": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "seed": seed,
    }


def measure_setup(wl, seed: int) -> float:
    """Set-up time of one fresh process, as setup_probe.py measures it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), str(wl.m), str(wl.sample)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--m", type=int, help="polygon size of an exhaustive workload")
    parser.add_argument("--sample", type=int, help="dissections in the sampled workload")
    args = parser.parse_args()

    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} is missing; run inside a full checkout", file=sys.stderr)
        return 2
    import workloads  # imports accordion_tau from src/

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.m and not wl.sample:
        wl = dataclasses.replace(wl, m=args.m)
    if args.sample and wl.sample:
        wl = dataclasses.replace(wl, sample=args.sample)

    info = environment(args.seed)
    info.update(workload=wl.name, driver=wl.driver, m=wl.m, trace=args.trace)
    setup: list[float] = []
    frozen = workloads.load_frozen()
    inputs = workloads.build_inputs(wl, args.seed, frozen)

    problems: list[str] = []
    attempted = failed = 0
    cpu = wall = 0.0

    def sweep(gate: bool = False, tracer=None):
        nonlocal attempted, failed, cpu, wall
        c0, w0 = time.process_time(), time.perf_counter()
        with spans.Patches() as patches:
            if tracer is not None:
                tracer.install(patches)
            result = workloads.run_sweep(wl, inputs, gate=gate)
        cpu += time.process_time() - c0
        wall += time.perf_counter() - w0
        found = workloads.gate_problems(wl, result, inputs, frozen, gate)
        problems.extend(found)
        attempted += result.instances + result.audited
        failed += max(result.failed, 1 if found else 0)
        return result

    sweep(gate=True)
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(sweep())
        if args.trace:
            tracers.append(spans.Tracer())
            traced.append(sweep(tracer=tracers[-1]))
        else:
            # interleaved with the sweeps, so set-up samples the same host phases
            setup.append(measure_setup(wl, args.seed))
        if time.perf_counter() >= deadline:
            break
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(wl, args.seed))

    # Slow host phases last seconds, so a run's sweeps mix two speeds, and a
    # median jumps between them while a mean moves with the share of slow time.
    sweep_s = statistics.mean(s.seconds for s in plain)
    info.update(
        sweeps=len(plain),
        sweep_seconds=[s.seconds for s in plain],
        setup_seconds=setup,
        cpu_per_wall=cpu / wall,
        failed_frac=failed / attempted,
        instances=plain[0].instances,
        audited=plain[0].audited,
    )
    if args.trace:
        metrics = trace_metrics(wl, plain, traced, tracers, problems)
        info["spans"] = tracers[-1].dump()
    else:
        per_instance = [statistics.mean(col) for col in zip(*(s.latencies for s in plain))]
        percentile, tail = workloads.tail(per_instance)
        info.update(tail_percentile=percentile, latency_samples=len(per_instance))
        values = {
            "sweep_s": sweep_s,
            "instances_per_s": plain[0].instances / sweep_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "instance_p50_ms": statistics.median(per_instance) * 1000,
            "instance_tail_ms": tail * 1000,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems else 0


def trace_metrics(wl, plain, traced, tracers, problems) -> dict:
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers[1:]):
        problems.append("traced call counts differ between sweeps of the same inputs")
    # counts and ratios repeat exactly, so only times need a median
    layers = [spans.layer_metrics(t) for t in tracers]
    values = {
        name: statistics.median(layer[name] for layer in layers) if name.endswith("_s") else value
        for name, value in layers[0].items()
    }
    traced_s = statistics.mean(s.seconds for s in traced)
    driver = f"verify.{wl.driver}"
    values.update(
        {
            "trace.sweep_s": traced_s,
            "trace.overhead_frac": traced_s / statistics.mean(s.seconds for s in plain) - 1,
            "trace.driver_self_s": statistics.median(t.spans[driver].self_s for t in tracers),
            "trace.accounted_frac": statistics.median(
                t.self_total() / s.seconds for t, s in zip(tracers, traced)
            ),
        }
    )
    return {
        name: {"value": values[name], "unit": spans.unit_and_better(name)[0]}
        for name in spans.PER_LAYER
    }


if __name__ == "__main__":
    sys.exit(main())
