"""Recompute perfbench/frozen.json, the reference values of the correctness gate.

Usage:

    python3 perfbench/freeze.py [--m 6 7 8]

For each exhaustive workload and polygon size it records the instance and
audit counts and a digest of every g-vector match, in sweep order.  For
sampled-m9 it records, per 9-gon dissection, its dihedral shape class (the
sampling strata) and a short digest of its g-vector match.  Only rerun this
when a change is meant to alter outputs; the m=8 sweeps and the full 9-gon
pass take a few minutes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import workloads


def shape_class(pairs: list[tuple[int, int]], m: int) -> tuple:
    """Diagonal count, then the least image of the diagonals under the dihedral group."""
    images = (
        tuple(sorted(tuple(sorted(((s * i + r) % m, (s * j + r) % m))) for i, j in pairs))
        for r in range(m)
        for s in (1, -1)
    )
    return (len(pairs), min(images))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, nargs="+", default=[6, 7, 8])
    args = parser.parse_args()

    frozen = {}
    for wl in workloads.WORKLOADS.values():
        if wl.sample:
            population = workloads.sample_population(wl.m)
            classes = [shape_class(d.white_pairs(), wl.m) for d in population]
            rank = {c: k for k, c in enumerate(sorted(set(classes)))}
            full = dataclasses.replace(wl, sample=len(population))
            sweep = workloads.run_sweep(full, list(enumerate(population)), gate=True)
            if sweep.passed != sweep.instances:
                raise SystemExit(f"{wl.name}: {sweep.failed} dissections fail, nothing frozen")
            frozen[wl.name] = {
                "m": wl.m,
                "strata": [rank[c] for c in classes],
                "digests": [digest[:8] for digest in sweep.digests],
            }
            print(f"{wl.name}: {len(population)} dissections, {len(rank)} shape classes")
            continue
        frozen[wl.name] = {}
        for m in args.m:
            sized = dataclasses.replace(wl, m=m)
            sweep = workloads.run_sweep(sized, [], gate=True)
            if sweep.failed or sweep.generic_iso_calls:
                raise SystemExit(f"{wl.name} m={m} fails its own checks, nothing frozen")
            frozen[wl.name][str(m)] = {
                "checked": sweep.instances,
                "audited": sweep.audited,
                "digest": workloads.sweep_digest(sweep.digests),
            }
            print(f"{wl.name} m={m}: {frozen[wl.name][str(m)]}  {sweep.seconds:.1f}s")
    with open(workloads.FROZEN, "w") as fh:
        json.dump(frozen, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
