"""Run every theorem check over all dissections of polygons up to --max-m.

Usage:

    python scripts/run_exhaustive.py --max-m 7 --structural

Prints one row per (theorem, m) with counts, timing and the process's peak
resident memory so far (ru_maxrss, in MB), and exits nonzero if anything
fails.  Sizes start at --min-m (at least 4; smaller polygons have no
diagonals) and stop at --max-m or at the theorem's DEFAULT_CEILING,
whichever is lower: m=10 for main, m=9 for nested, m=8 for idempotent and
m=7 for consistency; a range with no size left is a usage error.  The
safety cap ACCORDION_TAU_MAX_M belongs to the `accordion-tau` command and
does not apply here.
"""

import argparse
import resource
import sys
import time

from accordion_tau.verify import DRIVERS

# the subset sweeps blow up fast; keep their default ceiling lower
DEFAULT_CEILING = {"main": 10, "nested": 9, "idempotent": 8, "consistency": 7}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=7)
    parser.add_argument("--min-m", type=int, default=4)
    parser.add_argument(
        "--theorem",
        choices=[*DRIVERS, "all"],
        default="all",
    )
    parser.add_argument(
        "--structural",
        action="store_true",
        help="audit every complex that shows up (pseudomanifold, dual "
        "regularity, sign coherence, independence, injectivity); the audit "
        "runs once per label-free complex, and a clean result carries to the "
        "other silting complexes of a quiver isomorphism class and across a "
        "passed g-vector match (matched facets are the maximal cliques of "
        "the graph)",
    )
    args = parser.parse_args()
    if args.min_m < 4:
        parser.error(f"--min-m must be at least 4, got {args.min_m}")

    names = list(DRIVERS) if args.theorem == "all" else [args.theorem]
    ceilings = {name: min(args.max_m, DEFAULT_CEILING[name]) for name in names}
    if args.min_m > max(ceilings.values()):
        parser.error(
            f"nothing to run: --min-m {args.min_m} is above --max-m and the "
            f"ceilings {DEFAULT_CEILING}"
        )
    bad = 0
    print(
        f"{'theorem':<12} {'m':>2} {'passed':>7} {'checked':>8} {'audited':>8} "
        f"{'time':>8} {'rss_mb':>7}"
    )
    for name in names:
        for m in range(args.min_m, ceilings[name] + 1):
            t0 = time.perf_counter()
            summary = DRIVERS[name](m, structural=args.structural)
            dt = time.perf_counter() - t0
            # ru_maxrss is in kilobytes on Linux
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(
                f"{name:<12} {m:>2} {summary.passed:>7} {summary.checked:>8} "
                f"{summary.complexes_audited:>8} {dt:>7.2f}s {peak_mb:>7.1f}"
            )
            if not summary.ok:
                bad += 1
                for msg in summary.failures[:5] + summary.structural[:5]:
                    print(f"    ! {msg}")
    if bad:
        print(f"{bad} sweep(s) failed", file=sys.stderr)
        return 1
    print("all sweeps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
