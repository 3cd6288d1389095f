"""The benchmark's workloads: their inputs, one sweep, and the correctness gate.

Each workload calls one public driver of ``accordion_tau.verify``.  Load is
one process, one thread, closed loop with one caller: the next instance
starts when the previous one returns.  The three exhaustive workloads take
every dissection of one polygon and ignore the seed; ``sampled-m9`` draws
its 9-gon dissections with it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FROZEN = HERE / "frozen.json"

# Measure the package in this checkout, never an installed copy.
sys.path.insert(0, str(SRC))

from accordion_tau import complexes, verify  # noqa: E402
from accordion_tau.geometry import all_dissections  # noqa: E402

from spans import Patches  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # public function of accordion_tau.verify
    m: int  # polygon size
    why: str
    moves: tuple[str, ...]  # spans.GROUPS predicted to move sweep_s here
    flat: tuple[str, ...]  # spans.GROUPS predicted to leave it flat
    structural: bool = False
    sample: int = 0  # > 0: verify_main on this many seeded dissections


# m=7 keeps one exhaustive sweep near 1-2 s on a 2-core Xeon VM, so a 25 s run
# holds ten to thirty sweeps; `run.py --m 8` reproduces the slower m=8
# sweeps with the same gate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "main-audited",
            "verify_main_exhaustive",
            7,
            "All 7-gon dissections with structural audits; the only workload where audits "
            "(dual_graph, facet rank) dominate.",
            moves=("audit", "linalg", "crossing", "rigidity", "complexes"),
            flat=(),
            structural=True,
        ),
        Workload(
            "nested",
            "verify_nested_exhaustive",
            7,
            "All nested pairs of 7-gon dissections, no audits: crossing geometry over cached "
            "ambient complexes.",
            moves=("crossing", "complexes"),
            flat=("quiver", "rigidity", "linalg", "audit"),
        ),
        Workload(
            "idempotent",
            "verify_idempotent_exhaustive",
            7,
            "All (7-gon dissection, vertex subset) pairs, no audits: shortcut silting and "
            "hom matrices, no crossing code.",
            moves=("rigidity", "quiver", "linalg", "complexes"),
            flat=("crossing", "audit"),
        ),
        Workload(
            "sampled-m9",
            "verify_main",
            9,
            "400 seeded 9-gon dissections, one verify_main call each: per-call latency where "
            "hom_shift pairs and cliques grow.",
            moves=("rigidity", "linalg", "crossing", "complexes"),
            flat=("audit",),
            sample=400,
        ),
    )
}


def manifest_why(wl: Workload) -> str:
    """The workload's line in BENCHMARK.json: why, then the predicted groups."""
    return f"{wl.why} Moves: {', '.join(wl.moves)}. Flat: {', '.join(wl.flat) or 'none'}."


def load_frozen() -> dict:
    with open(FROZEN) as fh:
        return json.load(fh)


def sample_population(m: int) -> list:
    """All m-gon dissections in an order that does not depend on the library's."""
    return sorted(all_dissections(m), key=lambda d: sorted(d.white_pairs()))


def draw_sample(strata: list[int], seed: int, size: int) -> list[int]:
    """Seeded systematic sample, stratified by dihedral shape class.

    Rotations and reflections of a dissection cost the same to verify, so
    ordering the population by shape class and taking every k-th element
    from a random offset keeps each shape's share, and the sweep's cost
    varies far less between seeds than a simple random sample's.
    """
    rng = random.Random(seed)
    order = sorted(range(len(strata)), key=lambda i: (strata[i], rng.random()))
    step = len(order) / size
    offset = rng.random() * step
    return sorted(order[int(offset + k * step)] for k in range(size))


def build_inputs(wl: Workload, seed: int, frozen: dict) -> list:
    """The dissections a sweep runs on: (population index, dissection) pairs
    for a sampled workload, the dissection list for an exhaustive one."""
    if not wl.sample:
        return all_dissections(wl.m)
    population = sample_population(wl.m)
    strata = frozen[wl.name]["strata"]
    if len(population) != len(strata):
        raise ValueError(f"{len(population)} dissections, frozen strata cover {len(strata)}")
    return [(i, population[i]) for i in draw_sample(strata, seed, wl.sample)]


@dataclass
class Sweep:
    """One pass over a workload's instances."""

    seconds: float
    instances: int
    passed: int
    audited: int
    structural: int
    latencies: list[float]  # per instance, in sweep order
    digests: list[str] = field(default_factory=list)  # gate sweep only
    generic_iso_calls: int = 0  # gate sweep only

    @property
    def failed(self) -> int:
        return self.instances - self.passed + self.structural


def match_digest(c1, c2, report) -> str:
    """Hash of one g-vector vertex map: labels and g-vector of every pair."""
    if report.vertex_map is None:
        return "unmatched"
    h = hashlib.sha256(repr(c1.coordinates).encode())
    for v1, v2 in sorted(report.vertex_map.items()):
        a = c1.vertices[v1]
        h.update(repr((a.label, c2.vertices[v2].label, a.gvec)).encode())
    return h.hexdigest()


def run_sweep(wl: Workload, inputs: list, gate: bool = False) -> Sweep:
    """One sweep.  With gate on, also hash every g-vector match the drivers
    make and count generic_iso fallbacks; the hashing is slow, so a gate
    sweep is never a timed one."""
    digests: list[str] = []
    generic = [0]

    def capturing(iso):
        def capture(c1, c2, *args, **kwargs):
            report = iso(c1, c2, *args, **kwargs)
            digests.append(match_digest(c1, c2, report))
            return report

        return capture

    def counting(generic_iso):
        def count(*args, **kwargs):
            generic[0] += 1
            return generic_iso(*args, **kwargs)

        return count

    with Patches() as patches:
        if gate:
            patches.wrap(complexes, "iso_by_gvectors", capturing)
            patches.wrap(complexes, "generic_iso", counting)
        if wl.sample:
            sweep = _sampled(inputs)
        else:
            sweep = _exhaustive(wl, patches)
    sweep.digests = digests
    sweep.generic_iso_calls = generic[0]
    return sweep


def _exhaustive(wl: Workload, patches: Patches) -> Sweep:
    # an instance's latency is the time between consecutive records of the
    # driver's summary, since the drivers check one instance after another
    stamps: list[float] = []
    record = verify.VerifySummary.record

    def stamped(summary, instance, report):
        record(summary, instance, report)
        stamps.append(time.perf_counter())

    patches.set_attr(verify.VerifySummary, "record", stamped)
    driver = getattr(verify, wl.driver)
    start = time.perf_counter()
    summary = driver(wl.m, structural=wl.structural)
    seconds = time.perf_counter() - start
    latencies = [b - a for a, b in zip([start] + stamps, stamps)]
    return Sweep(
        seconds,
        summary.checked,
        summary.passed,
        summary.complexes_audited,
        len(summary.structural),
        latencies,
    )


def _sampled(inputs: list) -> Sweep:
    verify_main = verify.verify_main
    clock = time.perf_counter
    latencies = []
    passed = 0
    start = clock()
    for _, d in inputs:
        t0 = clock()
        report = verify_main(d)
        latencies.append(clock() - t0)
        passed += report.passed
    seconds = clock() - start
    return Sweep(seconds, len(inputs), passed, 0, 0, latencies)


def sweep_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def gate_problems(wl: Workload, sweep: Sweep, inputs: list, frozen: dict, gate: bool) -> list[str]:
    """Why a sweep fails the correctness gate; empty when it passes.

    Every sweep must pass every instance with no structural message and
    check the frozen number of instances.  A gate sweep must also call
    generic_iso never and reproduce the frozen g-vector match digests.
    """
    problems = []
    if sweep.passed != sweep.instances:
        problems.append(f"{sweep.instances - sweep.passed} of {sweep.instances} instances failed")
    if sweep.structural:
        problems.append(f"{sweep.structural} structural audit messages")
    if wl.sample:
        expected = {"checked": len(inputs), "audited": 0}
    else:
        expected = frozen[wl.name].get(str(wl.m))
        if expected is None:
            return problems + [f"no frozen values for {wl.name} at m={wl.m}"]
    if sweep.instances != expected["checked"]:
        problems.append(f"checked {sweep.instances}, frozen count {expected['checked']}")
    if sweep.audited != expected["audited"]:
        problems.append(f"audited {sweep.audited}, frozen count {expected['audited']}")
    if not gate:
        return problems
    if sweep.generic_iso_calls:
        problems.append(f"generic_iso called {sweep.generic_iso_calls} times")
    if wl.sample:
        table = frozen[wl.name]["digests"]
        wrong = [
            i for (i, _), digest in zip(inputs, sweep.digests) if digest[: len(table[i])] != table[i]
        ]
        if wrong or len(sweep.digests) != len(inputs):
            problems.append(f"g-vector matches differ from frozen ones at {len(wrong)} dissections")
    elif sweep_digest(sweep.digests) != expected["digest"]:
        problems.append("g-vector match digest differs from the frozen one")
    return problems


LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank; the maximum when none has."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for p in LADDER:
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            best = (p, ordered[k - 1])
    return best
