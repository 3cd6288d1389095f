"""The eight headline acceptance criteria, one verdict line each.

Criteria 3-6 share the exhaustive runs through module-scoped fixtures, so
the expensive sweeps happen once; every complex built there is accounted
for by the structural audit, run once per label-free complex (criterion 6
aggregates those audits).
"""

import time
from itertools import product

import pytest

import oracles
from conftest import record_criterion
from accordion_tau.accordion import accordion_complex
from accordion_tau.complexes import dual_graph, iso_by_gvectors
from accordion_tau.geometry import validate_dissection
from accordion_tau.quiver import quiver_of_dissection
from accordion_tau.rigidity import hom_shift, silting_complex, silting_vertices
from accordion_tau.verify import (
    audit_complex,
    verify_consistency_exhaustive,
    verify_idempotent_exhaustive,
    verify_main_exhaustive,
    verify_nested_exhaustive,
)

FAN = [(0, 2), (0, 3), (0, 4)]
ZIGZAG = [(0, 2), (2, 4), (4, 6)]


@pytest.fixture(scope="module")
def main_results():
    out = {}
    for m in range(4, 9):
        t0 = time.perf_counter()
        out[m] = (verify_main_exhaustive(m, structural=True), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def nested_results():
    out = {}
    for m in range(4, 8):
        t0 = time.perf_counter()
        out[m] = (
            verify_nested_exhaustive(m, structural=True),
            time.perf_counter() - t0,
        )
    return out


@pytest.fixture(scope="module")
def idempotent_results():
    out = {}
    for m in range(5, 8):
        t0 = time.perf_counter()
        out[m] = (
            verify_idempotent_exhaustive(m, structural=True),
            time.perf_counter() - t0,
        )
    return out


def test_criterion_1_hexagon_fan():
    t0 = time.perf_counter()
    d = validate_dissection(6, FAN)
    acc = accordion_complex(d)
    silt = silting_complex(quiver_of_dissection(d))
    iso = iso_by_gvectors(acc, silt)
    dual_acc, dual_silt = dual_graph(acc), dual_graph(silt)
    elapsed = time.perf_counter() - t0

    tris = oracles.all_triangulations(6)
    flips = oracles.count_flip_edges(tris)
    ok = (
        len(acc.vertices) == len(silt.vertices) == 6 * 3 // 2
        and len(acc.facets) == len(silt.facets) == len(tris) == 14
        and iso.passed
        and set(oracles.degrees(dual_acc)) == set(oracles.degrees(dual_silt)) == {3}
        and len(dual_acc.edges) == len(dual_silt.edges) == flips == 21
        and elapsed < 5.0
    )
    assert record_criterion(1, ok, f"hexagon fan 9v/14f/21e in {elapsed:.2f}s")


def test_criterion_2_heptagon_zigzag():
    t0 = time.perf_counter()
    d = validate_dissection(7, ZIGZAG)
    q = quiver_of_dissection(d)
    acc = accordion_complex(d)
    silt = silting_complex(q)
    iso = iso_by_gvectors(acc, silt)
    dual_acc, dual_silt = dual_graph(acc), dual_graph(silt)
    elapsed = time.perf_counter() - t0

    shape_ok = [(a.src, a.tgt) for a in q.arrows] == [
        ((0, 2), (2, 4)),
        ((2, 4), (4, 6)),
    ] and q.relations == frozenset({("a0", "a1")})
    ok = (
        shape_ok
        and len(acc.vertices) == len(silt.vertices) == 8
        and len(acc.facets) == len(silt.facets) == 12
        and iso.passed
        and set(oracles.degrees(dual_acc)) == set(oracles.degrees(dual_silt)) == {3}
        and len(dual_acc.edges) == len(dual_silt.edges) == 18
        and elapsed < 5.0
    )
    assert record_criterion(2, ok, f"heptagon zigzag 8v/12f/18e in {elapsed:.2f}s")


def test_criterion_3_main_exhaustive(main_results):
    details, ok = [], True
    for m, (summary, dt) in sorted(main_results.items()):
        expect = oracles.dissection_count(m) - 1  # the empty dissection is skipped
        ok = ok and summary.checked == expect and summary.passed == expect
        ok = ok and not summary.failures
        details.append(f"m={m}: {summary.passed}/{expect} ({dt:.1f}s)")
    ok = ok and main_results[8][1] < 600.0
    assert record_criterion(3, ok, "; ".join(details))


def test_criterion_4_idempotent_exhaustive(idempotent_results):
    details, ok = [], True
    total = 0.0
    for m, (summary, dt) in sorted(idempotent_results.items()):
        expect = oracles.nested_pair_count(m)
        ok = ok and summary.checked == expect and summary.passed == expect
        ok = ok and not summary.failures
        total += dt
        details.append(f"m={m}: {summary.passed}/{expect} ({dt:.1f}s)")
    ok = ok and total < 300.0
    assert record_criterion(4, ok, "; ".join(details))


def test_criterion_5_nested_exhaustive(nested_results):
    details, ok = [], True
    total = 0.0
    for m, (summary, dt) in sorted(nested_results.items()):
        expect = oracles.nested_pair_count(m)
        ok = ok and summary.checked == expect and summary.passed == expect
        ok = ok and not summary.failures
        total += dt
        details.append(f"m={m}: {summary.passed}/{expect} ({dt:.1f}s)")
    ok = ok and total < 300.0
    assert record_criterion(5, ok, "; ".join(details))


def test_criterion_6_structural_audits(main_results, nested_results, idempotent_results):
    audited, bad = 0, []
    for results in (main_results, nested_results, idempotent_results):
        for summary, _ in results.values():
            audited += summary.complexes_audited
            bad.extend(summary.structural)
    # the two showcase complexes go through the same audit
    for pairs, m in ((FAN, 6), (ZIGZAG, 7)):
        d = validate_dissection(m, pairs)
        for cx in (accordion_complex(d), silting_complex(quiver_of_dissection(d))):
            audited += 1
            bad.extend(audit_complex(cx))
    ok = audited > 0 and not bad
    assert record_criterion(
        6, ok, f"{audited} complexes audited, {len(bad)} structural failures"
    )


def test_criterion_7_quiver_consistency():
    details, ok = [], True
    for m in range(4, 8):
        summary = verify_consistency_exhaustive(m)
        ok = ok and summary.ok and summary.checked > 0
        details.append(f"m={m}: {summary.passed}/{summary.checked}")
    assert record_criterion(7, ok, "; ".join(details))


def test_criterion_8_fixture_compatibility_table():
    q = quiver_of_dissection(validate_dissection(7, ZIGZAG))
    verts = silting_vertices(q)
    by_gvec = {g: name for name, g in oracles.PATH3_GVECTORS.items()}
    ok = len(verts) == 8 and all(v.gvec in by_gvec for v in verts)
    mismatches = []
    if ok:
        for a, b in product(verts, repeat=2):
            ours = (
                hom_shift(a.complex, b.complex) == 0
                and hom_shift(b.complex, a.complex) == 0
            )
            expected = oracles.path3_compatible(by_gvec[a.gvec], by_gvec[b.gvec])
            if ours != expected:
                mismatches.append((by_gvec[a.gvec], by_gvec[b.gvec]))
        ok = not mismatches
    assert record_criterion(
        8, ok, f"64 ordered pairs against the fixture, {len(mismatches)} mismatches"
    )
