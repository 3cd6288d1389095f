"""Exhaustive drivers build each complex once per sweep; the structural audit."""

import dataclasses
import gc
import hashlib
import itertools
import json
import sys
from collections import Counter

import pytest

import oracles
import accordion_tau.accordion as accordion
import accordion_tau.quiver as quiver
import accordion_tau.rigidity as rigidity
import accordion_tau.verify as verify
import accordion_tau.complexes as complexes
from accordion_tau.complexes import ComplexVertex
from accordion_tau.errors import AccordionTauError, NonPureComplexError
from accordion_tau.geometry import Dissection, all_dissections, validate_dissection
from accordion_tau.quiver import quiver_of_dissection, shortcut_quiver
from conftest import flip_crossing


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name, wherever a package module binds it, with a counter."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "accordion_tau" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("structural", [False, True])
def test_nested_sweep_builds_one_accordion_complex_per_dissection(monkeypatch, structural):
    calls = count_calls(monkeypatch, accordion, "accordion_complex")
    summary = verify.verify_nested_exhaustive(6, structural=structural)
    assert summary.ok
    assert len(calls) == len(all_dissections(6))


def test_nested_sweep_makes_a_dissection_only_on_a_memo_miss(monkeypatch):
    # 196 dissections of the 7-gon, so 196 accordion complexes for 1,400
    # nested pairs; a sub-dissection's complex is looked up by its diagonal
    # tuple, and a Dissection is made only for one not yet built
    calls = count_calls(monkeypatch, accordion, "accordion_complex")
    made = []
    real = verify.Dissection

    def making(cycle, diagonals):
        made.append(real(cycle, diagonals))
        return made[-1]

    monkeypatch.setattr(verify, "Dissection", making)
    summary = verify.verify_nested_exhaustive(7)
    assert summary.ok and summary.checked == 1400
    assert len(calls) == len({d.diagonals for d, in calls}) == len(all_dissections(7)) == 196
    built = {id(d) for d, in calls}
    assert made and all(id(d) in built for d in made)


@pytest.mark.parametrize("structural", [False, True])
def test_idempotent_sweep_builds_one_silting_complex_per_quiver(monkeypatch, structural):
    dissections = all_dissections(6)
    ambients = {quiver_of_dissection(d) for d in dissections}
    shortcuts, pairs = set(), 0
    for q in map(quiver_of_dissection, dissections):
        for size in range(1, len(q.vertices) + 1):
            for J in itertools.combinations(q.vertices, size):
                shortcuts.add(shortcut_quiver(q, J))
                pairs += 1
    # quivers that differ only in vertex names share one shape, and
    # isomorphic shapes share one silting build
    assert len(ambients) == len(dissections) and ambients & shortcuts
    shapes = {q.shape for q in ambients | shortcuts}
    classes = oracles.isomorphism_class_count(shapes)
    assert classes < len(shapes) < len(ambients | shortcuts)
    calls = count_calls(monkeypatch, rigidity, "silting_core")
    audits = count_calls(monkeypatch, verify, "audit_complex")
    summary = verify.verify_idempotent_exhaustive(6, structural=structural)
    assert summary.ok
    assert len(calls) == classes == 7
    # one audit per quiver isomorphism class, ambient or shortcut: a clean
    # silting audit carries to every quiver of the class and, across each
    # passed match, to the induced complex, while every instance still
    # counts its audited complexes
    assert len(audits) == (classes if structural else 0)
    assert summary.complexes_audited == (len(dissections) + 2 * pairs if structural else 0)


def shapes_met(monkeypatch, name: str, m: int) -> set:
    """The quiver shapes of the silting complexes a passed sweep labels,
    read off its _silting_by_shape(cores, shape, vertices) calls."""
    calls = count_calls(monkeypatch, verify, "_silting_by_shape")
    assert verify.DRIVERS[name](m).ok
    return {shape for _, shape, _ in calls}


@pytest.mark.parametrize(
    "name, m, cores", [("main", 7, 49), ("idempotent", 7, 105)]
)
def test_sweeps_build_one_silting_core_per_quiver_shape(monkeypatch, name, m, cores):
    # every shape gets exactly one core: a shape that is its own canonical
    # form takes the core built on it, every other shape is transported once
    moved = count_calls(monkeypatch, rigidity, "transport_core")
    shapes = shapes_met(monkeypatch, name, m)
    others = {shape for shape in shapes if quiver.canonical_form(shape)[0] != shape}
    assert len(shapes) == cores
    assert sorted(shape for _, _, shape in moved) == sorted(others)


# transport_core calls per sweep: one per shape met that is not its own form
TRANSPORTS = {("main", 7): 43, ("idempotent", 7): 99, ("main", 8): 192}


@pytest.mark.parametrize(
    "name, m, cores, shapes",
    [("main", 7, 15, 49), ("idempotent", 7, 15, 105), ("main", 8, 47, 201)],
)
def test_sweeps_build_one_silting_core_per_quiver_isomorphism_class(
    monkeypatch, name, m, cores, shapes
):
    # one core built per class, on its form's quiver, and one transport per
    # shape, except for the shapes that equal their own form
    calls = count_calls(monkeypatch, rigidity, "silting_core")
    moved = count_calls(monkeypatch, rigidity, "transport_core")
    met = shapes_met(monkeypatch, name, m)
    forms = {shape for shape in met if quiver.canonical_form(shape)[0] == shape}
    assert (len(calls), len(met), len(moved)) == (cores, shapes, TRANSPORTS[name, m])
    assert len(moved) == len(met) - len(forms)


def test_a_repeated_gvector_in_a_form_core_fails_the_sweeps(monkeypatch):
    # a form core with a repeated g-vector is transported as it is to every
    # shape of its class, and the comparison names the repeat: no sweep that
    # reads such a core passes
    real = rigidity.silting_core

    def repeated(basis):
        core = real(basis)
        return core._replace(gvecs=(core.gvecs[1],) + core.gvecs[1:])

    monkeypatch.setattr(verify, "silting_core", repeated)
    for driver in (verify.verify_main_exhaustive, verify.verify_idempotent_exhaustive):
        summary = driver(6).to_json()
        assert summary["status"] == "fail" and summary["passed"] == 0
        assert any("duplicate g-vector" in line for line in summary["failures"])


def test_idempotent_sweep_builds_one_basis_per_ambient_shape_and_silting_build(monkeypatch):
    # one basis per ambient shape, for the plans of its first dissection,
    # and one per form, for its silting build: 49 + 15 bases at m=7, where
    # the 6 forms that are ambient shapes too get one of each, and no basis
    # outlives the build that reads it
    ambients, shapes = set(), set()
    for q in map(quiver_of_dissection, all_dissections(7)):
        ambients.add(q.shape)
        shapes.update(shortcut_quiver(q, J).shape for J in quiver.nonempty_subsets(q.vertices))
    forms = {quiver.canonical_form(s)[0] for s in ambients | shapes}
    assert len(forms) == oracles.isomorphism_class_count(ambients | shapes) == 15
    calls = count_calls(monkeypatch, quiver, "algebra_basis")
    assert verify.verify_idempotent_exhaustive(7).ok
    built = Counter(shape for shape, in calls)
    assert set(built) == ambients | forms and len(built) == 49 + 15 - 6
    assert {shape for shape, k in built.items() if k == 2} == ambients & forms
    assert max(built.values()) == 2 and len(calls) == 64


def test_single_idempotent_check_builds_one_basis_of_its_quiver(monkeypatch):
    # the basis of q's shape serves both the shortcut quiver's shape and q's
    # own silting complex; the shortcut shape builds the other basis
    q = quiver_of_dissection(validate_dissection(7, [(0, 2), (0, 3), (3, 5)]))
    J = [(3, 5), (0, 2)]
    calls = count_calls(monkeypatch, quiver, "algebra_basis")
    assert verify.verify_idempotent_reduction(q, J).passed
    assert [shape for shape, in calls] == [q.shape, shortcut_quiver(q, J).shape]


def test_idempotent_sweep_compares_the_complexes_a_single_instance_builds(monkeypatch):
    # the two complexes each instance hands to iso_by_gvectors, in sweep
    # order, equal those verify_idempotent_reduction builds for (q, J): a
    # plan reused for the wrong shape or positions would show here.  The
    # benchmark's gate hashes the vertex map of every iso_by_gvectors call
    # (perfbench/workloads.py, match_digest), so a sweep that stops making
    # one call per instance needs that gate changed first
    direct: dict = {}

    def silting(q):
        if q not in direct:
            direct[q] = rigidity.silting_complex(q)
        return direct[q]

    calls = count_calls(monkeypatch, verify, "iso_by_gvectors")
    for m in range(4, 8):
        calls.clear()
        assert verify.verify_idempotent_exhaustive(m).ok
        expected = [
            (q, J)
            for q in map(quiver_of_dissection, all_dissections(m))
            for J in quiver.nonempty_subsets(q.vertices)
        ]
        assert len(calls) == len(expected)
        for (small, induced), (q, J) in zip(calls, expected):
            want_small = silting(shortcut_quiver(q, J))
            want_induced = verify.restrict_to_coordinates(
                silting(q), verify.subset_positions(q, J)
            )
            assert small == want_small and small.to_json() == want_small.to_json()
            assert induced == want_induced
            assert induced.to_json() == want_induced.to_json()


def single_instance_pairs(name: str, m: int):
    """The two complexes the single-instance check of each instance of the
    main or nested sweep hands to iso_by_gvectors, in sweep order."""
    accordion = verify.accordion_complex
    if name == "main":
        for d in all_dissections(m):
            yield accordion(d), rigidity.silting_complex(quiver_of_dissection(d))
        return
    for big in all_dissections(m):
        for sub in quiver.nonempty_subsets(big.diagonals):
            d = Dissection(big.cycle, sub)
            positions = tuple(big.diagonals.index(delta) for delta in sub)
            yield accordion(d), verify.restrict_to_coordinates(accordion(big), positions)


@pytest.mark.parametrize("name", ["main", "nested"])
def test_main_and_nested_sweeps_compare_the_complexes_a_single_instance_builds(
    monkeypatch, name
):
    # one iso_by_gvectors call per checked instance, in instance order, on
    # the complexes verify_main or verify_nested builds for it: the
    # benchmark's gate hashes these calls as it does the idempotent ones
    calls = count_calls(monkeypatch, verify, "iso_by_gvectors")
    for m in range(4, 8):
        calls.clear()
        summary = verify.DRIVERS[name](m)
        assert summary.ok and len(calls) == summary.checked
        expected = list(single_instance_pairs(name, m))
        assert len(calls) == len(expected)
        for (left, right), (want_left, want_right) in zip(calls, expected):
            assert left == want_left and left.to_json() == want_left.to_json()
            assert right == want_right and right.to_json() == want_right.to_json()


def main_instances_up_to_7() -> bool:
    return all(verify.verify_main(d).passed for m in range(4, 8) for d in all_dissections(m))


PASSED_RUNS = {
    "main-7-structural": lambda: verify.DRIVERS["main"](7, structural=True).ok,
    "nested-6": lambda: verify.DRIVERS["nested"](6).ok,
    "idempotent-6": lambda: verify.DRIVERS["idempotent"](6).ok,
    "verify_main-up-to-7": main_instances_up_to_7,
}


@pytest.mark.parametrize("run", list(PASSED_RUNS))
def test_passed_checks_name_no_vertex(monkeypatch, run):
    # labels feed only failure text, output, equality and hashing: a
    # passed check compares g-vectors and graphs, and builds no vertex
    # record of any complex it reads
    named = count_calls(monkeypatch, complexes, "_vertex_records")
    assert PASSED_RUNS[run]()
    assert named == []


@pytest.mark.parametrize("name", list(verify.DRIVERS))
def test_passed_sweeps_write_no_instance_text(monkeypatch, name):
    # an instance's name is written out only for a message: a passed sweep
    # formats none, and a failed one formats one per failure line
    written = []
    real = verify._Instance.__str__

    def writing(instance):
        written.append(instance)
        return real(instance)

    monkeypatch.setattr(verify._Instance, "__str__", writing)
    assert verify.DRIVERS[name](6).ok
    assert written == []
    if name != "consistency":
        drop_a_pair(monkeypatch)
        summary = verify.DRIVERS[name](6)
        assert not summary.ok and len(written) == len(summary.failures) > 0


def test_failure_text_names_the_vertices_it_cites(monkeypatch):
    # the naming path is the one the failure text reads
    named = count_calls(monkeypatch, complexes, "_vertex_records")
    flip_crossing(monkeypatch, {(0, 2), (2, 4)})
    assert not verify.verify_main(validate_dissection(6, [(0, 2), (0, 3), (0, 4)])).passed
    assert len(named) == 2


def test_compare_nested_reads_records_when_keys_cannot_tell():
    # a complex built from records has its own naming function, so its
    # black diagonals are read off its records; swapping two of them fails
    # the match with the text that names both
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    small = verify.accordion_complex(validate_dissection(6, [(0, 3)]))
    induced = verify.restrict_to_coordinates(verify.accordion_complex(fan), (1,))
    assert verify.compare_nested(small, induced).passed
    records = [dataclasses.replace(v, payload=dict(v.payload)) for v in induced.vertices]
    copy = oracles.records_complex(induced.coordinates, records, induced.graph)
    assert verify.compare_nested(small, copy).passed
    records[0].payload["black"], records[1].payload["black"] = [2, 5], [0, 3]
    report = verify.compare_nested(small, copy)
    assert not report.passed and report.vertex_map is None
    assert report.failures == [
        "g-vector match sends black diagonal [0, 3] to [2, 5]",
        "g-vector match sends black diagonal [2, 5] to [0, 3]",
    ]


def count_quivers(monkeypatch) -> list:
    """Count every GentleQuiver constructed, wherever it is made."""
    made = []
    real = quiver.GentleQuiver.__post_init__

    def counting(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(quiver.GentleQuiver, "__post_init__", counting)
    return made


def shapes_and_forms(m: int, shortcuts: bool) -> set:
    """Every quiver shape a main (or, with shortcuts, idempotent) sweep of
    the m-gon meets: the ambient shapes, the shortcut shapes and the
    canonical form of each."""
    shapes = set()
    for q in map(quiver_of_dissection, all_dissections(m)):
        shapes.add(q.shape)
        if shortcuts:
            shapes.update(
                shortcut_quiver(q, J).shape for J in quiver.nonempty_subsets(q.vertices)
            )
    return shapes | {quiver.canonical_form(shape)[0] for shape in shapes}


@pytest.mark.parametrize("structural", [False, True])
def test_main_sweep_cuts_each_dissection_once_and_builds_no_quiver_per_dissection(
    monkeypatch, structural
):
    # one cells(d) per dissection serves both sides; the quiver's shape is
    # read off those cells, no GentleQuiver is built, and the checks a
    # named quiver runs on construction run once on each shape met
    dissections = all_dissections(7)
    met = shapes_and_forms(7, shortcuts=False)
    cut = count_calls(monkeypatch, quiver, "cells")
    checked = count_calls(monkeypatch, quiver, "check_shape")
    made = count_quivers(monkeypatch)
    summary = verify.verify_main_exhaustive(7, structural=structural)
    assert summary.ok and summary.checked == len(dissections)
    assert len(cut) == len(dissections) and made == []
    # 49 shapes in 15 classes, and 6 of the forms are among those shapes:
    # every shape and form is checked once
    counts = Counter(shape for shape, in checked)
    assert set(counts) == met and len(met) == 49 + 15 - 6
    assert max(counts.values()) == 1


@pytest.mark.parametrize("structural", [False, True])
def test_idempotent_sweep_cuts_each_dissection_once_and_builds_no_quiver_per_dissection(
    monkeypatch, structural
):
    # the idempotent sweep reads each dissection as the main sweep does:
    # one cells(d), the quiver's shape off it, and no GentleQuiver at all,
    # for d or for a shortcut; its plans are made on the shape's basis
    dissections = all_dissections(7)
    met = shapes_and_forms(7, shortcuts=True)
    cut = count_calls(monkeypatch, quiver, "cells")
    checked = count_calls(monkeypatch, quiver, "check_shape")
    made = count_quivers(monkeypatch)
    summary = verify.verify_idempotent_exhaustive(7, structural=structural)
    assert summary.ok and summary.checked == 1400
    assert len(cut) == len(dissections) and made == []
    # one check per ambient shape, shortcut shape or form met, 114 in all
    counts = Counter(shape for shape, in checked)
    assert set(counts) == met and len(met) == 114
    assert max(counts.values()) == 1


def test_verify_main_cuts_its_dissection_once(monkeypatch):
    # one cells(d) serves the accordion complex and the quiver
    cut = count_calls(monkeypatch, quiver, "cells")
    for d in all_dissections(9)[::500]:
        cut.clear()
        assert verify.verify_main(d).passed
        assert len(cut) == 1


def test_idempotent_sweep_restricts_once_per_shape_and_positions(monkeypatch):
    # a plan per (ambient shape, J positions): 541 label-free restrictions
    # for the 1,400 instances at m=7, with one core per isomorphism class,
    # and one basis per ambient shape and one per core
    pairs = {
        (q.shape, positions)
        for q in map(quiver_of_dissection, all_dissections(7))
        for positions in quiver.nonempty_subsets(tuple(range(len(q.vertices))))
    }
    restrictions = count_calls(monkeypatch, verify, "restriction")
    namings = count_calls(monkeypatch, verify, "name_restriction")
    cores = count_calls(monkeypatch, rigidity, "silting_core")
    bases = count_calls(monkeypatch, quiver, "algebra_basis")
    summary = verify.verify_idempotent_exhaustive(7)
    assert summary.ok and summary.checked == len(namings) == 1400
    assert len(restrictions) == len(pairs) == 541
    assert len(cores) == 15 and len(bases) == 49 + 15


@pytest.mark.parametrize("m", [6, 7])
def test_idempotent_sweep_makes_each_plan_at_the_instance_that_needs_it(monkeypatch, m):
    # an instance's latency runs from the previous record to its own, and
    # in that span it makes at most one restriction and one shortcut quiver:
    # no instance pays for the plan of another
    restrictions = count_calls(monkeypatch, verify, "restriction")
    shortcuts = count_calls(monkeypatch, quiver, "_shortcut_shape")
    marks = [(0, 0)]
    record = verify.VerifySummary.record

    def marked(summary, instance, report):
        marks.append((len(restrictions), len(shortcuts)))
        record(summary, instance, report)

    monkeypatch.setattr(verify.VerifySummary, "record", marked)
    summary = verify.verify_idempotent_exhaustive(m)
    assert summary.ok
    steps = [(r1 - r0, s1 - s0) for (r0, s0), (r1, s1) in zip(marks, marks[1:])]
    assert len(steps) == summary.checked
    assert max(r for r, _ in steps) == 1 and max(s for _, s in steps) == 1


def test_consistency_sweep_builds_one_basis_per_dissection_and_shortcut(monkeypatch):
    # one ambient basis per dissection for all its shortcut quivers and
    # subalgebra checks, and one basis per (dissection, subset) shortcut
    dissections = all_dissections(7)
    instances = sum(2 ** len(d.diagonals) - 1 for d in dissections)
    calls = count_calls(monkeypatch, quiver, "algebra_basis")
    assert verify.verify_consistency_exhaustive(7).ok
    assert len(calls) == len(dissections) + instances == 196 + 1400


@pytest.mark.parametrize("name", list(verify.DRIVERS))
def test_sweeps_leave_no_cyclic_garbage(name):
    # every object a sweep drops is freed by reference counting: with
    # DEBUG_SAVEALL the collector keeps what it would have had to free
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert verify.DRIVERS[name](6, structural=True).ok
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0


def test_builder_modules_hold_no_comparison():
    # the theorem checks live in verify; the builders only build
    for module in (accordion, rigidity):
        for name in ("iso_by_gvectors", "restrict_to_coordinates", "shortcut_quiver"):
            assert not hasattr(module, name), f"{module.__name__} binds {name}"


def test_audit_rejects_a_triangle_boundary_by_facet_size_alone():
    # pure, every ridge (a vertex) in two facets, connected, sign-coherent,
    # independent and injective: only the facet size check sees that the
    # facets have 2 vertices where there are 3 coordinates
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cx = oracles.facet_complex(
        ("x", "y", "z"),
        [ComplexVertex(i, g, f"v{i}") for i, g in enumerate(units)],
        [(0, 1), (0, 2), (1, 2)],
    )
    assert verify.audit_complex(cx) == ["facet sizes [2] instead of 3"]


def test_a_dropped_compatible_pair_fails_the_instance_and_is_named(monkeypatch):
    # b0-b2 and b2-b4 do not cross; calling them crossing drops one edge of
    # the accordion side's compatibility graph
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    flip_crossing(monkeypatch, {(0, 2), (2, 4)})
    report = verify.verify_main(fan)
    assert not report.passed and report.vertex_map is None
    assert report.failures == [
        "compatible pairs differ under the g-vector map: "
        "b0-b2 and b2-b4 (right: e_0-2 and e_0-4) are compatible on the right only"
    ]


def test_an_impure_accordion_complex_fails_the_main_check(monkeypatch):
    # b0-b2 and b1-b3 cross; calling them compatible makes a four-vertex
    # facet, which the label-blind search reports instead of raising
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    flip_crossing(monkeypatch, {(0, 2), (1, 3)})
    report = verify.verify_main(fan)
    assert not report.passed and report.generic_found is None
    assert report.failures == [
        "compatible pairs differ under the g-vector map: "
        "b0-b2 and b1-b3 (right: e_0-2 and e_0-3) are compatible on the left only",
        "label-blind isomorphism search skipped: "
        "accordion facet (0, 1, 2, 3) has size 4, expected 3",
    ]


@pytest.mark.parametrize("structural", [False, True])
def test_nested_checks_raise_on_an_impure_accordion_complex(monkeypatch, structural):
    # the nested checks screen each accordion complex's clique walk once, so
    # an impure one raises as it did when the build itself checked purity;
    # the walk feeds both the screen and the facets read that names (0,)
    real = complexes._clique_masks

    def with_a_lone_vertex(n, adj):
        yield from real(n, adj)
        yield 1

    monkeypatch.setattr(complexes, "_clique_masks", with_a_lone_vertex)
    with pytest.raises(NonPureComplexError, match=r"^accordion facet \(0,\) has size 1"):
        verify.verify_nested_exhaustive(5, structural=structural)
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    with pytest.raises(NonPureComplexError, match=r"^accordion facet \(0,\) has size 1"):
        verify.verify_nested(validate_dissection(6, [(0, 2)]), fan)


# -- audits carried across passed matches --


def audit_directly(monkeypatch) -> None:
    """Make every sweep audit each complex it meets, carrying nothing."""
    monkeypatch.setattr(
        verify,
        "_carried_audit",
        lambda cx, clean, key=None, matched=None: verify.audit_complex(cx),
    )


def flag_negative_facets(monkeypatch) -> None:
    """Sign coherence also flags, in a complex with an odd number of
    vertices, each facet whose g-vectors sum to a negative first entry.  The
    flag reads g-vectors and facets alone, so it dirties both sides of a
    passed match alike, and leaves the other complexes clean."""
    real = complexes.check_sign_coherence

    def flagging(cx):
        flagged = [
            f"facet {f}: flagged"
            for f in cx.facets
            if len(cx.vertices) % 2 and sum(cx.vertices[v].gvec[0] for v in f) < 0
        ]
        return real(cx) + flagged

    monkeypatch.setattr(complexes, "check_sign_coherence", flagging)


def without_first_pair(cx):
    """cx, when it has an odd number of vertices, with the first compatible
    pair of its graph dropped and its purity left to the audit."""
    u = next((v for v, mask in enumerate(cx.graph) if mask), None)
    if len(cx.vertices) % 2 == 0 or u is None:
        return cx
    w = (cx.graph[u] & -cx.graph[u]).bit_length() - 1
    graph = list(cx.graph)
    graph[u] ^= 1 << w
    graph[w] ^= 1 << u
    return dataclasses.replace(cx, graph=tuple(graph), kind=None)


def drop_a_pair(monkeypatch) -> None:
    """Drop a compatible pair on the accordion side (main, nested) and on
    the induced side (idempotent, which builds no accordion complex), so
    the matches of those complexes fail."""
    accordion_complex, name_restriction = verify.accordion_complex, verify.name_restriction
    of_cells = verify.accordion_complex_of_cells
    monkeypatch.setattr(
        verify, "accordion_complex", lambda d: without_first_pair(accordion_complex(d))
    )
    monkeypatch.setattr(
        verify,
        "accordion_complex_of_cells",
        lambda d, faces: without_first_pair(of_cells(d, faces)),
    )
    monkeypatch.setattr(
        verify,
        "name_restriction",
        lambda cx, positions, r: without_first_pair(name_restriction(cx, positions, r)),
    )


MUTATIONS = {
    "clean": lambda monkeypatch: None,
    "dirty-audits": flag_negative_facets,
    "dropped-pair": drop_a_pair,
}


def audited_outcome(name: str, m: int):
    """to_json() of one audited sweep, or the package error it raises."""
    try:
        return verify.DRIVERS[name](m, structural=True).to_json()
    except AccordionTauError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize(
    "name, m", [(name, m) for name in verify.DRIVERS for m in range(4, 8)] + [("main", 8)]
)
def test_carried_audits_read_as_direct_audits(monkeypatch, mutation, name, m):
    # a clean audit carried to a shape's other quivers and across passed
    # matches gives the summary of auditing every complex directly,
    # messages and their order included, also when audits come back dirty
    # on both sides or a dropped pair fails the match
    MUTATIONS[mutation](monkeypatch)
    carried = audited_outcome(name, m)
    audit_directly(monkeypatch)
    assert audited_outcome(name, m) == carried
    if mutation != "clean" and name != "consistency" and m > 4:
        assert carried["status"] == "fail"


def test_sweep_summaries_are_frozen():
    # one sha256 over every DRIVERS summary, m=4..7, without and with
    # structural audits, under each of MUTATIONS (a package error's type
    # and text where a sweep raises), taken before a refactor of the sweeps
    # and unchanged by it: passes, failures, audit messages and their order
    digest = hashlib.sha256()
    for mutation in MUTATIONS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            MUTATIONS[mutation](monkeypatch)
            for name, m, structural in itertools.product(
                verify.DRIVERS, range(4, 8), (False, True)
            ):
                try:
                    outcome = verify.DRIVERS[name](m, structural=structural).to_json()
                except AccordionTauError as err:
                    outcome = [type(err).__name__, str(err)]
                digest.update(json.dumps(outcome, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "d17672328bb2367837c6acfab0702991666a67d4f09c1ba2b0ed843011b5a9ed"
    )
