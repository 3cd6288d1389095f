"""Exhaustive drivers build each complex once per sweep; the structural audit."""

import gc
import itertools
import sys

import pytest

import oracles
import accordion_tau.accordion as accordion
import accordion_tau.quiver as quiver
import accordion_tau.rigidity as rigidity
import accordion_tau.verify as verify
import accordion_tau.complexes as complexes
from accordion_tau.complexes import ComplexVertex
from accordion_tau.errors import NonPureComplexError
from accordion_tau.geometry import all_dissections, crosses, validate_dissection
from accordion_tau.quiver import algebra_basis, quiver_of_dissection, shortcut_quiver


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
    # one audit per dissection's ambient complex, per distinct shortcut
    # complex and per induced complex (an ambient quiver that is also a
    # shortcut quiver is audited once as each), while every instance still
    # counts its audited complexes
    assert len(audits) == (len(ambients) + len(shortcuts) + pairs if structural else 0)
    assert summary.complexes_audited == (len(dissections) + 2 * pairs if structural else 0)


@pytest.mark.parametrize(
    "name, m, cores", [("main", 7, 49), ("idempotent", 7, 105)]
)
def test_sweeps_build_one_silting_core_per_quiver_shape(monkeypatch, name, m, cores):
    # every shape gets exactly one core, built or transported
    calls = count_calls(monkeypatch, rigidity, "silting_core")
    moved = count_calls(monkeypatch, rigidity, "transport_core")
    assert verify.DRIVERS[name](m).ok
    assert len(calls) + len(moved) == cores


@pytest.mark.parametrize(
    "name, m, cores, shapes",
    [("main", 7, 15, 49), ("idempotent", 7, 15, 105), ("main", 8, 47, 201)],
)
def test_sweeps_build_one_silting_core_per_quiver_isomorphism_class(
    monkeypatch, name, m, cores, shapes
):
    # the cores of the other shapes are transported, one per shape
    calls = count_calls(monkeypatch, rigidity, "silting_core")
    moved = count_calls(monkeypatch, rigidity, "transport_core")
    assert verify.DRIVERS[name](m).ok
    assert (len(calls), len(moved)) == (cores, shapes - cores)


def test_memo_builds_a_core_when_its_transport_gives_up(monkeypatch):
    # a core with a repeated g-vector cannot be transported, so the next
    # isomorphic shape builds its own core
    fan = quiver_of_dissection(validate_dissection(6, [(0, 2), (0, 3), (0, 4)]))
    flipped = quiver_of_dissection(validate_dissection(6, [(2, 4), (1, 4), (0, 4)]))
    assert fan.shape != flipped.shape
    assert quiver.quiver_isomorphism(fan.shape, flipped.shape) is not None
    for repeat, builds in ((False, 1), (True, 2)):
        real = rigidity.silting_core

        def core_of(basis, real=real, repeat=repeat):
            core = real(basis)
            return core._replace(gvecs=(core.gvecs[1],) + core.gvecs[1:]) if repeat else core

        monkeypatch.setattr(verify, "silting_core", core_of)
        calls = count_calls(monkeypatch, verify, "silting_core")
        cores, classes = {}, {}
        for q in (fan, flipped):
            verify._silting_by_shape(cores, classes, q)
        assert len(calls) == builds
        assert cores[flipped.shape] == core_of(algebra_basis(flipped))
        monkeypatch.undo()


def test_idempotent_sweep_builds_one_basis_per_dissection_and_silting_build(monkeypatch):
    # one basis per dissection, shared by its shortcut quivers and its own
    # silting build, and one more for each isomorphism class first met as a
    # shortcut
    dissections = all_dissections(7)
    classes, shortcut_builds = [], 0

    def new_class(shape) -> bool:
        if any(oracles.isomorphic_shapes(rep, shape) for rep in classes):
            return False
        classes.append(shape)
        return True

    for q in map(quiver_of_dissection, dissections):
        new_class(q.shape)
        for J in quiver.nonempty_subsets(q.vertices):
            shortcut_builds += new_class(shortcut_quiver(q, J).shape)
    calls = count_calls(monkeypatch, quiver, "algebra_basis")
    assert verify.verify_idempotent_exhaustive(7).ok
    assert len(calls) == len(dissections) + shortcut_builds == 202


def test_idempotent_sweep_compares_the_complexes_a_single_instance_builds(monkeypatch):
    # the two complexes each instance hands to iso_by_gvectors, in sweep
    # order, equal those verify_idempotent_reduction builds for (q, J): a
    # plan reused for the wrong shape or positions would show here
    direct: dict = {}

    def silting(q):
        if q not in direct:
            direct[q] = verify.silting_complex(q)
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


def test_idempotent_sweep_restricts_once_per_shape_and_positions(monkeypatch):
    # a plan per (ambient shape, J positions): 541 label-free restrictions
    # for the 1,400 instances at m=7, with the silting cores and algebra
    # bases of the sweep unchanged: one core per isomorphism class
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
    assert len(cores) == 15 and len(bases) == 202


@pytest.mark.parametrize("m", [6, 7])
def test_idempotent_sweep_makes_each_plan_at_the_instance_that_needs_it(monkeypatch, m):
    # an instance's latency runs from the previous record to its own, and
    # in that span it makes at most one restriction and one shortcut quiver:
    # no instance pays for the plan of another
    restrictions = count_calls(monkeypatch, verify, "restriction")
    shortcuts = count_calls(monkeypatch, quiver, "_shortcut_quiver")
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


def test_audit_rejects_a_triangle_boundary_by_degree_alone():
    # pure, every ridge (a vertex) in two facets, connected, sign-coherent,
    # independent and injective: only the dual graph degree sees that the
    # facets have 2 vertices where there are 3 coordinates
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cx = oracles.facet_complex(
        ("x", "y", "z"),
        [ComplexVertex(i, g, f"v{i}") for i, g in enumerate(units)],
        [(0, 1), (0, 2), (1, 2)],
    )
    assert verify.audit_complex(cx) == ["dual graph degrees [2] instead of 3"]


def relabel_crossing(monkeypatch, pair: set[str], crossing: bool) -> None:
    """Make the accordion side call the two black diagonals of pair crossing
    (or not), whatever the geometry says."""
    monkeypatch.setattr(
        accordion,
        "crosses",
        lambda x, y: crossing if {x.label(), y.label()} == pair else crosses(x, y),
    )


def test_a_dropped_compatible_pair_fails_the_instance_and_is_named(monkeypatch):
    # b0-b2 and b2-b4 do not cross; calling them crossing drops one edge of
    # the accordion side's compatibility graph
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    relabel_crossing(monkeypatch, {"b0-b2", "b2-b4"}, True)
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
    relabel_crossing(monkeypatch, {"b0-b2", "b1-b3"}, False)
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
    # the nested checks read each accordion complex's facets once, so an
    # impure one raises as it did when the build itself checked purity
    real = complexes.maximal_cliques
    monkeypatch.setattr(complexes, "maximal_cliques", lambda n, adj: real(n, adj) + [(0,)])
    with pytest.raises(NonPureComplexError, match=r"^accordion facet \(0,\) has size 1"):
        verify.verify_nested_exhaustive(5, structural=structural)
    fan = validate_dissection(6, [(0, 2), (0, 3), (0, 4)])
    with pytest.raises(NonPureComplexError, match=r"^accordion facet \(0,\) has size 1"):
        verify.verify_nested(validate_dissection(6, [(0, 2)]), fan)
