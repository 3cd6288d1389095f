"""The theorem checks, one instance or exhaustively.  Every comparison of
two complexes lives here; the builder modules only build them.

The checks:
  main        accordion complex of d  vs  silting complex of its quiver
  idempotent  silting of a shortcut algebra  vs  induced silting subcomplex
  nested      accordion complex of d  vs  induced subcomplex for d inside d'
  consistency shortcut quiver of d' at d  vs  quiver of d (exhaustive only)

Single-instance checks: verify_main(d), verify_nested(d, d_prime) and
verify_idempotent_reduction(q, J), each of which builds its complexes and
returns an IsoReport.  compare_nested(small, induced) is the nested
comparison on built complexes; the idempotent comparison is iso_by_gvectors
itself.  subset_positions(q, J) gives the coordinates a subset J keeps.

Both complexes are clique complexes, so every check compares compatibility
graphs under the g-vector map (complexes.iso_by_gvectors), and a
restriction to some coordinates is an induced subgraph: no theorem check
enumerates cliques, except where purity is checked.  Facets, and with them
the check that each holds one vertex per coordinate, are built once per
silting core (rigidity.silting_core) and once per accordion complex the
nested checks build.  The main check needs no accordion facets: a graph
isomorphism onto the checked silting complex carries its purity over.
Structural audits and printed complexes read facets.

Exhaustive runs iterate all dissections of one polygon and build each
complex once per sweep: the nested sweep keeps one accordion complex per
ordered diagonal tuple, and the idempotent sweep one silting complex (and
its audit messages) per distinct shortcut quiver, while each ambient
complex lives for its own dissection only.  A silting complex depends on
its quiver's shape alone (GentleQuiver.shape: vertex positions, not
names), so the main and idempotent sweeps keep one label-free core per
shape and label it for every quiver of the shape (rigidity.label_silting),
as silting_complex does for one quiver.  An isomorphism of gentle quivers
carries one silting complex onto the other with the g-vector coordinates
permuted, so a core is built (rigidity.silting_core) once per isomorphism
class: a new shape finds an isomorphic shape built before
(quiver.quiver_isomorphism, among the shapes of its quiver_invariant) and
takes that core, transported (rigidity.transport_core).  The idempotent
sweep hands an ambient build the algebra basis it already holds.  Beside
the cores, the idempotent sweep keeps a plan
per (ambient shape, J positions): the shortcut quiver's shape and the
label-free restriction (complexes.restriction: kept vertices, g-vectors and
induced graph), never a quiver, basis or labelled complex.  The instance
that first meets a pair makes its plan, and every instance names its plan
from its own ambient complex (complexes.name_restriction).  The sweeps
compare the built complexes with the same comparison the single-instance
checks use (compare_nested, iso_by_gvectors), and each induced complex is
built once and shared by the comparison and the audit.  The consistency
sweep builds one algebra basis per dissection, reads every shortcut quiver
off it, and builds only each shortcut quiver's own basis besides.  The
memos, plans included, are locals of one sweep, so a sweep split into
chunks keeps them per chunk.  DRIVERS lists the sweeps for the command line
and the scripts.  With structural=True every complex that shows up also
goes through the structural audit (pseudomanifold, regular dual graph, sign
coherence, facet independence, injective g-vectors).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .accordion import accordion_complex
from .complexes import (
    IsoReport,
    LabeledComplex,
    Restriction,
    is_pseudomanifold,
    iso_by_gvectors,
    name_restriction,
    restrict_to_coordinates,
    restriction,
    structural_failures,
)
from .errors import EmptyDissectionError, NotNestedError
from .geometry import Dissection, all_dissections
from .quiver import (
    AlgebraBasis,
    GentleQuiver,
    _shortcut_quiver,
    algebra_basis,
    idempotent_subalgebra_check,
    nonempty_subsets,
    quiver_invariant,
    quiver_isomorphism,
    quiver_of_dissection,
    quivers_match,
    shortcut_quiver,
    shortcut_quivers,
)
from .rigidity import (
    SiltingCore,
    direct_sum,
    hom_shift,
    label_silting,
    silting_complex,
    silting_core,
    silting_vertices,
    transport_core,
)


def verify_main(d: Dissection) -> IsoReport:
    """The headline comparison for a single dissection."""
    return iso_by_gvectors(
        accordion_complex(d), silting_complex(quiver_of_dissection(d))
    )


def verify_nested(d: Dissection, d_prime: Dissection) -> IsoReport:
    """Compare A(d) with the induced subcomplex of A(d') it should equal.

    The subcomplex of A(d') sits on the accordion diagonals whose g-vectors
    vanish outside the coordinates of d.
    """
    if not d.diagonals:
        raise EmptyDissectionError()
    if d.cycle != d_prime.cycle or not d_prime.contains(d):
        raise NotNestedError(
            f"{d.white_pairs()} is not nested inside {d_prime.white_pairs()}"
        )
    positions = tuple(d_prime.diagonals.index(delta) for delta in d.diagonals)
    induced = restrict_to_coordinates(_checked_accordion(d_prime), positions)
    return compare_nested(_checked_accordion(d), induced)


def _checked_accordion(d: Dissection) -> LabeledComplex:
    """The accordion complex of d, its facets read once: the read raises
    NonPureComplexError unless each facet has one vertex per diagonal."""
    cx = accordion_complex(d)
    cx.facets
    return cx


def compare_nested(small: LabeledComplex, induced: LabeledComplex) -> IsoReport:
    """The nested comparison on built complexes: A(d) against A(d')
    restricted to the coordinates of d.  The isomorphism must be the
    identity on black diagonals, with g-vectors matching after restriction.
    """
    report = iso_by_gvectors(small, induced)
    if report.passed:
        for vid, wid in report.vertex_map.items():
            b1 = small.vertices[vid].payload["black"]
            b2 = induced.vertices[wid].payload["black"]
            if b1 != b2:
                report.failures.append(
                    f"g-vector match sends black diagonal {b1} to {b2}"
                )
        if report.failures:
            report.passed = False
            report.vertex_map = None
    return report


def subset_positions(q: GentleQuiver, J) -> tuple[int, ...]:
    """Positions of the vertices in J among q's vertices, in quiver order."""
    jset = set(J)
    return tuple(i for i, v in enumerate(q.vertices) if v in jset)


def verify_idempotent_reduction(q: GentleQuiver, J) -> IsoReport:
    """Silting complex of the shortcut algebra vs the induced subcomplex.

    The comparison itself is iso_by_gvectors on the two built complexes;
    exhaustive sweeps call it directly on complexes they reuse.
    """
    small = silting_complex(shortcut_quiver(q, J))
    induced = restrict_to_coordinates(silting_complex(q), subset_positions(q, J))
    return iso_by_gvectors(small, induced)


def audit_complex(cx: LabeledComplex) -> list[str]:
    """All structural expectations at once; empty list means clean."""
    fails = structural_failures(cx)
    report = is_pseudomanifold(cx)
    fails.extend(report.failures)
    if report.graph is not None:
        # the other checks force degree = facet size, so this is the check
        # that every facet has one vertex per coordinate
        n = len(cx.coordinates)
        off = [deg for deg in report.graph.degrees() if deg != n]
        if off:
            fails.append(f"dual graph degrees {sorted(set(off))} instead of {n}")
    return fails


@dataclass
class VerifySummary:
    theorem: str
    checked: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)
    structural: list[str] = field(default_factory=list)
    complexes_audited: int = 0

    @property
    def ok(self) -> bool:
        return self.checked == self.passed and not self.structural

    def record(self, instance: str, report: IsoReport):
        self.checked += 1
        if report.passed:
            self.passed += 1
        else:
            self.failures.append(f"{instance}: {'; '.join(report.failures)}")

    def audit(self, instance: str, messages: list[str]):
        """Count one audited complex and record its audit_complex messages,
        each prefixed with the instance."""
        self.complexes_audited += 1
        for msg in messages:
            self.structural.append(f"{instance}: {msg}")

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": "pass" if self.ok else "fail",
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "structural_failures": self.structural,
            "complexes_audited": self.complexes_audited,
        }


def _tag(d: Dissection) -> str:
    return f"m={d.cycle.m} {d.white_pairs()}"


def _silting_by_shape(
    cores: dict[tuple, SiltingCore],
    classes: dict[tuple, list[tuple]],
    q: GentleQuiver,
    basis: AlgebraBasis | None = None,
) -> LabeledComplex:
    """The silting complex of q, labelled from the core of q's shape.

    cores holds a core per shape met; classes lists, by quiver invariant,
    the shapes whose cores were built, one per isomorphism class.  A new
    shape takes the core of an isomorphic built shape, transported, and
    only a shape with none (or a transport that gives up) builds its core;
    basis, when given, is q's."""
    core = cores.get(q.shape)
    if core is None:
        shape = q.shape
        built = classes.setdefault(quiver_invariant(shape), [])
        for other in built:
            iso = quiver_isomorphism(other, shape)
            if iso is not None:
                core = transport_core(cores[other], iso, shape)
                break
        else:
            built.append(shape)
        if core is None:
            core = silting_core(algebra_basis(q) if basis is None else basis)
        cores[shape] = core
    return label_silting(core, q)


def verify_main_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nonempty dissection of the m-gon; one silting build per quiver
    isomorphism class."""
    summary = VerifySummary("main")
    cores: dict[tuple, SiltingCore] = {}
    classes: dict[tuple, list[tuple]] = {}
    for d in all_dissections(m):
        acc = accordion_complex(d)
        silt = _silting_by_shape(cores, classes, quiver_of_dissection(d))
        summary.record(_tag(d), iso_by_gvectors(acc, silt))
        if structural:
            summary.audit(_tag(d) + " accordion", audit_complex(acc))
            summary.audit(_tag(d) + " silting", audit_complex(silt))
    return summary


def verify_nested_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nested pair of nonempty dissections, subsets taken in ambient order.

    Each sub-dissection is itself a dissection of the m-gon, so the sweep
    builds one accordion complex per dissection, keyed by its ordered
    diagonals (their order fixes the coordinate order)."""
    summary = VerifySummary("nested")
    built: dict[tuple, LabeledComplex] = {}

    def accordion(d: Dissection) -> LabeledComplex:
        key = tuple(d.white_pairs())
        if key not in built:
            cx = _checked_accordion(d)
            built[key] = cx
            if structural:
                summary.audit(_tag(d) + " accordion", audit_complex(cx))
        return built[key]

    for big in all_dissections(m):
        big_cx = accordion(big)
        for positions in nonempty_subsets(tuple(range(len(big.diagonals)))):
            d = Dissection(big.cycle, tuple(big.diagonals[t] for t in positions))
            instance = f"{_tag(d)} inside {big.white_pairs()}"
            induced = restrict_to_coordinates(big_cx, positions)
            summary.record(instance, compare_nested(accordion(d), induced))
            if structural:
                summary.audit(f"{instance} induced", audit_complex(induced))
    return summary


class _Plan(NamedTuple):
    """What an idempotent instance (q, J) computes from q's shape and J's
    positions alone: the shortcut quiver's shape and the label-free
    restriction of q's silting complex to J's coordinates."""

    shortcut_shape: tuple
    restriction: Restriction


def verify_idempotent_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nonempty vertex subset J of every dissection's quiver.

    Each dissection's ambient silting complex is labelled (and audited)
    for that dissection alone.  Shortcut quivers repeat across dissections
    and subsets, so the sweep keeps one labelled shortcut complex per
    distinct shortcut quiver, keyed by its value (shape, vertices); all
    complexes are labelled from the cores of _silting_by_shape.  It keeps
    one plan per (ambient shape, J positions), made by the first instance
    that meets the pair; each instance names its plan from its own ambient
    complex and builds its shortcut quiver only when that quiver's complex
    is new.  One algebra basis per dissection yields those shortcut quivers
    and, when the ambient core is built, that build.  With structural=True
    each shortcut complex is audited once and its messages are kept beside
    it; every instance still counts and reports them.
    """
    summary = VerifySummary("idempotent")
    cores: dict[tuple, SiltingCore] = {}
    classes: dict[tuple, list[tuple]] = {}
    shortcuts: dict[tuple, tuple[LabeledComplex, list[str]]] = {}
    plans: dict[tuple, dict[tuple, _Plan]] = {}  # ambient shape -> J positions -> plan
    # plans repeat their parts: the 4,221 plans at m=8 hold 1,851 distinct
    # kept-vertex tuples, 190 g-vector tuples and 185 graph tuples, so they
    # share one copy of each, and of each shortcut shape
    shared: dict[tuple, tuple] = {}

    for d in all_dissections(m):
        tag = _tag(d)
        q = quiver_of_dissection(d)
        basis = algebra_basis(q)
        ambient = _silting_by_shape(cores, classes, q, basis)
        if structural:
            summary.audit(tag + " silting", audit_complex(ambient))
        shape_plans = plans.setdefault(q.shape, {})
        positions_of = nonempty_subsets(tuple(range(len(q.vertices))))
        for J, positions in zip(nonempty_subsets(q.vertices), positions_of):
            shortcut = None
            plan = shape_plans.get(positions)
            if plan is None:
                shortcut = _shortcut_quiver(basis, set(J))
                shape = shared.setdefault(shortcut.shape, shortcut.shape)
                parts = restriction(ambient, positions)
                kept = Restriction(*(shared.setdefault(part, part) for part in parts))
                plan = shape_plans[positions] = _Plan(shape, kept)
            key = (plan.shortcut_shape, J)
            entry = shortcuts.get(key)
            if entry is None:
                small = _silting_by_shape(
                    cores, classes, shortcut or _shortcut_quiver(basis, set(J))
                )
                entry = shortcuts[key] = (small, audit_complex(small) if structural else [])
            small, small_audit = entry
            induced = name_restriction(ambient, positions, plan.restriction)
            instance = f"{tag} J={list(J)}"
            summary.record(instance, iso_by_gvectors(small, induced))
            if structural:
                summary.audit(f"{instance} shortcut silting", small_audit)
                summary.audit(f"{instance} induced", audit_complex(induced))
    return summary


def verify_consistency_exhaustive(m: int) -> VerifySummary:
    """Shortcut quivers of nested dissections match the small dissection's
    quiver, and the subalgebra bookkeeping holds on the same instances."""
    summary = VerifySummary("consistency")
    for big in all_dissections(m):
        basis = algebra_basis(quiver_of_dissection(big))
        # the quiver's vertices are the diagonals' vertex pairs, in order,
        # so the k-th subset of diagonals is the k-th subset J of vertices
        pairs = zip(nonempty_subsets(big.diagonals), shortcut_quivers(basis))
        for sub, (J, shortcut) in pairs:
            d = Dissection(big.cycle, sub)
            instance = f"{_tag(d)} inside {big.white_pairs()}"
            fails = quivers_match(shortcut, quiver_of_dissection(d))
            fails.extend(idempotent_subalgebra_check(basis, J, shortcut).failures)
            summary.record(instance, IsoReport(not fails, None, fails))
    return summary


# Every exhaustive sweep in report order, called as DRIVERS[name](m, structural=...).
# The consistency sweep builds no complexes, so it has nothing to audit.
DRIVERS: dict[str, Callable[..., VerifySummary]] = {
    "main": verify_main_exhaustive,
    "nested": verify_nested_exhaustive,
    "idempotent": verify_idempotent_exhaustive,
    "consistency": lambda m, structural=False: verify_consistency_exhaustive(m),
}


# seeded (x, y, z) triples of silting vertices per additivity spot-check
SPOTCHECK_ROUNDS = 12


def additivity_spotcheck(q: GentleQuiver, seed: int) -> list[str]:
    """hom_shift must be additive in both arguments under direct sums."""
    rng = random.Random(seed)
    verts = silting_vertices(q)
    if len(verts) < 2:
        return []
    failures = []
    for _ in range(SPOTCHECK_ROUNDS):
        x, y, z = (rng.choice(verts) for _ in range(3))
        lhs = hom_shift(direct_sum(x.complex, y.complex), z.complex)
        rhs = hom_shift(x.complex, z.complex) + hom_shift(y.complex, z.complex)
        if lhs != rhs:
            failures.append(
                f"hom_shift({x.label} + {y.label}, {z.label}) = {lhs}, parts sum {rhs}"
            )
        lhs = hom_shift(z.complex, direct_sum(x.complex, y.complex))
        rhs = hom_shift(z.complex, x.complex) + hom_shift(z.complex, y.complex)
        if lhs != rhs:
            failures.append(
                f"hom_shift({z.label}, {x.label} + {y.label}) = {lhs}, parts sum {rhs}"
            )
    return failures
