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
itself.  quiver.subset_positions(q, J) gives the coordinates J keeps.

Both complexes are clique complexes, so every check compares compatibility
graphs under the g-vector map (complexes.iso_by_gvectors), and a
restriction to some coordinates is an induced subgraph: no theorem check
enumerates cliques, except where purity is checked.  The checks read each
complex's columns (g-vectors, graph, and for the nested check the keys
that name black diagonals), so a passed instance names no vertex: labels
are built, when first read, for failure text and printed complexes.  The
check that each facet holds one vertex per coordinate runs once per
silting build (rigidity.silting_core) and once per accordion complex the
nested checks build, both on the masks of the clique walk
(LabeledComplex.check_purity), so no checked complex keeps facets.  The
main check needs no accordion facets: a graph isomorphism onto the checked
silting complex carries its purity over.  Structural audits and printed
complexes read facets.  Likewise an instance's text ("m=7 [...] inside
[...]") is written only with a failure or audit message: the sweeps hand
VerifySummary an _Instance, whose str() is that text.

Exhaustive runs iterate all dissections of one polygon.  The nested sweep
keeps one accordion complex per ordered diagonal tuple, looks a
sub-dissection's up by that tuple and makes a Dissection only to build a
missing one; every other complex lives for its own dissection or instance
only.  A silting complex depends on its quiver's shape alone
(GentleQuiver.shape: vertex positions and arrow indices, with the arrow
names in one tuple that only the labels read), and the algebra layer takes
shapes (quiver.algebra_basis), so the main and idempotent sweeps keep one
label-free core per shape and label it for every quiver of the shape
(rigidity._label_core, as silting_complex does for one quiver).
They cut a dissection into cells once, read the quiver's shape off them
(quiver.dissection_shape), and label the ambient silting complex on the
dissection's diagonals, so they build no GentleQuiver at all; a shape met
for the first time runs a named quiver's checks once, on the shape
(quiver.check_shape).  The main sweep reads the accordion complex off the
same cells, as verify_main does.  An isomorphism of gentle quivers
carries one silting complex onto the other with the g-vector coordinates
permuted, so a core is built (rigidity.silting_core) once per isomorphism
class, on the basis of the class's canonical form (quiver.canonical_form):
the form keeps the core built on it (a form is itself a shape and its own
form), and every other shape takes that core, transported
(rigidity.transport_core).  One dict holds them all, per shape its form
and its core.  A repeated g-vector in a core is transported as it is and
fails every instance that reads it (iso_by_gvectors' "duplicate g-vector"
line, the audit's injectivity check).  Beside the cores, the idempotent
sweep keeps a plan per (ambient shape, J positions): the shortcut quiver's
shape and the label-free restriction (complexes.restriction: kept
vertices, g-vectors and induced graph), never a quiver, basis or labelled
complex.  The instance that first meets a pair makes its plan on the basis
of the ambient shape, which the shape's first dissection builds once; a
core is built on a basis of its own.  Every instance names its plan from
its own ambient complex (complexes.name_restriction) and labels its
shortcut complex from the core of the plan's shortcut shape on J.  The
sweeps compare the built complexes with the same comparison the
single-instance checks use (compare_nested, iso_by_gvectors), and each
induced complex is built once and shared by the comparison and the
audit.  The consistency sweep builds one algebra basis per dissection,
reads every shortcut quiver off it, and builds only each shortcut quiver's
own basis besides.  The memos, plans included, are locals of one sweep, so
a sweep split into chunks keeps them per chunk.  DRIVERS lists the sweeps
for the command line and the scripts.

With structural=True every complex that shows up is accounted for by the
structural audit (pseudomanifold, facet size, sign coherence, facet
independence, injective g-vectors), which reads only g-vectors and facets.
A sweep runs it once per label-free complex and carries a clean result
(_carried_audit): to every silting complex of a quiver isomorphism class
audited clean, since each is the form's core with its coordinates
permuted and its vertices renumbered, and across a passed g-vector match
to a complex audited clean (main: accordion vs silting; nested: induced vs
A(d); idempotent: induced vs shortcut silting).  That rests on one
precondition: a matched complex's facets are the maximal cliques of its
graph, as they are for every complex the sweeps build.  Any other complex
is audited directly, so messages and complexes_audited read as if every
complex were audited.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .accordion import accordion_complex, accordion_complex_of_cells
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
from .geometry import Dissection, all_dissections, cells
from .quiver import (
    GentleQuiver,
    _shortcut_shape,
    algebra_basis,
    canonical_form,
    check_shape,
    dissection_shape,
    idempotent_subalgebra_check,
    nonempty_subsets,
    quiver_basis,
    quiver_of_dissection,
    quivers_match,
    shortcut_quivers,
    subset_positions,
)
from .rigidity import (
    SiltingCore,
    _checked_silting,
    _label_core,
    direct_sum,
    hom_shift,
    silting_core,
    silting_vertices,
    transport_core,
)


def verify_main(d: Dissection) -> IsoReport:
    """The headline comparison for a single dissection, cut into cells
    once: the accordion complex and the quiver's shape are both read off
    them, and the silting complex is built on the shape and named by d's
    diagonals."""
    faces = cells(d)
    acc = accordion_complex_of_cells(d, faces)
    shape = dissection_shape(d, faces)
    check_shape(shape)
    return iso_by_gvectors(acc, _checked_silting(algebra_basis(shape), d.diagonals)[1])


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
    """The accordion complex of d, checked once on the masks of its clique
    walk (LabeledComplex.check_purity), which raises NonPureComplexError
    unless each maximal clique has one vertex per diagonal; no facet is kept."""
    cx = accordion_complex(d)
    cx.check_purity()
    return cx


def compare_nested(small: LabeledComplex, induced: LabeledComplex) -> IsoReport:
    """The nested comparison on built complexes: A(d) against A(d')
    restricted to the coordinates of d.  The isomorphism must be the
    identity on black diagonals, with g-vectors matching after restriction.
    """
    report = iso_by_gvectors(small, induced)
    if report.passed:
        # the nested sweep's pairs share the accordion naming function, so
        # equal black diagonals show as equal keys, and nothing is named; a
        # passed match maps vertex k of small to the k-th value, in order
        images = report.vertex_map.values()
        if small.name_of is induced.name_of and tuple(small.keys) == tuple(
            map(induced.keys.__getitem__, images)
        ):
            return report
        for vid, wid in report.vertex_map.items():
            if small.named_alike(vid, induced, wid):
                continue
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


def verify_idempotent_reduction(q: GentleQuiver, J) -> IsoReport:
    """Silting complex of the shortcut algebra vs the induced subcomplex.

    One algebra basis of q serves the shortcut quiver's shape and q's own
    silting complex.  The comparison itself is iso_by_gvectors on the two
    built complexes; exhaustive sweeps call it directly on complexes they
    reuse.
    """
    positions = subset_positions(q, J)
    basis = quiver_basis(q)
    small_basis = algebra_basis(_shortcut_shape(basis, positions))
    small = _checked_silting(small_basis, tuple(q.vertices[k] for k in positions))[1]
    induced = restrict_to_coordinates(_checked_silting(basis, q.vertices)[1], positions)
    return iso_by_gvectors(small, induced)


def audit_complex(cx: LabeledComplex) -> list[str]:
    """All structural expectations at once; empty list means clean.

    Every audit reads only g-vectors and facets, so the exhaustive sweeps
    run it once per label-free complex and carry a clean result to the
    complexes that provably equal it (_carried_audit)."""
    fails = structural_failures(cx)
    fails.extend(is_pseudomanifold(cx).failures)
    n = len(cx.coordinates)
    off = sorted({len(f) for f in cx.facets} - {n})
    if off:
        fails.append(f"facet sizes {off} instead of {n}")
    return fails


def _carried_audit(
    cx: LabeledComplex,
    clean: set[tuple],
    key: tuple | None = None,
    matched: tuple | None = None,
) -> list[str]:
    """audit_complex(cx), or [] without running it when cx provably equals
    a complex of the same sweep whose audit came back clean.

    clean holds the keys of the label-free complexes one sweep has audited
    clean: the canonical form of a quiver isomorphism class for silting
    complexes (_silting_by_shape), the ordered diagonals for accordion
    complexes.  key is cx's own key, and joins clean when this audit comes
    back clean.  matched is the key of the complex that a passed
    iso_by_gvectors or compare_nested matched cx to, None when the match
    failed.  A clean result carries by two rules:
    - a labelled silting complex shares its core's g-vectors and graph
      (rigidity._label_core), and the cores of one class are the form's
      core with its vertices renumbered and its coordinates permuted
      (rigidity.transport_core), so every complex of a class audited clean
      is clean;
    - a passed match is a bijection of vertices that keeps g-vectors and
      carries one compatibility graph onto the other.

    Precondition: the facets of a matched complex are the maximal cliques
    of its graph.  That holds for every complex the sweeps build, and then
    the match carries facets onto facets, so purity, ridges, connectivity,
    facet sizes, sign coherence, facet independence and injective
    g-vectors read the same on both sides.  Every other complex (a failed match, a dirty partner, a
    partner not yet audited) is audited directly, so the messages, their
    order and complexes_audited are those of auditing every complex."""
    if key in clean or matched in clean:
        return []
    fails = audit_complex(cx)
    if key is not None and not fails:
        clean.add(key)
    return fails


class _Instance(NamedTuple):
    """An instance's name, written out only when a message reads it: str()
    gives "m=<m> [diagonals]", followed by joiner and [rest] when joiner is
    set, as in "m=7 [(0, 2)] inside [(0, 2), (0, 3)]" or
    "m=7 [(0, 2), (0, 3)] J=[(0, 3)]"."""

    m: int
    diagonals: tuple
    joiner: str = ""
    rest: tuple = ()

    def __str__(self) -> str:
        text = f"m={self.m} {list(self.diagonals)}"
        return f"{text}{self.joiner}{list(self.rest)}" if self.joiner else text


@dataclass
class VerifySummary:
    """Counts and messages of one sweep.  An instance is anything whose
    str() names it (the sweeps pass an _Instance), and it is written out
    only for a message."""

    theorem: str
    checked: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)
    structural: list[str] = field(default_factory=list)
    complexes_audited: int = 0

    @property
    def ok(self) -> bool:
        return self.checked == self.passed and not self.structural

    def record(self, instance: object, report: IsoReport):
        self.checked += 1
        if report.passed:
            self.passed += 1
        else:
            self.failures.append(f"{instance}: {'; '.join(report.failures)}")

    def audit(self, instance: object, part: str, messages: list[str]):
        """Count one audited complex, the part of the instance named by
        part, and record its audit_complex messages, each prefixed with the
        instance and the part."""
        self.complexes_audited += 1
        for msg in messages:
            self.structural.append(f"{instance} {part}: {msg}")

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


def _silting_by_shape(
    cores: dict[tuple, tuple[tuple, SiltingCore]], shape: tuple, vertices: tuple
) -> tuple[LabeledComplex, tuple]:
    """The silting complex of the quiver of this shape on these vertices,
    labelled from the core of the shape (rigidity._label_core) and the
    shape's arrow names, and the key
    its audit carries by (_carried_audit): the canonical form of the shape,
    since every core of a class is the form's core relabelled.

    cores holds, per shape met, its form and its core.  A form is itself a
    shape and its own form, so the core built on the form is the form's
    entry, and every other shape of the class takes that core, transported.
    Each shape met for the first time, and each form whose core is built,
    is checked once (quiver.check_shape), and algebra_basis checks every
    form it builds on for gentleness."""
    entry = cores.get(shape)
    if entry is None:
        check_shape(shape)
        canon = canonical_form(shape)
        form = canon[0]
        if form not in cores:
            if form != shape:
                check_shape(form)
            cores[form] = (form, silting_core(algebra_basis(form)))
        if shape != form:
            cores[shape] = (form, transport_core(cores[form][1], canon, shape))
        entry = cores[shape]
    form, core = entry
    return _label_core(core, vertices, shape[3]), form


def verify_main_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nonempty dissection of the m-gon; one silting build per quiver
    isomorphism class.  Each dissection is cut into cells once: the
    accordion complex and the quiver's shape are both read off them, and
    the silting complex is labelled from the shape's core on d's diagonals,
    with no quiver built for d."""
    summary = VerifySummary("main")
    cores: dict[tuple, tuple[tuple, SiltingCore]] = {}
    clean: set[tuple] = set()
    for d in all_dissections(m):
        instance = _Instance(m, d.diagonals)
        faces = cells(d)
        acc = accordion_complex_of_cells(d, faces)
        silt, key = _silting_by_shape(cores, dissection_shape(d, faces), d.diagonals)
        report = iso_by_gvectors(acc, silt)
        summary.record(instance, report)
        if structural:
            # the silting side first, so that a clean audit carries over
            silt_audit = _carried_audit(silt, clean, key=key)
            matched = key if report.passed else None
            summary.audit(instance, "accordion", _carried_audit(acc, clean, matched=matched))
            summary.audit(instance, "silting", silt_audit)
    return summary


def verify_nested_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nested pair of nonempty dissections, subsets taken in ambient order.

    Each sub-dissection is itself a dissection of the m-gon, so the sweep
    builds one accordion complex per dissection, keyed by its ordered
    diagonals (their order fixes the coordinate order), and makes a
    Dissection for a sub-dissection only when its key is not yet built."""
    summary = VerifySummary("nested")
    built: dict[tuple, LabeledComplex] = {}
    clean: set[tuple] = set()

    def accordion(d: Dissection) -> LabeledComplex:
        key = d.diagonals
        cx = built[key] = _checked_accordion(d)
        if structural:
            summary.audit(_Instance(m, key), "accordion", _carried_audit(cx, clean, key=key))
        return cx

    for big in all_dissections(m):
        diagonals = big.diagonals
        big_cx = built.get(diagonals) or accordion(big)
        positions_of = nonempty_subsets(tuple(range(len(diagonals))))
        for key, positions in zip(nonempty_subsets(diagonals), positions_of):
            small = built.get(key) or accordion(Dissection(big.cycle, key))
            induced = restrict_to_coordinates(big_cx, positions)
            instance = _Instance(m, key, " inside ", diagonals)
            report = compare_nested(small, induced)
            summary.record(instance, report)
            if structural:
                matched = key if report.passed else None
                summary.audit(
                    instance, "induced", _carried_audit(induced, clean, matched=matched)
                )
    return summary


class _Plan(NamedTuple):
    """What an idempotent instance (q, J) computes from q's shape and J's
    positions alone: the shortcut quiver's shape and the label-free
    restriction of q's silting complex to J's coordinates."""

    shortcut_shape: tuple
    restriction: Restriction


def verify_idempotent_exhaustive(m: int, structural: bool = False) -> VerifySummary:
    """Every nonempty vertex subset J of every dissection's quiver.

    Each dissection is read as the main sweep reads it, and its ambient
    silting complex is labelled (and audited) for it alone.  The plan of
    (ambient shape, J positions) is made by the first instance that meets
    the pair, from one algebra basis of the shape, which the shape's first
    dissection (which meets every J position) builds, reads and drops; a
    core's build makes its own basis of the form.  Each instance names its
    plan from its own ambient complex and labels its shortcut complex from
    the plan's shortcut shape on J; with structural=True it audits that
    complex, carrying a clean class audit.
    """
    summary = VerifySummary("idempotent")
    cores: dict[tuple, tuple[tuple, SiltingCore]] = {}
    clean: set[tuple] = set()
    plans: dict[tuple, dict[tuple, _Plan]] = {}  # ambient shape -> J positions -> plan
    # plans repeat their parts: the 4,221 plans at m=8 hold 1,851 distinct
    # kept-vertex tuples, 190 g-vector tuples and 185 graph tuples, so they
    # share one copy of each, and of each shortcut shape
    shared: dict[tuple, tuple] = {}

    for d in all_dissections(m):
        diagonals = d.diagonals
        shape = dissection_shape(d, cells(d))
        ambient, key = _silting_by_shape(cores, shape, diagonals)
        shape_plans = plans.setdefault(shape, {})
        # the shape's first dissection makes all its plans, on one basis
        basis = None if shape_plans else algebra_basis(shape)
        if structural:
            ambient_audit = _carried_audit(ambient, clean, key=key)
            summary.audit(_Instance(m, diagonals), "silting", ambient_audit)
        positions_of = nonempty_subsets(tuple(range(len(diagonals))))
        for J, positions in zip(nonempty_subsets(diagonals), positions_of):
            plan = shape_plans.get(positions)
            if plan is None:
                small_shape = _shortcut_shape(basis, positions)
                small_shape = shared.setdefault(small_shape, small_shape)
                parts = restriction(ambient, positions)
                kept = Restriction(*(shared.setdefault(part, part) for part in parts))
                plan = shape_plans[positions] = _Plan(small_shape, kept)
            small, small_key = _silting_by_shape(cores, plan.shortcut_shape, J)
            induced = name_restriction(ambient, positions, plan.restriction)
            instance = _Instance(m, diagonals, " J=", J)
            report = iso_by_gvectors(small, induced)
            summary.record(instance, report)
            if structural:
                small_audit = _carried_audit(small, clean, key=small_key)
                summary.audit(instance, "shortcut silting", small_audit)
                matched = small_key if report.passed else None
                summary.audit(
                    instance, "induced", _carried_audit(induced, clean, matched=matched)
                )
    return summary


def verify_consistency_exhaustive(m: int) -> VerifySummary:
    """Shortcut quivers of nested dissections match the small dissection's
    quiver, and the subalgebra bookkeeping holds on the same instances."""
    summary = VerifySummary("consistency")
    for big in all_dissections(m):
        q = quiver_of_dissection(big)
        basis = algebra_basis(q.shape)
        # the quiver's vertices are the diagonals' vertex pairs, in order,
        # so the k-th subset of diagonals is the k-th subset J of vertices
        pairs = zip(nonempty_subsets(big.diagonals), shortcut_quivers(basis, q.vertices))
        for sub, (J, shortcut) in pairs:
            fails = quivers_match(shortcut, quiver_of_dissection(Dissection(big.cycle, sub)))
            fails.extend(idempotent_subalgebra_check(basis, q.vertices, J, shortcut).failures)
            instance = _Instance(m, sub, " inside ", big.diagonals)
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
            x_, y_, z_ = (sv.label(q.vertices, q.shape[3]) for sv in (x, y, z))
            failures.append(f"hom_shift({x_} + {y_}, {z_}) = {lhs}, parts sum {rhs}")
        lhs = hom_shift(z.complex, direct_sum(x.complex, y.complex))
        rhs = hom_shift(z.complex, x.complex) + hom_shift(z.complex, y.complex)
        if lhs != rhs:
            x_, y_, z_ = (sv.label(q.vertices, q.shape[3]) for sv in (x, y, z))
            failures.append(f"hom_shift({z_}, {x_} + {y_}) = {lhs}, parts sum {rhs}")
    return failures
