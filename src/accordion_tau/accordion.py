"""Accordion diagonals of a dissection and the complex they span.

A black diagonal is an accordion diagonal of a dissection d when, inside
every cell it meets, it crosses exactly two sides and those sides share a
white vertex (the zigzag shape).  Each accordion diagonal gets an integer
g-vector with one coordinate per diagonal of d: 0 on uncrossed diagonals,
and on crossed ones a sign read off from how the zigzag turns.  The
accordion complex collects pairwise noncrossing accordion diagonals; facets
are the maximal such sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexVertex, IsoReport, LabeledComplex, clique_complex
from .complexes import iso_by_gvectors, restrict_to_coordinates
from .errors import (
    EmptyDissectionError,
    InternalError,
    NotAccordionError,
    NotCrossedError,
    NotNestedError,
)
from .geometry import (
    Cell,
    Chord,
    Dissection,
    all_black_diagonal_chords,
    boundary_edges,
    cells,
    crosses,
    in_open_arc,
    is_boundary,
    left_of,
)


@dataclass(frozen=True)
class CrossingSequence:
    """The white chords crossed by a black diagonal, ordered along it.

    start is the endpoint of the black chord the ordering begins at (the
    smaller point index).  The first and last entries are always boundary
    edges; diagonals of the dissection sit in between.
    """

    black: Chord
    entries: tuple[Chord, ...]
    start: int


def crossing_sequence(d: Dissection, black: Chord, cell_list: list[Cell] | None = None) -> CrossingSequence:
    """Crossed sides of the dissection, in order along the black diagonal.

    Raises NotAccordionError as soon as some cell sees the black diagonal
    enter and leave through sides with no common white vertex.
    """
    cycle = d.cycle
    if cell_list is None:
        cell_list = cells(d)

    crossed = [e for e in boundary_edges(cycle) if crosses(cycle, black, e)]
    crossed += [w for w in d.diagonals if crosses(cycle, black, w)]
    crossed_set = set(crossed)

    for cell in cell_list:
        hit = [s for s in cell.sides if s in crossed_set]
        if not hit:
            continue
        if len(hit) != 2 or not (set(hit[0].endpoints()) & set(hit[1].endpoints())):
            raise NotAccordionError(cell.vertices, [s.label() for s in hit])

    start, other = black.a, black.b

    def key(chord: Chord):
        # exactly one endpoint lies on the arc swept from start toward other
        if in_open_arc(cycle, start, other, chord.a):
            right, left = chord.a, chord.b
        else:
            right, left = chord.b, chord.a
        return (cycle.dist(start, right), -cycle.dist(start, left))

    ordered = tuple(sorted(crossed, key=key))
    # the walk starts and ends by stepping over the boundary next to an endpoint
    if not (is_boundary(cycle, ordered[0]) and is_boundary(cycle, ordered[-1])):
        raise InternalError(f"crossing sequence of {black.label()} must end on the boundary")
    return CrossingSequence(black, ordered, start)


def sign(delta: Chord, d: Dissection, seq: CrossingSequence) -> int:
    """Turn direction of the zigzag at a crossed diagonal: +1, -1 or 0.

    Looks at the white vertices the crossing sequence pivots around just
    before and just after delta.  Equal pivots mean a V shape (coordinate 0);
    otherwise the sign records which side of the directed black chord the
    incoming pivot lies on.
    """
    cycle = d.cycle
    try:
        k = seq.entries.index(delta)
    except ValueError:
        raise NotCrossedError(f"{delta.label()} is not crossed by {seq.black.label()}") from None
    prev_shared = set(seq.entries[k - 1].endpoints()) & set(delta.endpoints())
    next_shared = set(seq.entries[k + 1].endpoints()) & set(delta.endpoints())
    if len(prev_shared) != 1 or len(next_shared) != 1:
        raise InternalError(f"{delta.label()} must share one endpoint with each neighbor")
    (x,) = prev_shared
    (y,) = next_shared
    if x == y:
        return 0
    other = seq.black.other(seq.start)
    return 1 if left_of(cycle, seq.start, other, x) else -1


def g_vector(d: Dissection, black: Chord, cell_list: list[Cell] | None = None) -> tuple[int, ...]:
    """One coordinate per diagonal of d, in dissection order."""
    seq = crossing_sequence(d, black, cell_list)
    crossed = set(seq.entries)
    return tuple(
        sign(delta, d, seq) if delta in crossed else 0 for delta in d.diagonals
    )


@dataclass(frozen=True)
class AccordionVertex:
    black: Chord
    gvec: tuple[int, ...]


def accordion_vertices(d: Dissection) -> list[AccordionVertex]:
    """All accordion diagonals of d with their g-vectors, by black label."""
    cell_list = cells(d)
    out = []
    for black in all_black_diagonal_chords(d.cycle):
        try:
            out.append(AccordionVertex(black, g_vector(d, black, cell_list)))
        except NotAccordionError:
            continue
    return out


def accordion_complex(d: Dissection) -> LabeledComplex:
    """Vertices: accordion diagonals; faces: pairwise noncrossing sets."""
    verts = accordion_vertices(d)
    cxverts = [
        ComplexVertex(i, v.gvec, v.black.label(), {"black": list(v.black.vertex_pair())})
        for i, v in enumerate(verts)
    ]
    return clique_complex(
        "accordion",
        (delta.label() for delta in d.diagonals),
        cxverts,
        lambda i, j: not crosses(d.cycle, verts[i].black, verts[j].black),
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
    induced = restrict_to_coordinates(accordion_complex(d_prime), positions)
    return compare_nested(accordion_complex(d), induced)


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
