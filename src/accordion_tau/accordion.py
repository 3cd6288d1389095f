"""Accordion diagonals of a dissection and the complex they span.

A black diagonal b_i-b_j (i < j) splits the white vertices into
S = {i+1, ..., j} and the rest, and it crosses exactly the white chords
with one endpoint in S.  It is an accordion diagonal of a dissection d
when no cell of d has two or more vertices on each side of S; then every
cell it meets has a lone vertex, its only vertex on one side, where the
two crossed sides of the cell meet (the zigzag shape).  Each accordion
diagonal gets an integer g-vector with one coordinate per diagonal of d:
0 on uncrossed diagonals and at a V, where the two cells of a crossed
diagonal share their lone vertex, and otherwise a sign read off from the
lone vertex of the cell the walk from b_i reaches first.  The accordion
complex collects pairwise noncrossing accordion diagonals; facets are the
maximal such sets.  Every diagonal is its label pair, cells are label
tuples and their sides label pairs, so the split and the crossing test
compare integers.  This module only builds the complex; the theorem
checks that compare it (main and nested) live in verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexVertex, LabeledComplex, clique_complex
from .errors import NotAccordionError
from .geometry import Dissection, all_white_diagonal_pairs, cells, crosses, sides


def _g_vector_of(d: Dissection):
    """The g-vector function of d, with the cells of d and the two cells
    on either side of each diagonal found once.  Called on the black labels
    (i, j), i < j, it returns the g-vector of an accordion diagonal, and for
    any other black diagonal the index of the first cell with two or more
    vertices on each side of S, so that callers who skip those diagonals
    build no error message."""
    faces = cells(d)
    # a cell's labels increase counterclockwise, so the cell lies inside the
    # arc p..q of its closing side (p, q) and outside the arcs of its other
    # sides
    inside: dict[tuple[int, int], int] = {}
    outside: dict[tuple[int, int], int] = {}
    for c, cell in enumerate(faces):
        *steps, closing = sides(cell)
        inside[closing] = c
        outside.update((side, c) for side in steps)
    pairs = d.white_pairs()

    def g_vector_of(i: int, j: int) -> tuple[int, ...] | int:
        lone: list[int | None] = []
        for c, cell in enumerate(faces):
            in_s = [v for v in cell if i < v <= j]
            out_s = [v for v in cell if not i < v <= j]
            if len(in_s) == 1:
                lone.append(in_s[0])
            elif len(out_s) == 1:
                lone.append(out_s[0])
            elif in_s and out_s:
                return c
            else:
                lone.append(None)
        gvec = []
        for p, q in pairs:
            if (i < p <= j) == (i < q <= j):
                gvec.append(0)
                continue
            first, second = lone[inside[p, q]], lone[outside[p, q]]
            if not p <= i < q:
                first, second = second, first
            gvec.append(0 if first == second else -1 if i < first <= j else 1)
        return tuple(gvec)

    return g_vector_of


def g_vector(d: Dissection, black: tuple[int, int]) -> tuple[int, ...]:
    """One coordinate per diagonal of d, in dissection order.

    For black = (i, j), the black diagonal b_i-b_j with i < j, and
    S = {i+1, ..., j}: a diagonal (p, q), p < q, with both or neither
    endpoint in S is not crossed and gets 0.  A crossed one gets 0 when its
    two cells have the same lone vertex.  Otherwise take the lone vertex of
    the cell reached first from b_i, the cell inside the arc p..q when
    p <= i < q and the other one otherwise: the coordinate is +1 when that
    vertex lies outside S and -1 when inside.

    Raises NotAccordionError, naming the first cell with two or more
    vertices on each side of S and its crossed sides in side order.
    """
    i, j = black
    gvec = _g_vector_of(d)(i, j)
    if isinstance(gvec, int):
        cell = cells(d)[gvec]
        crossed = [f"{p}-{q}" for p, q in sides(cell) if (i < p <= j) != (i < q <= j)]
        raise NotAccordionError(cell, crossed)
    return gvec


@dataclass(frozen=True)
class AccordionVertex:
    black: tuple[int, int]
    gvec: tuple[int, ...]


def accordion_vertices(d: Dissection) -> list[AccordionVertex]:
    """All accordion diagonals of d with their g-vectors, by black label."""
    g_vector_of = _g_vector_of(d)
    out = []
    for i, j in all_white_diagonal_pairs(d.cycle.m):
        gvec = g_vector_of(i, j)
        if not isinstance(gvec, int):
            out.append(AccordionVertex((i, j), gvec))
    return out


def accordion_complex(d: Dissection) -> LabeledComplex:
    """Vertices: accordion diagonals; faces: pairwise noncrossing sets."""
    verts = accordion_vertices(d)
    cxverts = [
        ComplexVertex(k, v.gvec, "b{}-b{}".format(*v.black), {"black": list(v.black)})
        for k, v in enumerate(verts)
    ]
    return clique_complex(
        "accordion",
        (f"{p}-{q}" for p, q in d.diagonals),
        cxverts,
        lambda i, j: not crosses(verts[i].black, verts[j].black),
    )
