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
maximal such sets.

Everything is computed for all black diagonals at once, on bitmasks whose
bit k stands for the k-th pair of all_white_diagonal_pairs(m).  Two split
masks depend only on m and are built once per m: member[v] holds the black
diagonals whose S holds white vertex v, and below[p] those (i, j) with
i < p, so below[q] ^ below[p] holds those with p <= i < q.  One pass over
the cells of d then folds each cell's member masks into in1, in2, out1 and
out2, the black diagonals with at least one or two of the cell's vertices
inside S, or outside.  The cell straddles the diagonals in in2 & out2, and
the accordion diagonals are those no cell straddles.  lone_in = in1 & ~in2
holds those for which the cell's lone vertex lies inside S.

A diagonal (p, q) of d is crossed by the black diagonals in
member[p] ^ member[q].  Its two cells, A inside the arc p..q and B outside,
meet only in p and q, so where the diagonal is crossed and neither cell
straddles, each cell's lone vertex is p or q, whichever is alone on its
side, and the two lone vertices differ exactly when lone_in[A] and
lone_in[B] differ: nonzero = (member[p] ^ member[q]) & (lone_in[A] ^
lone_in[B]).  The walk from b_i reaches A first when p <= i < q, so with
arc = below[q] ^ below[p] the first lone vertex lies in S on
first_in = (arc & lone_in[A]) | (~arc & lone_in[B]).  Then
minus = nonzero & first_in and plus = nonzero & ~first_in, and coordinate
t of black diagonal k is +1, -1 or 0 by bit k of plus_t and minus_t.

The compatibility graph is the subgraph that geometry.noncrossing(m)
induces on the accordion diagonals, since black diagonals are indexed by
the same label pairs as white ones.  A vertex's key is its black
diagonal's index k, and one naming function per m gives its label b<i>-b<j>
and payload {"black": [i, j]} when the complex's vertices are first read.
accordion_complex_of_cells takes the cells of d from its caller, so a check
that also reads d's quiver off them cuts d once.  This module only builds
the complex; the theorem checks that compare it (main and nested) live in
verify.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

from .complexes import LabeledComplex, induced_graph
from .errors import InputError, NotAccordionError
from .geometry import Dissection, all_white_diagonal_pairs, cells, noncrossing, sides


class _Split(NamedTuple):
    """The split masks of the m-gon's black diagonals, in
    all_white_diagonal_pairs(m) order: their pairs, the naming function of
    their indices, member[v] for each white vertex v and below[p] for
    0 <= p <= m."""

    blacks: tuple[tuple[int, int], ...]
    name_of: Callable[[int], tuple[str, dict]]
    member: tuple[int, ...]
    below: tuple[int, ...]


@functools.cache
def _split(m: int) -> _Split:
    blacks = tuple(all_white_diagonal_pairs(m))
    labels = tuple(f"b{i}-b{j}" for i, j in blacks)

    def name_of(k: int) -> tuple[str, dict]:
        return labels[k], {"black": list(blacks[k])}

    return _Split(
        blacks,
        name_of,
        tuple(
            sum(1 << k for k, (i, j) in enumerate(blacks) if i < v <= j)
            for v in range(m)
        ),
        tuple(
            sum(1 << k for k, (i, _) in enumerate(blacks) if i < p)
            for p in range(m + 1)
        ),
    )


def _split_pass(d: Dissection, split: _Split, faces: list[tuple[int, ...]]):
    """Each cell's straddle mask, and the plus and minus masks of each
    diagonal of d, in dissection order; faces is cells(d)."""
    member, below = split.member, split.below
    full = below[-1]
    straddle: list[int] = []
    lone_in: list[int] = []
    # a cell's labels increase counterclockwise, so the cell lies inside the
    # arc p..q of its closing side (p, q) and outside the arcs of its other
    # sides
    inside: dict[tuple[int, int], int] = {}
    outside: dict[tuple[int, int], int] = {}
    for c, cell in enumerate(faces):
        in1 = in2 = out1 = out2 = 0
        for v in cell:
            s = member[v]
            in2 |= in1 & s
            in1 |= s
            s ^= full
            out2 |= out1 & s
            out1 |= s
        straddle.append(in2 & out2)
        lone_in.append(in1 & ~in2)
        *steps, closing = sides(cell)
        inside[closing] = c
        outside.update((side, c) for side in steps)
    plus: list[int] = []
    minus: list[int] = []
    for p, q in d.diagonals:
        a, b = lone_in[inside[p, q]], lone_in[outside[p, q]]
        arc = below[q] ^ below[p]
        nonzero = (member[p] ^ member[q]) & (a ^ b)
        first_in = (arc & a) | (~arc & b)
        minus.append(nonzero & first_in)
        plus.append(nonzero & ~first_in)
    return straddle, plus, minus


def _gvecs(rows, plus: list[int], minus: list[int]) -> tuple[tuple[int, ...], ...]:
    """The g-vectors of the black diagonals at positions rows."""
    signs = list(zip(plus, minus))
    return tuple([tuple([(a >> k & 1) - (b >> k & 1) for a, b in signs]) for k in rows])


def _accordion(d: Dissection, faces: list[tuple[int, ...]]):
    """The split masks of d's m-gon, the positions of d's accordion
    diagonals in increasing order, and their g-vectors; faces is cells(d)."""
    split = _split(d.cycle.m)
    straddle, plus, minus = _split_pass(d, split, faces)
    rejected = 0
    for s in straddle:
        rejected |= s
    rows = tuple([k for k in range(len(split.blacks)) if not rejected >> k & 1])
    return split, rows, _gvecs(rows, plus, minus)


def g_vector(d: Dissection, black: tuple[int, int]) -> tuple[int, ...]:
    """One coordinate per diagonal of d, in dissection order.

    For black = (i, j), the black diagonal b_i-b_j with i < j, and
    S = {i+1, ..., j}: a diagonal (p, q), p < q, with both or neither
    endpoint in S is not crossed and gets 0.  A crossed one gets 0 when its
    two cells have the same lone vertex.  Otherwise take the lone vertex of
    the cell reached first from b_i, the cell inside the arc p..q when
    p <= i < q and the other one otherwise: the coordinate is +1 when that
    vertex lies outside S and -1 when inside.

    Raises InputError when black is not a black diagonal of d's m-gon, and
    NotAccordionError, naming the first cell with two or more vertices on
    each side of S and its crossed sides in side order.
    """
    m = d.cycle.m
    split = _split(m)
    black = tuple(black)
    if black not in split.blacks:
        raise InputError(
            f"{black} is not a black diagonal of the {m}-gon: "
            f"need labels 0 <= i < j < {m}, not adjacent, and not (0, {m - 1})"
        )
    k = split.blacks.index(black)
    faces = cells(d)
    straddle, plus, minus = _split_pass(d, split, faces)
    i, j = black
    for cell, s in zip(faces, straddle):
        if s >> k & 1:
            crossed = [f"{p}-{q}" for p, q in sides(cell) if (i < p <= j) != (i < q <= j)]
            raise NotAccordionError(cell, crossed)
    return _gvecs([k], plus, minus)[0]


def accordion_complex(d: Dissection) -> LabeledComplex:
    """Vertices: accordion diagonals; faces: pairwise noncrossing sets."""
    return accordion_complex_of_cells(d, cells(d))


def accordion_complex_of_cells(
    d: Dissection, faces: list[tuple[int, ...]]
) -> LabeledComplex:
    """accordion_complex(d), given faces = cells(d)."""
    split, rows, gvecs = _accordion(d, faces)
    return LabeledComplex(
        tuple([f"{p}-{q}" for p, q in d.diagonals]),
        gvecs,
        rows,
        split.name_of,
        graph=induced_graph(noncrossing(d.cycle.m), rows),
        kind="accordion",
    )
