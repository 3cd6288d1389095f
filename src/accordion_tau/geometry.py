"""Convex polygon combinatorics on vertex labels.

White vertices 0..m-1 run counterclockwise around the polygon, and black
vertex b_k sits between white k and white k+1.  A diagonal of either
colour is the increasing pair (p, q) of its end labels.  White diagonals
carve the polygon into cells, one cut at a time; a cell is the increasing
tuple of its white labels, which is its counterclockwise order, and its
sides are label pairs.  Black diagonals are the probes whose crossing
patterns the rest of the package measures.  Labels increase
counterclockwise for both colours, so two diagonals of the same colour
cross when their label pairs interleave: integer comparisons, no floating
point anywhere.  Both colours index their diagonals by the same label
pairs, so `noncrossing(m)`, one table per m built from `crosses`, holds the
noncrossing relation of either: `all_dissections` grows white dissections
on it, and the accordion side reads its compatibility graph off it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import (
    AdjacentVerticesError,
    CrossingPairError,
    DuplicateDiagonalError,
    InputError,
)


class PointCycle:
    """The polygon's size: m white vertices, m >= 3."""

    __slots__ = ("m",)
    m: int

    def __init__(self, m: int):
        if m < 3:
            raise InputError(f"need at least 3 white vertices, got m={m}")
        self.m = m

    def __eq__(self, other):
        if not isinstance(other, PointCycle):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"PointCycle(m={self.m})"


def crosses(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Do two diagonals of the same colour cross in the open disk?  Shared
    endpoints do not count.

    Each diagonal is its label pair (a, b) with a < b, so the open arc a..b
    holds exactly the labels strictly between them, and two diagonals
    without a common endpoint cross when that arc holds one endpoint of the
    other.
    """
    (a, b), (c, d) = c1, c2
    if a == c or a == d or b == c or b == d:
        return False
    return (a < c < b) != (a < d < b)


def _adjacent_labels(m: int, i: int, j: int) -> bool:
    return (i - j) % m in (0, 1, m - 1)


class Dissection(NamedTuple):
    """A set of pairwise noncrossing white diagonals, each its label pair
    (p, q) with p < q, kept in input order."""

    cycle: PointCycle
    diagonals: tuple[tuple[int, int], ...]

    def white_pairs(self) -> list[tuple[int, int]]:
        return list(self.diagonals)

    def contains(self, other: "Dissection") -> bool:
        return set(other.diagonals) <= set(self.diagonals)

    def to_json(self) -> dict:
        return {"m": self.cycle.m, "diagonals": [list(p) for p in self.diagonals]}


def validate_dissection(m: int, pairs) -> Dissection:
    """Build a Dissection from white vertex label pairs, or raise an InputError."""
    cycle = PointCycle(m)
    diagonals: list[tuple[int, int]] = []
    for raw in pairs:
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            raise InputError(f"a diagonal is a pair of vertex labels, got {raw!r}")
        i, j = raw
        if any(isinstance(x, bool) or not isinstance(x, int) for x in raw):
            raise InputError(f"vertex labels must be integers, got {raw!r}")
        i %= m
        j %= m
        if _adjacent_labels(m, i, j):
            raise AdjacentVerticesError((i, j))
        key = (min(i, j), max(i, j))
        if key in diagonals:
            raise DuplicateDiagonalError(key)
        diagonals.append(key)
    for idx, c1 in enumerate(diagonals):
        for c2 in diagonals[idx + 1 :]:
            if crosses(c1, c2):
                raise CrossingPairError(c1, c2)
    return Dissection(cycle, tuple(diagonals))


def cells(d: Dissection) -> list[tuple[int, ...]]:
    """Faces of the dissection, cut out one diagonal at a time, each the
    increasing tuple of its white labels.

    The polygon (0, ..., m-1) starts as the only face.  Each diagonal (i, j)
    lies in the one face that holds both endpoints, and replaces it by the
    two arcs it cuts off: i around to j, and j around to i.  Labels increase
    counterclockwise, so both arcs stay increasing and each tuple lists its
    cell counterclockwise from the smallest label.  The result does not
    depend on the order of the diagonals.
    """
    faces = [tuple(range(d.cycle.m))]
    for i, j in d.white_pairs():
        face = next(f for f in faces if i in f and j in f)
        faces.remove(face)
        a, b = sorted((face.index(i), face.index(j)))
        faces += [face[a : b + 1], face[: a + 1] + face[b:]]
    return sorted(faces)


def sides(cell: tuple[int, ...]) -> list[tuple[int, int]]:
    """The sides of a cell counterclockwise, each as its label pair (p, q)
    with p < q: consecutive labels first, then the closing side from the
    largest label back to the smallest."""
    return [*zip(cell, cell[1:]), (cell[0], cell[-1])]


def all_white_diagonal_pairs(m: int) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(m)
        for j in range(i + 2, m)
        if not (i == 0 and j == m - 1)
    ]


@functools.cache
def noncrossing(m: int) -> tuple[int, ...]:
    """The noncrossing table of the m-gon's diagonals, of either colour: bit
    y of entry x is set when pairs x != y of all_white_diagonal_pairs(m) do
    not cross.  No entry holds its own bit."""
    pairs = all_white_diagonal_pairs(m)
    return tuple(
        sum(1 << y for y, c in enumerate(pairs) if y != x and not crosses(pair, c))
        for x, pair in enumerate(pairs)
    )


def all_dissections(m: int) -> list[Dissection]:
    """Nonempty dissections of the m-gon, in lexicographic order of diagonal lists."""
    cycle = PointCycle(m)
    pairs = all_white_diagonal_pairs(m)
    out: list[Dissection] = []
    _grow(cycle, pairs, noncrossing(m), (), (1 << len(pairs)) - 1, out)
    return out


def _grow(cycle, pairs, compatible, chosen: tuple, allowed: int, out: list) -> None:
    """Append chosen plus each allowed diagonal, lowest first, each followed
    by its own extensions by later compatible diagonals.  A module function, not
    a closure: a closure that calls itself is a reference cycle."""
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        nxt = low.bit_length() - 1
        grown = chosen + (pairs[nxt],)
        out.append(Dissection(cycle, grown))
        _grow(cycle, pairs, compatible, grown, allowed & compatible[nxt], out)
