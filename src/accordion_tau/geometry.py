"""Convex polygon combinatorics on an alternately colored point cycle.

2m boundary points sit counterclockwise on a circle and alternate colors:
white vertex k is point 2k, black vertex k is point 2k+1, indices mod 2m.
White chords (boundary edges and diagonals) carve the polygon into cells,
one diagonal cut at a time; a cell is the increasing tuple of its white
labels, which is its counterclockwise order, and its sides are label pairs.
Black diagonals are the probes whose crossing patterns the rest of the
package measures.  All incidence tests are integer comparisons of point
indices, no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AdjacentVerticesError,
    CrossingPairError,
    DuplicateDiagonalError,
    InputError,
)

WHITE = "white"
BLACK = "black"


@dataclass(frozen=True, order=True)
class PointCycle:
    """The cyclic arena: m white and m black points interleaved."""

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise InputError(f"need at least 3 white vertices, got m={self.m}")

    @property
    def n_points(self) -> int:
        return 2 * self.m

    def white(self, k: int) -> int:
        return (2 * k) % self.n_points

    def black(self, k: int) -> int:
        return (2 * k + 1) % self.n_points


@dataclass(frozen=True, order=True)
class Chord:
    """Unordered chord between two points, stored with a < b."""

    a: int
    b: int
    color: str

    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)

    def vertex_pair(self) -> tuple[int, int]:
        """Same-color vertex labels of the endpoints."""
        if self.color == WHITE:
            return (self.a // 2, self.b // 2)
        return ((self.a - 1) // 2, (self.b - 1) // 2)

    def label(self) -> str:
        i, j = self.vertex_pair()
        if self.color == WHITE:
            return f"{i}-{j}"
        return f"b{i}-b{j}"


def _chord(p: int, q: int, color: str) -> Chord:
    return Chord(min(p, q), max(p, q), color)


def white_chord(cycle: PointCycle, i: int, j: int) -> Chord:
    return _chord(cycle.white(i), cycle.white(j), WHITE)


def black_chord(cycle: PointCycle, i: int, j: int) -> Chord:
    return _chord(cycle.black(i), cycle.black(j), BLACK)


def crosses(c1: Chord, c2: Chord) -> bool:
    """Do two chords cross in the open disk?  Shared endpoints do not count.

    Chords store their endpoints with a < b, so the open arc a..b holds
    exactly the points strictly between them, and two chords without a
    common endpoint cross when that arc holds one endpoint of the other.
    """
    a, b, c, d = c1.a, c1.b, c2.a, c2.b
    if a == c or a == d or b == c or b == d:
        return False
    return (a < c < b) != (a < d < b)


def _adjacent_labels(m: int, i: int, j: int) -> bool:
    return (i - j) % m in (0, 1, m - 1)


@dataclass(frozen=True)
class Dissection:
    """A set of pairwise noncrossing white diagonals, kept in input order."""

    cycle: PointCycle
    diagonals: tuple[Chord, ...]

    def white_pairs(self) -> list[tuple[int, int]]:
        return [d.vertex_pair() for d in self.diagonals]

    def contains(self, other: "Dissection") -> bool:
        return set(other.diagonals) <= set(self.diagonals)

    def to_json(self) -> dict:
        return {"m": self.cycle.m, "diagonals": [list(p) for p in self.white_pairs()]}


def validate_dissection(m: int, pairs) -> Dissection:
    """Build a Dissection from white vertex label pairs, or raise an InputError."""
    cycle = PointCycle(m)
    seen: set[tuple[int, int]] = set()
    chords: list[Chord] = []
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
        if key in seen:
            raise DuplicateDiagonalError(key)
        seen.add(key)
        chords.append(white_chord(cycle, i, j))
    for idx, c1 in enumerate(chords):
        for c2 in chords[idx + 1 :]:
            if crosses(c1, c2):
                raise CrossingPairError(c1.vertex_pair(), c2.vertex_pair())
    return Dissection(cycle, tuple(chords))


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


def all_dissections(m: int) -> list[Dissection]:
    """Nonempty dissections of the m-gon, in lexicographic order of diagonal lists."""
    cycle = PointCycle(m)
    pairs = all_white_diagonal_pairs(m)
    chords = [white_chord(cycle, i, j) for i, j in pairs]
    # bit y of compatible[x] is set when chords x and y do not cross
    compatible = [
        sum(1 << y for y, c in enumerate(chords) if not crosses(chord, c))
        for chord in chords
    ]
    out: list[Dissection] = []
    _grow(cycle, chords, compatible, (), (1 << len(chords)) - 1, out)
    return out


def _grow(cycle, chords, compatible, chosen: tuple, allowed: int, out: list) -> None:
    """Append chosen plus each allowed chord, lowest first, each followed by
    its own extensions by later compatible chords.  A module function, not
    a closure: a closure that calls itself is a reference cycle."""
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        nxt = low.bit_length() - 1
        grown = chosen + (chords[nxt],)
        out.append(Dissection(cycle, grown))
        _grow(cycle, chords, compatible, grown, allowed & compatible[nxt], out)
