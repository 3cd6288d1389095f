"""Independent reference implementations used only by the tests.

Everything here is deliberately written against different algorithms than
the package: dissections come from a base-edge cell recursion instead of a
compatibility DFS, triangulations from ear recursion, side-of-chord tests
from floating point cross products, accordion g-vectors from the crossed
chords ordered along the black diagonal instead of a vertex split, chord
crossings from cyclic distances between the oracle's own 2m points
instead of label comparisons, maximal
cliques, induced graphs, sign coherence and restrictions to vertex subsets
on Python sets and per-coordinate scans instead of bitmasks, Hom
dimensions from an intertwiner linear system with its own little
elimination, and the hom-shift pairing from maps between projectives instead of H^0, and quiver
isomorphisms from vertex permutations instead of an arrow-by-arrow search.  Agreement
between the two routes is the point of the tests.  Projectives as modules and as two-term complexes, which only the tests
need, live here too, and so do direct sums and the seeded check that
hom_shift is additive under them, the error the crossing walk raises on
a black diagonal that is no accordion diagonal, the dense route to minimal presentations
(a matrix per arrow, path images as vectors, the kernel of the cover by
elimination) and the compatibility graph that asks every pair, which the
package replaced by index maps and a support screen.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from accordion_tau.errors import AccordionTauError, InputError, InternalError
from accordion_tau.geometry import Dissection, PointCycle, cells
from accordion_tau.complexes import ComplexVertex, LabeledComplex
from accordion_tau.errors import AlgebraMismatchError
from accordion_tau.linalg import RowSpace
from accordion_tau.quiver import GentleQuiver, Path
from accordion_tau.rigidity import (
    Representation,
    TwoTermComplex,
    _top,
    hom_shift,
    silting_vertices,
)


# ---------------------------------------------------------------------------
# counting and enumerating dissections


def dissections(m: int) -> set[frozenset[tuple[int, int]]]:
    """All dissections of the m-gon (including the empty one).

    Recursion on the cell containing the base edge (last, first): choose the
    cell's remaining vertices, turn its long sides into diagonals, recurse
    into the arcs they cut off.
    """

    def rec(arc: tuple[int, ...]) -> set[frozenset]:
        if len(arc) <= 2:
            return {frozenset()}
        out: set[frozenset] = set()
        interior = arc[1:-1]
        for size in range(1, len(interior) + 1):
            for chosen in combinations(range(len(interior)), size):
                cell = [arc[0]] + [interior[t] for t in chosen] + [arc[-1]]
                cell_pos = [0] + [t + 1 for t in chosen] + [len(arc) - 1]
                partials = [frozenset()]
                for a, b in zip(cell_pos, cell_pos[1:]):
                    piece: set[frozenset] = {frozenset()}
                    if b - a >= 2:
                        edge = frozenset({(arc[a], arc[b])})
                        piece = {edge | sub for sub in rec(arc[a : b + 1])}
                    partials = [got | extra for got in partials for extra in piece]
                out.update(partials)
        return out

    return {
        frozenset(tuple(sorted(p)) for p in d) for d in rec(tuple(range(m)))
    }


@lru_cache(maxsize=None)
def dissection_count(m: int) -> int:
    """Same recursion as dissections(), counting only."""

    def gaps(v: int):
        for size in range(1, v - 1):
            for chosen in combinations(range(1, v - 1), size):
                js = (0,) + chosen + (v - 1,)
                yield [b - a for a, b in zip(js, js[1:])]

    @lru_cache(maxsize=None)
    def g(v: int) -> int:
        if v <= 3:
            return 1
        total = 0
        for gap_list in gaps(v):
            prod = 1
            for gap in gap_list:
                prod *= g(gap + 1)
            total += prod
        return total

    return g(m)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def triangulations(labels: tuple[int, ...], m: int) -> set[frozenset[tuple[int, int]]]:
    """Ear recursion on the edge (labels[0], labels[-1])."""
    if len(labels) < 3:
        return {frozenset()}
    out: set[frozenset] = set()
    first, last = labels[0], labels[-1]

    def diag(a: int, b: int) -> frozenset:
        if (a - b) % m in (1, m - 1):
            return frozenset()
        return frozenset({(min(a, b), max(a, b))})

    for k in range(1, len(labels) - 1):
        apex = labels[k]
        for left in triangulations(labels[: k + 1], m):
            for right in triangulations(labels[k:], m):
                out.add(diag(first, apex) | diag(apex, last) | left | right)
    return out


def all_triangulations(m: int) -> set[frozenset[tuple[int, int]]]:
    return triangulations(tuple(range(m)), m)


def flip_edges(facets) -> list[tuple[int, int]]:
    """Pairs i < j of facets sharing all but one member, by scanning every
    pair of facets (the package indexes ridges instead)."""
    sets = [set(f) for f in facets]
    return [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if len(sets[i] ^ sets[j]) == 2
    ]


def count_flip_edges(facets) -> int:
    return len(flip_edges(facets))


def degrees(graph) -> list[int]:
    """The degree of each node of an exchange graph, counted off its edges."""
    deg = [0] * len(graph.nodes)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def _record_columns(coordinates, vertices) -> tuple:
    """The coordinates, g-vectors, keys and naming function of a complex
    on these records: vertex k is named from vertices[k] by a naming
    function of its own, so no package-built complex is named alike."""
    coordinates, vertices = tuple(coordinates), tuple(vertices)
    for k, v in enumerate(vertices):
        assert v.id == k, f"vertex ids must equal positions, got {v.id} at {k}"
        assert len(v.gvec) == len(coordinates), (
            f"vertex {k} has g-vector length {len(v.gvec)}, expected {len(coordinates)}"
        )

    def name_of(k: int) -> tuple[str, dict]:
        return vertices[k].label, vertices[k].payload

    return coordinates, tuple(v.gvec for v in vertices), range(len(vertices)), name_of


def records_complex(coordinates, vertices, graph, kind=None) -> LabeledComplex:
    """The clique complex of graph on vertices given as records, each named
    from its own record."""
    graph = tuple(graph)
    assert len(graph) == len(vertices), (
        f"graph has {len(graph)} rows for {len(vertices)} vertices"
    )
    return LabeledComplex(*_record_columns(coordinates, vertices), graph, kind)


def records_copy(cx: LabeledComplex) -> LabeledComplex:
    """cx built again from its vertex records."""
    return records_complex(cx.coordinates, cx.vertices, cx.graph, cx.kind)


class FacetComplex(LabeledComplex):
    """A complex given only its facets, with no compatibility graph."""

    def __init__(self, coordinates, gvecs, keys, name_of, given_facets):
        super().__init__(coordinates, gvecs, keys, name_of, None)
        self.given_facets = given_facets

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self.given_facets


def facet_complex(coordinates, vertices, facets) -> LabeledComplex:
    """A complex given only its facets, for the audits of complexes that are
    no clique complexes (a triangle boundary, say).  Facets are sorted and
    deduplicated."""
    norm = tuple(sorted({tuple(sorted(f)) for f in facets}))
    return FacetComplex(*_record_columns(coordinates, vertices), norm)


def induced_subcomplex(cx: LabeledComplex, vertex_ids) -> LabeledComplex:
    """Maximal traces of facets on a vertex subset, kept by testing each
    trace against every other one as frozensets (the package restricts the
    compatibility graph instead)."""
    keep = sorted(set(vertex_ids))
    renumber = {old: new for new, old in enumerate(keep)}
    verts = [
        ComplexVertex(new, v.gvec, v.label, dict(v.payload))
        for new, v in enumerate(cx.vertices[old] for old in keep)
    ]
    traces = {frozenset(renumber[v] for v in f if v in renumber) for f in cx.facets}
    maximal = [t for t in traces if not any(t < other for other in traces)]
    facets = sorted(tuple(sorted(t)) for t in maximal)
    return facet_complex(cx.coordinates, verts, facets)


def restrict_to_coordinates(cx: LabeledComplex, positions) -> LabeledComplex:
    """The restriction to some coordinates, by scanning every g-vector entry
    (the package compares support bitmasks)."""
    positions = tuple(positions)
    inside = set(positions)
    ids = [
        v.id
        for v in cx.vertices
        if all(x == 0 for t, x in enumerate(v.gvec) if t not in inside)
    ]
    sub = induced_subcomplex(cx, ids)
    verts = tuple(
        ComplexVertex(v.id, tuple(v.gvec[t] for t in positions), v.label, v.payload)
        for v in sub.vertices
    )
    coords = tuple(cx.coordinates[t] for t in positions)
    return facet_complex(coords, verts, sub.facets)


def induced_graph(adj: list[set[int]], rows) -> list[set[int]]:
    """The subgraph induced on rows, vertex rows[k] renamed k, on neighbour
    sets by looking each neighbour up in rows (the package renumbers
    bitmasks through a bit table)."""
    rows = list(rows)
    return [{rows.index(w) for w in adj[v] if w in rows} for v in rows]


def set_maximal_cliques(n: int, adj: list[set[int]]) -> list[tuple[int, ...]]:
    """All maximal cliques of a graph on 0..n-1 given by neighbour sets
    (recursive Bron-Kerbosch on Python sets, with the pivot that maximises
    |P & adj[u]|, where the package walks masks with the lowest vertex of
    P | X as pivot)."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(range(n)), set())
    return sorted(cliques)


def check_sign_coherence(cx: LabeledComplex) -> list[str]:
    """The sign coherence messages, by a scan of every coordinate of every
    facet (the package ORs per-vertex sign masks instead)."""
    failures = []
    for f in cx.facets:
        for c in range(len(cx.coordinates)):
            vals = [cx.vertices[v].gvec[c] for v in f]
            if any(x > 0 for x in vals) and any(x < 0 for x in vals):
                failures.append(
                    f"facet {f}: coordinate {cx.coordinates[c]} takes both signs"
                )
    return failures


def nested_pair_count(m: int) -> int:
    """Ordered pairs (sub, ambient) of nonempty dissections with sub inside."""
    return sum(2 ** len(d) - 1 for d in dissections(m))


def isomorphic_shapes(a: tuple, b: tuple) -> bool:
    """Are two quiver shapes (GentleQuiver.shape) isomorphic?  By brute
    force: some permutation of the vertex positions, with some matching of
    the arrows between each pair of mapped ends, carries a's relations onto
    b's (the package searches arrow by arrow instead)."""
    n, arrows_a, relations_a, _ = a
    if (n, len(arrows_a), len(relations_a)) != (b[0], len(b[1]), len(b[2])):
        return False
    between: dict = {}
    for k, (src, tgt) in enumerate(b[1]):
        between.setdefault((src, tgt), []).append(k)
    for perm in permutations(range(n)):
        mapped: dict = {}
        for k, (src, tgt) in enumerate(arrows_a):
            mapped.setdefault((perm[src], perm[tgt]), []).append(k)
        if {k: len(v) for k, v in mapped.items()} != {k: len(v) for k, v in between.items()}:
            continue
        ends = sorted(mapped)
        for choice in product(*(permutations(between[k]) for k in ends)):
            amap = {x: y for k, ys in zip(ends, choice) for x, y in zip(mapped[k], ys)}
            if {(amap[x], amap[y]) for x, y in relations_a} == set(b[2]):
                return True
    return False


def isomorphism_class_count(shapes) -> int:
    """The number of isomorphism classes among quiver shapes."""
    reps: list = []
    for shape in shapes:
        if not any(isomorphic_shapes(rep, shape) for rep in reps):
            reps.append(shape)
    return len(reps)


# ---------------------------------------------------------------------------
# geometry on 2m points, via floating point and cyclic distances
#
# The oracle's own model of the polygon: 2m points sit counterclockwise on a
# circle and alternate colours, white vertex k at point 2k and black vertex k
# at point 2k+1, indices mod 2m.  A chord is the tuple (a, b), a < b, of its
# two points.  The package never sees points: its diagonals are label pairs.


def white_arc(cycle: PointCycle, p: int, q: int) -> tuple[int, int]:
    """The chord between white vertices p and q, as its points."""
    a, b = (2 * p) % (2 * cycle.m), (2 * q) % (2 * cycle.m)
    return (min(a, b), max(a, b))


def black_arc(cycle: PointCycle, i: int, j: int) -> tuple[int, int]:
    """The chord between black vertices b_i and b_j, as its points."""
    a, b = (2 * i + 1) % (2 * cycle.m), (2 * j + 1) % (2 * cycle.m)
    return (min(a, b), max(a, b))


def dist(cycle: PointCycle, a: int, b: int) -> int:
    """Counterclockwise steps from point a to point b."""
    return (b - a) % (2 * cycle.m)


def float_left_of(m: int, p: int, q: int, x: int) -> bool:
    """Strictly left of the directed chord p -> q on the unit circle."""

    def coords(k: int):
        angle = 2 * math.pi * k / (2 * m)
        return math.cos(angle), math.sin(angle)

    px, py = coords(p)
    qx, qy = coords(q)
    xx, xy = coords(x)
    cross = (qx - px) * (xy - py) - (qy - py) * (xx - px)
    return cross > 1e-9


def float_crosses(m: int, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Open-segment intersection test with float arithmetic."""
    if set(c1) & set(c2):
        return False
    a, b = c1
    c, d = c2

    def side(p, q, x):
        return float_left_of(m, p, q, x)

    return side(a, b, c) != side(a, b, d) and side(c, d, a) != side(c, d, b)


def in_open_arc(cycle: PointCycle, start: int, end: int, x: int) -> bool:
    """Is point x strictly inside the ccw arc from start to end?"""
    return 0 < dist(cycle, start, x) < dist(cycle, start, end)


def arc_crosses(cycle: PointCycle, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Crossing of two chords, given as points, by cyclic distances: no
    shared endpoint, and exactly one endpoint of c2 inside the ccw arc of c1
    (the package compares labels)."""
    if set(c1) & set(c2):
        return False
    inside = in_open_arc(cycle, *c1, c2[0]) + in_open_arc(cycle, *c1, c2[1])
    return inside == 1


# ---------------------------------------------------------------------------
# accordion g-vectors by the ordered crossing walk


class NotCrossedError(InputError):
    def __init__(self, msg):
        super().__init__(msg)


class NotAccordionError(AccordionTauError):
    """A black diagonal that misses the two-consecutive-sides condition in some cell."""

    def __init__(self, cell_vertices, crossed_sides):
        self.cell_vertices = tuple(cell_vertices)
        self.crossed_sides = tuple(crossed_sides)
        super().__init__(
            f"not an accordion diagonal: cell {self.cell_vertices} has crossed sides "
            f"{list(self.crossed_sides)}"
        )


def is_boundary(cycle: PointCycle, chord: tuple[int, int]) -> bool:
    """Does the chord, given as points, join two neighbouring vertices?"""
    return dist(cycle, *chord) in (2, 2 * cycle.m - 2)


def boundary_edges(cycle: PointCycle) -> list[tuple[int, int]]:
    """The m boundary edges, as white label pairs (p, q) with p < q."""
    m = cycle.m
    return [(min(k, (k + 1) % m), max(k, (k + 1) % m)) for k in range(m)]


def left_of(cycle: PointCycle, p: int, q: int, x: int) -> bool:
    """Is point x strictly left of the chord directed from p to q?

    Left means inside the open ccw arc from q back around to p.  Endpoints
    themselves are on neither side.
    """
    return 0 < dist(cycle, q, x) < dist(cycle, q, p)


def _pair_label(pair: tuple[int, int]) -> str:
    return f"{pair[0]}-{pair[1]}"


@dataclass(frozen=True)
class CrossingSequence:
    """The white chords crossed by a black diagonal, ordered along it.

    black is the black chord as its points, and start the point the
    ordering begins at (the smaller one).  entries are white label pairs;
    the first and last are always boundary edges, and diagonals of the
    dissection sit in between.
    """

    black: tuple[int, int]
    entries: tuple[tuple[int, int], ...]
    start: int


def crossing_sequence(d: Dissection, black: tuple[int, int]) -> CrossingSequence:
    """Crossed sides of the dissection, in order along the black diagonal
    b_i-b_j, given by its labels (i, j).

    Raises NotAccordionError as soon as some cell sees the black diagonal
    enter and leave through sides with no common white vertex.
    """
    cycle = d.cycle
    arc = black_arc(cycle, *black)

    def hit(pair):
        return arc_crosses(cycle, arc, white_arc(cycle, *pair))

    crossed = [e for e in boundary_edges(cycle) if hit(e)]
    crossed += [w for w in d.diagonals if hit(w)]
    crossed_set = set(crossed)

    for cell in cells(d):
        ring = [(min(u, v), max(u, v)) for u, v in zip(cell, cell[1:] + cell[:1])]
        sides_hit = [s for s in ring if s in crossed_set]
        if not sides_hit:
            continue
        if len(sides_hit) != 2 or not (set(sides_hit[0]) & set(sides_hit[1])):
            raise NotAccordionError(cell, [_pair_label(s) for s in sides_hit])

    start, other = arc

    def key(pair):
        # exactly one endpoint lies on the arc swept from start toward other
        a, b = white_arc(cycle, *pair)
        if in_open_arc(cycle, start, other, a):
            right, left = a, b
        else:
            right, left = b, a
        return (dist(cycle, start, right), -dist(cycle, start, left))

    ordered = tuple(sorted(crossed, key=key))
    # the walk starts and ends by stepping over the boundary next to an endpoint
    ends = (white_arc(cycle, *ordered[0]), white_arc(cycle, *ordered[-1]))
    if not all(is_boundary(cycle, end) for end in ends):
        raise InternalError(
            f"crossing sequence of b{black[0]}-b{black[1]} must end on the boundary"
        )
    return CrossingSequence(arc, ordered, start)


def sign(delta: tuple[int, int], d: Dissection, seq: CrossingSequence) -> int:
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
        a, b = seq.black
        raise NotCrossedError(
            f"{_pair_label(delta)} is not crossed by b{(a - 1) // 2}-b{(b - 1) // 2}"
        ) from None
    prev_shared = set(seq.entries[k - 1]) & set(delta)
    next_shared = set(seq.entries[k + 1]) & set(delta)
    if len(prev_shared) != 1 or len(next_shared) != 1:
        raise InternalError(f"{_pair_label(delta)} must share one endpoint with each neighbor")
    (x,) = prev_shared
    (y,) = next_shared
    if x == y:
        return 0
    a, b = seq.black
    other = b if seq.start == a else a
    return 1 if left_of(cycle, seq.start, other, 2 * x) else -1


def walk_g_vector(d: Dissection, black: tuple[int, int]) -> tuple[int, ...]:
    """The accordion g-vector of b_i-b_j, given by its labels (i, j), read
    off the ordered crossing sequence."""
    seq = crossing_sequence(d, black)
    crossed = set(seq.entries)
    return tuple(
        sign(delta, d, seq) if delta in crossed else 0 for delta in d.diagonals
    )


# ---------------------------------------------------------------------------
# module Hom via intertwiner systems (own elimination, fractions only)


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                coef = mat[r][c]
                mat[r] = [v - coef * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def hom_dim(arrows: list[tuple[str, str, str]], M: dict, N: dict) -> int:
    """dim Hom(M, N) for representations of the same quiver.

    arrows: (name, src, tgt).  M and N map vertices to dimensions and arrow
    names to matrices (lists of rows).  Unknowns are the per-vertex blocks
    phi_v; each arrow a: u -> v imposes phi_v @ M_a = N_a @ phi_u.
    """
    vertices = sorted(set(M["dims"]) | set(N["dims"]))
    offsets = {}
    total = 0
    for v in vertices:
        offsets[v] = total
        total += N["dims"][v] * M["dims"][v]
    if total == 0:
        return 0

    def unknown(v, r, c):
        return offsets[v] + r * M["dims"][v] + c

    rows: list[list[Fraction]] = []
    for name, u, v in arrows:
        ma = M["mats"].get(name, [])
        na = N["mats"].get(name, [])
        for i in range(N["dims"][v]):
            for j in range(M["dims"][u]):
                row = [Fraction(0)] * total
                # (phi_v @ M_a)[i][j]
                for k in range(M["dims"][v]):
                    coef = Fraction(ma[k][j]) if ma else Fraction(0)
                    if coef:
                        row[unknown(v, i, k)] += coef
                # (N_a @ phi_u)[i][j]
                for k in range(N["dims"][u]):
                    coef = Fraction(na[i][k]) if na else Fraction(0)
                    if coef:
                        row[unknown(u, k, j)] -= coef
                if any(row):
                    rows.append(row)
    return total - _rank(rows)


# ---------------------------------------------------------------------------
# the path algebra, read off basis.paths alone


def path_end(basis, i: int) -> int:
    """The position where basis path i ends."""
    p = basis.paths[i]
    return basis.shape[1][p.arrows[-1]][1] if p.arrows else p.source


def between(basis, u: int, v: int) -> list[int]:
    """Indices of the basis paths from position u to position v, ascending."""
    return [i for i, p in enumerate(basis.paths) if p.source == u and path_end(basis, i) == v]


def arrow_paths(basis) -> list[int]:
    """The index of each arrow's basis path, by arrow index."""
    return [basis.paths.index(Path(src, (a,))) for a, (src, _) in enumerate(basis.shape[1])]


def path_product(basis, i: int, j: int) -> int | None:
    """The index of the product of basis paths i and j: the two paths
    joined and looked up by value among basis.paths, or None when they do
    not compose or meet at a relation."""
    p, q = basis.paths[i], basis.paths[j]
    if path_end(basis, i) != q.source:
        return None
    if p.arrows and q.arrows and (p.arrows[-1], q.arrows[0]) in basis.shape[2]:
        return None
    return basis.paths.index(Path(p.source, p.arrows + q.arrows))


# ---------------------------------------------------------------------------
# projectives as modules and as two-term complexes


def proj_representation(basis, v) -> Representation:
    """The module of paths leaving position v, with the paths as its basis:
    an arrow sends a path to its product with the arrow, or to zero."""
    n, arrows, _, _ = basis.shape
    at = [between(basis, v, w) for w in range(n)]
    dims = [len(paths) for paths in at]
    action = []
    for arrow, (src, tgt) in zip(arrow_paths(basis), arrows):
        products = [path_product(basis, p, arrow) for p in at[src]]
        action.append([-1 if p is None else at[tgt].index(p) for p in products])
    return Representation(basis.shape, dims, action)


def projective_complex(basis, v) -> TwoTermComplex:
    """The projective P_v as the complex 0 -> P_v."""
    return TwoTermComplex(basis, (), (v,), [[]], proj_representation(basis, v))


def path_hom_shift(x: TwoTermComplex, y: TwoTermComplex) -> int:
    """dim Hom(x, y[1]) as maps x.p1 -> y.p0 modulo the ones factoring
    through the two differentials, one coordinate per (y.p0 summand, x.p1
    summand, path) triple (the package works on H^0 y instead)."""
    if x.basis is not y.basis:
        raise AlgebraMismatchError()
    basis = x.basis

    coords: dict[tuple[int, int, int], int] = {}
    for r, yv in enumerate(y.p0):
        for c, xv in enumerate(x.p1):
            for p in between(basis, yv, xv):
                coords[(r, c, p)] = len(coords)
    if not coords:
        return 0

    trivial = RowSpace(len(coords))
    for r, yv in enumerate(y.p0):
        for s, xv in enumerate(x.p0):
            for g in between(basis, yv, xv):
                vec = [0] * len(coords)
                hit = False
                for c in range(len(x.p1)):
                    for p, coeff in x.diff[s][c].items():
                        prod = path_product(basis, g, p)
                        if prod is not None:
                            vec[coords[(r, c, prod)]] += coeff
                            hit = True
                if hit:
                    trivial.add(vec)
    for t, yv in enumerate(y.p1):
        for c, xv in enumerate(x.p1):
            for h in between(basis, yv, xv):
                vec = [0] * len(coords)
                hit = False
                for r in range(len(y.p0)):
                    for p, coeff in y.diff[r][t].items():
                        prod = path_product(basis, p, h)
                        if prod is not None:
                            vec[coords[(r, c, prod)]] += coeff
                            hit = True
                if hit:
                    trivial.add(vec)
    return len(coords) - trivial.rank


# ---------------------------------------------------------------------------
# direct sums, and the additivity of hom_shift under them


def sum_representations(x: Representation, y: Representation) -> Representation:
    """Block-diagonal direct sum, x's basis vectors first at every vertex."""
    dims = [a + b for a, b in zip(x.dims, y.dims)]
    action = [
        xs + [-1 if t < 0 else t + x.dims[tgt] for t in ys]
        for xs, ys, (_, tgt) in zip(x.action, y.action, x.shape[1])
    ]
    return Representation(x.shape, dims, action)


def direct_sum(x: TwoTermComplex, y: TwoTermComplex) -> TwoTermComplex:
    """x + y, x's summands first, with a block-diagonal differential."""
    if x.basis is not y.basis:
        raise AlgebraMismatchError()
    diff = [
        [dict(entry) for entry in row] + [dict() for _ in y.p1] for row in x.diff
    ] + [
        [dict() for _ in x.p1] + [dict(entry) for entry in row] for row in y.diff
    ]
    module = sum_representations(x.module, y.module)
    return TwoTermComplex(x.basis, x.p1 + y.p1, x.p0 + y.p0, diff, module)


# seeded (x, y, z) triples of silting vertices per additivity spot-check
SPOTCHECK_ROUNDS = 12


def additivity_spotcheck(q: GentleQuiver, seed: int) -> list[str]:
    """hom_shift must be additive in both arguments under direct sums: one
    message per failed side of SPOTCHECK_ROUNDS seeded (x, y, z) triples
    of q's silting vertices."""
    rng = random.Random(seed)
    verts = silting_vertices(q)
    if len(verts) < 2:
        return []
    failures = []
    for _ in range(SPOTCHECK_ROUNDS):
        x, y, z = (rng.choice(verts) for _ in range(3))
        x_, y_, z_ = (sv.label(q.vertices, q.shape[3]) for sv in (x, y, z))
        both = direct_sum(x.complex, y.complex)
        lhs = hom_shift(both, z.complex)
        rhs = hom_shift(x.complex, z.complex) + hom_shift(y.complex, z.complex)
        if lhs != rhs:
            failures.append(f"hom_shift({x_} + {y_}, {z_}) = {lhs}, parts sum {rhs}")
        lhs = hom_shift(z.complex, both)
        rhs = hom_shift(z.complex, x.complex) + hom_shift(z.complex, y.complex)
        if lhs != rhs:
            failures.append(f"hom_shift({z_}, {x_} + {y_}) = {lhs}, parts sum {rhs}")
    return failures


# ---------------------------------------------------------------------------
# minimal presentations on dense matrices, and the all-pairs graph


def mats(rep: Representation) -> list[list[list[int]]]:
    """The matrix of each arrow u -> v of rep, of shape dim_v x dim_u, by
    arrow index."""
    out = []
    for act, (src, tgt) in zip(rep.action, rep.shape[1]):
        mat = [[0] * rep.dims[src] for _ in range(rep.dims[tgt])]
        for t, image in enumerate(act):
            if image >= 0:
                mat[image][t] = 1
        out.append(mat)
    return out


def mat_vec(mat: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(map(operator.mul, row, vec)) for row in mat]


def kernel(vectors: list[list[int]], width: int) -> list[list[int]]:
    """Basis of the relations {x : sum_k x[k] * vectors[k] == 0}.

    Eliminates the tagged rows [vectors[k] | e_k]: a stored row whose pivot
    falls in the tag part is zero on the first width entries, so its tag
    part is a relation, and those rows span every relation.
    """
    n = len(vectors)
    space = RowSpace(width + n)
    for k, vec in enumerate(vectors):
        space.add(list(vec) + [int(t == k) for t in range(n)])
    return [row[width:] for row, piv in zip(space.rows, space.pivots) if piv >= width]


def path_images(rep: Representation, basis) -> list[list[list[int]]]:
    """images[i][t]: basis vector t at the source of path i pushed along it,
    as a vector: its prefix path's images times its last arrow's matrix."""
    matrices = mats(rep)
    images: list[list[list[int]]] = []
    for p in basis.paths:
        if not p.arrows:
            dim = rep.dims[p.source]
            images.append([[int(r == t) for r in range(dim)] for t in range(dim)])
        else:
            j = basis.paths.index(Path(p.source, p.arrows[:-1]))
            images.append([mat_vec(matrices[p.arrows[-1]], vec) for vec in images[j]])
    return images


def min_presentation(basis, rep: Representation) -> TwoTermComplex:
    """Minimal projective presentation of rep by elimination alone: the top
    and the kernel of the cover are computed from vectors, with no use of
    rep being monomial."""
    n, arrows, _, _ = basis.shape
    vertices = range(n)
    images = path_images(rep, basis)

    radical: list[list] = [[] for _ in vertices]
    for arrow, (_, tgt) in zip(arrow_paths(basis), arrows):
        radical[tgt].extend(images[arrow])
    summands0 = []
    for v in vertices:
        if rep.dims[v]:
            summands0.extend((v, t) for t in _top(rep.dims[v], radical[v], images[v]))
    p0_at: list[list] = [[] for _ in vertices]
    for s, (v, _) in enumerate(summands0):
        for u in vertices:
            p0_at[u].extend((s, i) for i in between(basis, v, u))

    kernel_at: list[list] = [[] for _ in vertices]
    for u in vertices:
        dim = rep.dims[u]
        if not (p0_at[u] or dim):
            continue
        value = [images[i][summands0[s][1]] for s, i in p0_at[u]]
        kernel_at[u] = kernel(value, dim)
        if len(value) - len(kernel_at[u]) != dim:
            raise InternalError("projective cover must be surjective")

    radical_at: list[list] = [[] for _ in vertices]
    for arrow, (u, wv) in zip(arrow_paths(basis), arrows):
        pos = {pair: k for k, pair in enumerate(p0_at[wv])}
        for kvec in kernel_at[u]:
            image = [0] * len(p0_at[wv])
            for k, (s, i) in enumerate(p0_at[u]):
                prod = path_product(basis, i, arrow)
                if kvec[k] and prod is not None:
                    image[pos[(s, prod)]] += kvec[k]
            radical_at[wv].append(image)

    summands1 = [
        (wv, t)
        for wv in vertices
        if kernel_at[wv] or radical_at[wv]
        for t in _top(len(p0_at[wv]), radical_at[wv], kernel_at[wv])
    ]
    diff = [[dict() for _ in summands1] for _ in summands0]
    for c, (wv, t) in enumerate(summands1):
        for k, (s, i) in enumerate(p0_at[wv]):
            if kernel_at[wv][t][k]:
                diff[s][c][i] = kernel_at[wv][t][k]
    return TwoTermComplex(
        basis,
        tuple(wv for wv, _ in summands1),
        tuple(v for v, _ in summands0),
        diff,
        rep,
    )


def compatibility_graph(n: int, compatible) -> tuple[int, ...]:
    """The neighbour masks of a pairwise relation on 0..n-1: compatible(i, j)
    is asked once for each pair i < j."""
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if compatible(i, j):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


# ---------------------------------------------------------------------------
# fixture: the 3-vertex algebra 1 -> 2 -> 3 with the composite killed

PATH3_ARROWS = [("a0", "1", "2"), ("a1", "2", "3")]


def _rep(d1, d2, d3, a0=None, a1=None) -> dict:
    mats = {}
    if a0 is not None:
        mats["a0"] = a0
    if a1 is not None:
        mats["a1"] = a1
    return {"dims": {"1": d1, "2": d2, "3": d3}, "mats": mats}


PATH3_MODULES = {
    "S1": _rep(1, 0, 0),
    "S2": _rep(0, 1, 0),
    "S3": _rep(0, 0, 1),
    "P1": _rep(1, 1, 0, a0=[[Fraction(1)]]),
    "P2": _rep(0, 1, 1, a1=[[Fraction(1)]]),
}

# AR translates, entered by hand: the two almost split sequences are
# 0 -> S2 -> P1 -> S1 -> 0 and 0 -> S3 -> P2 -> S2 -> 0.
PATH3_TAU = {"S1": "S2", "S2": "S3", "S3": None, "P1": None, "P2": None}

# g-vectors identify the package objects; fixture side computed by hand from
# the minimal presentations P(S1): P2 -> P1, P(S2): P3 -> P2, P(S3): 0 -> P3.
PATH3_GVECTORS = {
    "S1": (1, -1, 0),
    "S2": (0, 1, -1),
    "S3": (0, 0, 1),
    "P1": (1, 0, 0),
    "P2": (0, 1, 0),
    "P1[1]": (-1, 0, 0),
    "P2[1]": (0, -1, 0),
    "P3[1]": (0, 0, -1),
}


def path3_compatible(x: str, y: str) -> bool:
    """Fixture rule for pairwise compatibility of the 8 objects.

    module/module: Hom(M, tau N) = 0 = Hom(N, tau M), via the fixture table;
    module/shifted P_j[1]: M must vanish at j; shifted/shifted: always.
    """

    def support_ok(module: str, shifted: str) -> bool:
        j = shifted[1]  # "P2[1]" -> vertex "2"
        return PATH3_MODULES[module]["dims"][j] == 0

    x_shift, y_shift = x.endswith("[1]"), y.endswith("[1]")
    if x_shift and y_shift:
        return True
    if x_shift != y_shift:
        module, shifted = (y, x) if x_shift else (x, y)
        return support_ok(module, shifted)
    for a, b in ((x, y), (y, x)):
        tau = PATH3_TAU[b]
        if tau is not None and hom_dim(
            PATH3_ARROWS, PATH3_MODULES[a], PATH3_MODULES[tau]
        ):
            return False
    return True
