"""String modules, minimal two-term presentations, and the silting complex.

Modules are right modules presented as representations of the quiver, all
monomial (string modules, their direct sums, projectives): an arrow u -> v
sends each basis vector at u to one basis vector at v or to zero, so it
acts by an index list (-1 for zero), and a relation (a, b) sends every
vector to -1.  The indecomposable rigid objects we need are presentations
of string modules together with shifted projectives; compatibility of two
objects is vanishing of the hom-shift pairing in both directions, computed
exactly by integer elimination.

Each representation builds one path-image table per basis (every basis
vector's index pushed along every basis path), and both minimal
presentations and the hom-shift pairing read it.  Every two-term complex x
carries its cohomology H^0 x as a representation, and Hom(x, y[1]) is the
cokernel of Hom(x.p0, H^0 y) -> Hom(x.p1, H^0 y) (Adachi, Iyama and
Reiten, "tau-tilting theory"): x.p1 is projective, so maps x.p1 -> y.p0
modulo those through dy are exactly the maps x.p1 -> H^0 y.

Everything here works on an algebra basis (quiver.algebra_basis), so on
vertex positions and arrow indices: a string letter is (arrow index,
forward?), and a representation's action is a list by arrow index.  Vertex
and arrow names are arguments of the texts that print them (_label,
_word_text, the band witness).  The silting complex depends on the
quiver's shape alone, arrow names aside, so silting_core builds it without
names (g-vectors, string letters, vertex positions, compatibility graph),
and _label_core turns a core, the vertices of any quiver of its shape and
the shape's arrow names into that quiver's complex.  It shares the core's
g-vectors and graph, and its one naming function (_label on those names
and the core's letters and positions) names a vertex only when the
complex's vertices are first read.  The graph asks the hom-shift pairing
only for pairs where one of its two widths can be nonzero: a P1 summand of
one object at a vertex where H^0 of the other lives.  A core keeps the
graph only: silting_core checks the purity of its facets once, on the
masks of the clique walk (LabeledComplex.check_purity), and a complex
labelled from a core builds its facets, as the maximal cliques of the
graph, when they are first read.  The core is an invariant of the algebra,
so transport_core carries the core of a canonical form
(quiver.canonical_form, built on the form itself) onto every other shape
of that form without building it again, mapping vertex positions and
arrow indices by indexing.

This module only builds the silting complex; the theorem checks that
compare it (main and idempotent) live in verify.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import LabeledComplex, induced_graph
from .errors import AlgebraMismatchError, BandDetectedError, InternalError
from .linalg import RowSpace
from .quiver import AlgebraBasis, GentleQuiver, quiver_basis, vertex_label


# ---------------------------------------------------------------------------
# strings


class StringWord(NamedTuple):
    """A reduced walk in the quiver from the vertex at position source:
    letters are (arrow index, forward?)."""

    source: int
    letters: tuple[tuple[int, bool], ...]

    def display(self, vertices, names) -> str:
        """The string's text, vertices[k] naming position k and names[a]
        arrow a."""
        return _word_text(vertices, names, self.source, self.letters)


def _word_text(vertices, names, source: int, letters) -> str:
    """The text of the string from position source along letters:
    e_<vertices[source]> when there are none, else the arrow names joined by
    dots, inverse ones primed."""
    if not letters:
        return f"e_{vertex_label(vertices[source])}"
    return ".".join(names[a] if fwd else names[a] + "'" for a, fwd in letters)


def walk_vertices(basis: AlgebraBasis, w: StringWord) -> list[int]:
    """The positions w visits.  A letter ends at its arrow's target when
    forward, at its source when inverse: arrows[a][fwd]."""
    arrows = basis.shape[1]
    return [w.source] + [arrows[a][fwd] for a, fwd in w.letters]


def _valid_pair(relations, l1: tuple[int, bool], l2: tuple[int, bool]) -> bool:
    (a1, d1), (a2, d2) = l1, l2
    if a1 == a2 and d1 != d2:
        return False  # immediate backtrack
    if d1 and d2 and (a1, a2) in relations:
        return False
    if not d1 and not d2 and (a2, a1) in relations:
        return False
    return True


def inverse_word(basis: AlgebraBasis, w: StringWord) -> StringWord:
    if not w.letters:
        return w
    a, fwd = w.letters[-1]
    letters = tuple((b, not forward) for b, forward in reversed(w.letters))
    return StringWord(basis.shape[1][a][fwd], letters)


def enumerate_strings(basis: AlgebraBasis) -> list[StringWord]:
    """All strings up to formal inverse, shortest first, each in the
    orientation the depth-first walk meets first (_first_met says which).

    A valid walk longer than twice the arrow count repeats a directed letter,
    which closes up into a relation-free cyclic walk; that is a band, and
    the algebra then has infinitely many strings, so we bail out.
    """
    n, arrows, relations, names = basis.shape
    limit = 2 * len(arrows)

    def key(w: StringWord):
        return len(w.letters), tuple((a, not fwd) for a, fwd in w.letters), w.source

    starts: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for a, (src, tgt) in enumerate(arrows):
        starts[src].append((a, True))
        starts[tgt].append((a, False))

    chosen: dict = {}
    stack = [StringWord(v, ()) for v in reversed(range(n))]
    while stack:
        w = stack.pop()
        canon = min(key(w), key(inverse_word(basis, w)))
        if canon not in chosen:
            chosen[canon] = w
        end = arrows[w.letters[-1][0]][w.letters[-1][1]] if w.letters else w.source
        for letter in starts[end]:
            if w.letters and not _valid_pair(relations, w.letters[-1], letter):
                continue
            grown = StringWord(w.source, w.letters + (letter,))
            if len(grown.letters) > limit:
                raise BandDetectedError(grown.display(range(n), names))
            stack.append(grown)
    return [chosen[c] for c in sorted(chosen)]


# ---------------------------------------------------------------------------
# representations


class Representation:
    """A monomial representation of a quiver shape; equality reads shape,
    dims and action."""

    __slots__ = ("shape", "dims", "action", "_images")
    shape: tuple
    # the dimension at each vertex position
    dims: list[int]
    # by arrow index, for arrow u -> v: the index at v of each basis vector's
    # image at u, -1 for zero
    action: list[list[int]]
    # (basis, table) of the last path_images call; not compared
    _images: tuple | None

    def __init__(self, shape: tuple, dims: list[int], action: list[list[int]]):
        self.shape, self.dims, self.action = shape, dims, action
        self._images = None

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.shape, self.dims, self.action) == (other.shape, other.dims, other.action)

    def path_images(self, basis: AlgebraBasis) -> list[list[int]]:
        """images[i][t]: the index of basis vector t at the source of path i
        pushed along it, -1 when the path kills it.

        Built once per basis: a path's images are its prefix path's images
        sent on by its last arrow.
        """
        if self._images is None or self._images[0] is not basis:
            images: list[list[int]] = []
            for p, prefix in zip(basis.paths, basis.prefix):
                if prefix is None:
                    images.append(list(range(self.dims[p.source])))
                else:
                    j, a = prefix
                    act = self.action[a]
                    images.append([-1 if t < 0 else act[t] for t in images[j]])
            self._images = (basis, images)
        return self._images[1]


def string_module(basis: AlgebraBasis, w: StringWord) -> Representation:
    """Basis vector per walk position, arrows act along the letters."""
    n, arrows, _, _ = basis.shape
    local: list[int] = []
    dims = [0] * n
    for v in walk_vertices(basis, w):
        local.append(dims[v])
        dims[v] += 1
    action = [[-1] * dims[src] for src, _ in arrows]
    for t, (a, fwd) in enumerate(w.letters):
        if fwd:
            action[a][local[t]] = local[t + 1]
        else:
            action[a][local[t + 1]] = local[t]
    return Representation(basis.shape, dims, action)


def _sum_representations(x: Representation, y: Representation) -> Representation:
    """Block-diagonal direct sum, x's basis vectors first at every vertex."""
    dims = [a + b for a, b in zip(x.dims, y.dims)]
    action = [
        xs + [-1 if t < 0 else t + x.dims[tgt] for t in ys]
        for xs, ys, (_, tgt) in zip(x.action, y.action, x.shape[1])
    ]
    return Representation(x.shape, dims, action)


# ---------------------------------------------------------------------------
# two-term complexes of projectives


class TwoTermComplex(NamedTuple):
    """P1 -> P0 with entries written as radical path combinations.

    p1 and p0 list the summand vertex positions; diff[r][c] maps a path
    index (a path from p0[r] to p1[c]) to its coefficient.  module is the
    cokernel H^0 of the differential as a representation.
    """

    basis: AlgebraBasis
    p1: tuple
    p0: tuple
    diff: list[list[dict[int, int]]]
    module: Representation

    @property
    def gvec(self) -> tuple[int, ...]:
        """P0 summands minus P1 summands, counted at each position."""
        g = [0] * self.basis.shape[0]
        for v in self.p0:
            g[v] += 1
        for v in self.p1:
            g[v] -= 1
        return tuple(g)


def shifted_projective(basis: AlgebraBasis, v: int) -> TwoTermComplex:
    """P_v -> 0, whose H^0 is the zero representation."""
    n, arrows, _, _ = basis.shape
    zero = Representation(basis.shape, [0] * n, [[] for _ in arrows])
    return TwoTermComplex(basis, (v,), (), [], zero)


def _top(width: int, radical, candidates) -> list[int]:
    """Positions of the candidates that complete the span of radical.

    The candidates must span a space containing the radical, so the final
    rank equals their number; for a kernel this says the kernel is closed
    under the arrow action.
    """
    space = RowSpace(width)
    for vec in radical:
        space.add(vec)
    top = [k for k, vec in enumerate(candidates) if space.add(vec)]
    if space.rank != len(candidates):
        raise InternalError("the radical must lie in the span of the candidates")
    return top


def _top_lifts(rep: Representation) -> list[tuple]:
    """The top of a monomial module, one (vertex, index) per basis vector
    that no arrow hits: the arrows' images are basis vectors, so the ones
    they hit span the radical."""
    hit: list[set] = [set() for _ in rep.dims]
    for act, (_, tgt) in zip(rep.action, rep.shape[1]):
        hit[tgt].update(act)
    return [(v, t) for v, dim in enumerate(rep.dims) for t in range(dim) if t not in hit[v]]


def min_presentation(basis: AlgebraBasis, rep: Representation) -> TwoTermComplex:
    """Minimal projective presentation P1 -> P0 of a monomial representation.

    P0 covers the top of the module.  The kernel of the cover is computed
    vertexwise and kept in P0 coordinates: each P0 basis element goes to
    one basis vector of the module or to zero (the path-image table says
    which), so the kernel is spanned by the elements sent to zero and by
    each element minus the first one sent to the same vector.  At each
    vertex, P1 covers the kernel vectors outside the span of the arrow
    images of the kernel at neighbouring vertices (the top of the kernel).
    The differential collects, per (P0 summand, P1 summand), the paths with
    their coefficients.  Only vertices where P0 or the module is nonzero do
    any work.
    """
    n, arrows, _, _ = basis.shape
    vertices = range(n)
    images = rep.path_images(basis)

    summands0 = _top_lifts(rep)  # (vertex, basis index in rep)
    # P0 basis elements at a vertex u: pairs (summand position, path index)
    p0_at: list[list[tuple[int, int]]] = [[] for _ in vertices]
    for s, (v, _) in enumerate(summands0):
        for u in vertices:
            p0_at[u].extend((s, i) for i in basis.between(v, u))

    kernel_at: list[list[list[int]]] = [[] for _ in vertices]
    for u in vertices:
        dim = rep.dims[u]
        if not (p0_at[u] or dim):
            continue
        width = len(p0_at[u])
        first: dict = {}  # basis vector of rep -> the first element sent to it
        for k, (s, i) in enumerate(p0_at[u]):
            t = images[i][summands0[s][1]]
            if t >= 0 and t not in first:
                first[t] = k
                continue
            kvec = [0] * width
            kvec[k] = 1
            if t >= 0:
                kvec[first[t]] = -1
            kernel_at[u].append(kvec)
        if len(first) != dim:
            raise InternalError("projective cover must be surjective")

    # arrow images of the kernel, in P0 coordinates at the arrow's target
    radical_at: list[list[list[int]]] = [[] for _ in vertices]
    for arrow, (u, wv) in zip(basis.arrow_path, arrows):
        if not kernel_at[u]:
            continue
        pos = {pair: k for k, pair in enumerate(p0_at[wv])}
        for kvec in kernel_at[u]:
            image = [0] * len(p0_at[wv])
            for k, (s, i) in enumerate(p0_at[u]):
                if kvec[k] == 0:
                    continue
                prod = basis.mult(i, arrow)
                if prod is not None:
                    image[pos[(s, prod)]] += kvec[k]
            radical_at[wv].append(image)

    summands1 = [
        (wv, t)
        for wv in vertices
        if kernel_at[wv] or radical_at[wv]
        for t in _top(len(p0_at[wv]), radical_at[wv], kernel_at[wv])
    ]
    diff: list[list[dict[int, int]]] = [
        [dict() for _ in summands1] for _ in summands0
    ]
    for c, (wv, t) in enumerate(summands1):
        kvec = kernel_at[wv][t]
        for k, (s, i) in enumerate(p0_at[wv]):
            if kvec[k] != 0:
                if not basis.paths[i].arrows:
                    raise InternalError("kernel lives in the radical")
                diff[s][c][i] = kvec[k]

    return TwoTermComplex(
        basis,
        tuple(wv for wv, _ in summands1),
        tuple(v for v, _ in summands0),
        diff,
        rep,
    )


def direct_sum(x: TwoTermComplex, y: TwoTermComplex) -> TwoTermComplex:
    if x.basis is not y.basis:
        raise AlgebraMismatchError()
    diff = [
        [dict(entry) for entry in row] + [dict() for _ in y.p1] for row in x.diff
    ] + [
        [dict() for _ in x.p1] + [dict(entry) for entry in row] for row in y.diff
    ]
    module = _sum_representations(x.module, y.module)
    return TwoTermComplex(x.basis, x.p1 + y.p1, x.p0 + y.p0, diff, module)


def hom_shift(x: TwoTermComplex, y: TwoTermComplex) -> int:
    """Dimension of Hom(x, y[1]) between two-term complexes.

    That is maps x.p1 -> y.p0 modulo the ones factoring through the two
    differentials, and it equals the cokernel of
    Hom(x.p0, H^0 y) -> Hom(x.p1, H^0 y), composition with dx (Adachi,
    Iyama and Reiten, "tau-tilting theory"): x.p1 is projective, so
    Hom(x.p1, y.p0) modulo dy . Hom(x.p1, y.p1) is Hom(x.p1, H^0 y).  With
    Hom(P_v, M) = M_v, the map sends a basis vector of M at a P0 summand
    to its images along the paths of dx, each a basis vector or zero; the
    answer is the sum of dim H^0 y over x.p1 minus the rank of that map.
    Both objects are rigid-compatible when this vanishes in both directions.
    """
    if x.basis is not y.basis:
        raise AlgebraMismatchError()
    module = y.module
    offsets = []
    width = 0
    for w in x.p1:
        offsets.append(width)
        width += module.dims[w]
    if not width:
        return 0

    images = module.path_images(x.basis)
    image = RowSpace(width)
    for v, row in zip(x.p0, x.diff):
        for t in range(module.dims[v]):
            vec = [0] * width
            for at, entry in zip(offsets, row):
                for p, coeff in entry.items():
                    k = images[p][t]
                    if k >= 0:
                        vec[at + k] += coeff
            image.add(vec)
    return width - image.rank


# ---------------------------------------------------------------------------
# the silting complex


class SiltingVertex(NamedTuple):
    """A rigid presentation: its g-vector, its string's letters (None for a
    shifted projective) and the position of the vertex it names (the
    string's source, or the shifted projective's vertex)."""

    complex: TwoTermComplex
    gvec: tuple[int, ...]
    letters: tuple[tuple[int, bool], ...] | None
    position: int

    def label(self, vertices, names) -> str:
        """The label on a quiver with these vertices and arrow names."""
        return _label(vertices, names, self.letters, self.position)[0]


def silting_vertices(q: GentleQuiver) -> list[SiltingVertex]:
    """Rigid presentations of string modules plus all shifted projectives,
    stably sorted by g-vector."""
    return _silting_vertices(quiver_basis(q))


def _silting_vertices(basis: AlgebraBasis) -> list[SiltingVertex]:
    out: list[SiltingVertex] = []
    for w in enumerate_strings(basis):
        pres = min_presentation(basis, string_module(basis, w))
        if hom_shift(pres, pres) == 0:
            out.append(SiltingVertex(pres, pres.gvec, w.letters, w.source))
    for v in range(basis.shape[0]):
        pres = shifted_projective(basis, v)
        out.append(SiltingVertex(pres, pres.gvec, None, v))
    return sorted(out, key=lambda sv: sv.gvec)


def _label(vertices, names, letters, position: int) -> tuple[str, dict]:
    """The label and payload of a silting vertex of a quiver with these
    vertices and arrow names."""
    if letters is None:
        name = vertex_label(vertices[position])
        return f"P_{name}[1]", {"kind": "shifted", "projective": name}
    text = _word_text(vertices, names, position, letters)
    return text, {"kind": "module", "string": text}


class SiltingCore(NamedTuple):
    """The silting complex of a quiver shape (GentleQuiver.shape), without
    vertex or arrow names: the g-vectors, letters and positions of its
    vertices (in silting_vertices order), then the compatibility graph,
    whose maximal cliques are the facets.
    """

    gvecs: tuple[tuple[int, ...], ...]
    letters: tuple[tuple[tuple[int, bool], ...] | None, ...]
    positions: tuple[int, ...]
    graph: tuple[int, ...]


def silting_core(basis: AlgebraBasis) -> SiltingCore:
    """The label-free silting complex of basis.shape.

    Faces are the pairwise compatible sets; facets must all be full rank.
    The complex is checked once, on the masks of its maximal cliques; the
    core keeps only its graph."""
    return _checked_silting(basis, range(basis.shape[0]))[0]


def _checked_silting(basis: AlgebraBasis, vertices) -> tuple[SiltingCore, LabeledComplex]:
    """silting_core(basis) and the silting complex of the quiver of
    basis.shape on these vertices, checked once: check_purity raises
    NonPureComplexError unless each maximal clique holds one vertex per
    coordinate.

    Hom(x, y[1]) has width zero unless a P1 summand of x sits at a vertex
    where H^0 y lives; each vertex keeps both as bitmasks of positions, and
    a pair where neither way has width is compatible without asking
    hom_shift."""
    verts = _silting_vertices(basis)
    p1, support = [], []
    for sv in verts:
        p1.append(sum({1 << v for v in sv.complex.p1}))
        support.append(sum(1 << v for v, dim in enumerate(sv.complex.module.dims) if dim))
    graph = [0] * len(verts)
    for i, sv in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if p1[i] & support[j] or p1[j] & support[i]:
                x, y = sv.complex, verts[j].complex
                if hom_shift(x, y) or hom_shift(y, x):
                    continue
            graph[i] |= 1 << j
            graph[j] |= 1 << i

    core = SiltingCore(
        tuple(sv.gvec for sv in verts),
        tuple(sv.letters for sv in verts),
        tuple(sv.position for sv in verts),
        tuple(graph),
    )
    cx = _label_core(core, vertices, basis.shape[3], kind="silting")
    cx.check_purity()
    return core, cx


def transport_core(core: SiltingCore, canon: tuple, shape: tuple) -> SiltingCore:
    """The core of a quiver shape from the core of its canonical form.

    canon is quiver.canonical_form(shape), and core is the core built on
    the form, silting_core(algebra_basis(form)).  An isomorphism of gentle
    quivers is one of their algebras, so it carries rigid strings,
    presentations and compatibility across: g-vector coordinates follow the
    vertex map, a letter on form arrow k moves to shape arrow arrow_of[k],
    and each string takes the orientation enumerate_strings keeps on shape
    (_first_met).  Sorting by g-vector then gives silting_vertices' order,
    and the graph is renumbered to it.  A rigid presentation is determined by its g-vector
    (Adachi, Iyama and Reiten, "tau-tilting theory"), so the g-vectors of a
    correct core are distinct and fix that order; a repeated one is kept
    and fails the comparison that reads it (complexes.iso_by_gvectors)."""
    _, vmap, arrow_of = canon
    back = [0] * len(vmap)
    for i, k in enumerate(vmap):
        back[k] = i
    gvecs = [tuple([g[k] for k in vmap]) for g in core.gvecs]
    first_met = _first_met(shape)
    letters, positions = [], []
    for word, at in zip(core.letters, core.positions):
        if word is not None:
            word, at = first_met(tuple([(arrow_of[k], fwd) for k, fwd in word]), back[at])
        else:
            at = back[at]
        letters.append(word)
        positions.append(at)
    order = sorted(range(len(gvecs)), key=gvecs.__getitem__)
    sorted_rows = [tuple([row[i] for i in order]) for row in (gvecs, letters, positions)]
    return SiltingCore(*sorted_rows, induced_graph(core.graph, order))


def _first_met(shape: tuple):
    """For a quiver of this shape, a function from a string (its letters and
    source position) to the orientation of it that enumerate_strings keeps:
    the first its depth-first walk meets.  The walk finishes every string
    from one vertex before the next vertex's, and at each step takes the
    letters leaving a vertex in reverse of the order they were pushed in
    (each arrow pushes its forward letter at its source, then its inverse
    letter at its target).  So of a string and its inverse it meets first
    the one with the lower source position, and on a tie (a closed string)
    the one whose first letter that differs was pushed later."""
    arrows = shape[1]
    # pushed[a][fwd]: minus the number of letters pushed before it at its start
    pushed = []
    count = [0] * shape[0]
    for src, tgt in arrows:
        forward = -count[src]
        count[src] += 1
        pushed.append((-count[tgt], forward))
        count[tgt] += 1

    def orient(word: tuple, at: int) -> tuple[tuple, int]:
        if not word:
            return word, at
        inverse = tuple([(a, not fwd) for a, fwd in reversed(word)])
        back_at = arrows[word[-1][0]][word[-1][1]]
        if (back_at, [pushed[a][f] for a, f in inverse]) < (at, [pushed[a][f] for a, f in word]):
            return inverse, back_at
        return word, at

    return orient


def _label_core(core: SiltingCore, vertices: tuple, names: tuple, kind=None) -> LabeledComplex:
    """The complex of core on a quiver with these vertices and arrow names,
    sharing the core's g-vectors and graph: vertex k is named by _label
    from vertices, names and the core's letters and positions at k, when
    the complex's vertices are first read.  The naming function holds those
    four tuples, not the core or a quiver."""
    letters, positions = core.letters, core.positions

    def name_of(k: int) -> tuple[str, dict]:
        return _label(vertices, names, letters[k], positions[k])

    return LabeledComplex(
        tuple(map(vertex_label, vertices)),
        core.gvecs,
        range(len(core.gvecs)),
        name_of,
        graph=core.graph,
        kind=kind,
    )


def silting_complex(q: GentleQuiver) -> LabeledComplex:
    """Faces are the pairwise compatible sets; facets must all be full rank.
    The purity check builds no facets, so they are enumerated once, when
    first read."""
    return _checked_silting(quiver_basis(q), q.vertices)[1]
