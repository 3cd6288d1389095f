"""String modules, minimal two-term presentations, and the silting complex.

Modules are right modules presented as representations of the quiver: a
vector space per vertex and a matrix per arrow (an arrow u -> v acts by a
matrix of shape dim_v x dim_u, and a relation (a, b) forces M_b @ M_a = 0).
The indecomposable rigid objects we need are presentations of string
modules together with shifted projectives; compatibility of two objects is
vanishing of the hom-shift pairing in both directions, computed exactly
by integer elimination.

Each representation builds one path-image table per basis (every basis
vector pushed along every basis path), and both minimal presentations and
the hom-shift pairing read it.  Every two-term complex x carries its
cohomology H^0 x as a representation, and Hom(x, y[1]) is the cokernel of
Hom(x.p0, H^0 y) -> Hom(x.p1, H^0 y) (Adachi, Iyama and Reiten,
"tau-tilting theory"): x.p1 is projective, so maps x.p1 -> y.p0 modulo
those through dy are exactly the maps x.p1 -> H^0 y.

The silting complex depends on the quiver's shape alone, so silting_core
builds it without vertex names (g-vectors, string letters, vertex positions,
facets, compatibility graph), and label_silting, the one place that names
silting vertices, turns a core and any quiver of its shape into that
quiver's complex.  It is an invariant of the algebra, so transport_core
carries the core of one shape onto any isomorphic shape
(quiver.quiver_isomorphism) without building it again.

This module only builds the silting complex; the theorem checks that
compare it (main and idempotent) live in verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .complexes import ComplexVertex, LabeledComplex, clique_complex, induced_graph
from .errors import AlgebraMismatchError, BandDetectedError, InternalError
from .linalg import RowSpace, kernel, mat_vec
from .quiver import AlgebraBasis, GentleQuiver, algebra_basis, vertex_label


# ---------------------------------------------------------------------------
# strings


@dataclass(frozen=True)
class StringWord:
    """A reduced walk in the quiver: letters are (arrow name, forward?)."""

    source: tuple | int | str
    letters: tuple[tuple[str, bool], ...]

    def display(self) -> str:
        if not self.letters:
            return f"e_{vertex_label(self.source)}"
        return ".".join(name if fwd else name + "'" for name, fwd in self.letters)


def _letter_end(q: GentleQuiver, letter: tuple[str, bool]):
    a = q.arrow_by_name[letter[0]]
    return a.tgt if letter[1] else a.src


def walk_vertices(q: GentleQuiver, w: StringWord) -> list:
    verts = [w.source]
    for letter in w.letters:
        verts.append(_letter_end(q, letter))
    return verts


def _valid_pair(q: GentleQuiver, l1: tuple[str, bool], l2: tuple[str, bool]) -> bool:
    (a1, d1), (a2, d2) = l1, l2
    if a1 == a2 and d1 != d2:
        return False  # immediate backtrack
    if d1 and d2 and (a1, a2) in q.relations:
        return False
    if not d1 and not d2 and (a2, a1) in q.relations:
        return False
    return True


def inverse_word(q: GentleQuiver, w: StringWord) -> StringWord:
    if not w.letters:
        return w
    letters = tuple((name, not fwd) for name, fwd in reversed(w.letters))
    return StringWord(_letter_end(q, w.letters[-1]), letters)


def enumerate_strings(q: GentleQuiver) -> list[StringWord]:
    """All strings up to formal inverse, shortest first, each in the
    orientation the depth-first walk meets first (_first_met says which).

    A valid walk longer than twice the arrow count repeats a directed letter,
    which closes up into a relation-free cyclic walk; that is a band, and
    the algebra then has infinitely many strings, so we bail out.
    """
    order = {v: k for k, v in enumerate(q.vertices)}
    limit = 2 * len(q.arrows)

    def key(w: StringWord):
        return (
            len(w.letters),
            tuple((name, 0 if fwd else 1) for name, fwd in w.letters),
            order[w.source],
        )

    starts: dict = {v: [] for v in q.vertices}
    for a in q.arrows:
        starts[a.src].append((a.name, True))
        starts[a.tgt].append((a.name, False))

    chosen: dict = {}
    stack = [StringWord(v, ()) for v in reversed(q.vertices)]
    while stack:
        w = stack.pop()
        canon = min(key(w), key(inverse_word(q, w)))
        if canon not in chosen:
            chosen[canon] = w
        end = walk_vertices(q, w)[-1] if w.letters else w.source
        for letter in starts[end]:
            if w.letters and not _valid_pair(q, w.letters[-1], letter):
                continue
            grown = StringWord(w.source, w.letters + (letter,))
            if len(grown.letters) > limit:
                raise BandDetectedError(grown.display())
            stack.append(grown)
    return [chosen[c] for c in sorted(chosen)]


# ---------------------------------------------------------------------------
# representations


@dataclass
class Representation:
    quiver: GentleQuiver
    dims: dict
    mats: dict[str, list[list[int]]]
    # (basis, table) of the last path_images call; not compared, not rendered
    _images: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def dim_at(self, v) -> int:
        return self.dims.get(v, 0)

    def path_images(self, basis: AlgebraBasis) -> list[list[list[int]]]:
        """images[i][t]: basis vector t at the source of path i pushed along it.

        Built once per basis: a path's images are its prefix path's images
        times the matrix of its last arrow.
        """
        if self._images is None or self._images[0] is not basis:
            images: list[list[list[int]]] = []
            for p, prefix in zip(basis.paths, basis.prefix):
                if prefix is None:
                    dim = self.dim_at(p.source)
                    images.append([[int(r == t) for r in range(dim)] for t in range(dim)])
                else:
                    j, name = prefix
                    mat = self.mats[name]
                    images.append([mat_vec(mat, vec) for vec in images[j]])
            self._images = (basis, images)
        return self._images[1]


def string_module(q: GentleQuiver, w: StringWord) -> Representation:
    """Basis vector per walk position, arrows act along the letters."""
    verts = walk_vertices(q, w)
    local: list[int] = []
    dims: dict = {v: 0 for v in q.vertices}
    for v in verts:
        local.append(dims[v])
        dims[v] += 1
    mats = {
        a.name: [[0] * dims[a.src] for _ in range(dims[a.tgt])]
        for a in q.arrows
    }
    for t, (name, fwd) in enumerate(w.letters):
        if fwd:
            mats[name][local[t + 1]][local[t]] = 1
        else:
            mats[name][local[t]][local[t + 1]] = 1
    return Representation(q, dims, mats)


def _sum_representations(x: Representation, y: Representation) -> Representation:
    """Block-diagonal direct sum, x's basis vectors first at every vertex."""
    dims = {v: x.dim_at(v) + y.dim_at(v) for v in x.quiver.vertices}
    mats = {}
    for a in x.quiver.arrows:
        xs, ys = x.dim_at(a.src), y.dim_at(a.src)
        mats[a.name] = [row + [0] * ys for row in x.mats[a.name]] + [
            [0] * xs + row for row in y.mats[a.name]
        ]
    return Representation(x.quiver, dims, mats)


# ---------------------------------------------------------------------------
# two-term complexes of projectives


@dataclass
class TwoTermComplex:
    """P1 -> P0 with entries written as radical path combinations.

    p1 and p0 list the summand vertices; diff[r][c] maps a path index (a
    path from p0[r] to p1[c]) to its coefficient.  module is the cokernel
    H^0 of the differential as a representation.
    """

    basis: AlgebraBasis
    p1: tuple
    p0: tuple
    diff: list[list[dict[int, int]]]
    module: Representation

    @property
    def gvec(self) -> tuple[int, ...]:
        g = {v: 0 for v in self.basis.quiver.vertices}
        for v in self.p0:
            g[v] += 1
        for v in self.p1:
            g[v] -= 1
        return tuple(g[v] for v in self.basis.quiver.vertices)


def shifted_projective(basis: AlgebraBasis, v) -> TwoTermComplex:
    """P_v -> 0, whose H^0 is the zero representation."""
    q = basis.quiver
    zero = Representation(q, {u: 0 for u in q.vertices}, {a.name: [] for a in q.arrows})
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


def _top_lifts(basis: AlgebraBasis, rep: Representation, images) -> list[tuple]:
    """Standard basis vectors completing the radical, one (vertex, index) each.

    The radical at v is spanned by the images of the arrows ending at v, and
    the standard basis at the k-th vertex is the image table of path k, the
    lazy path there."""
    q = basis.quiver
    radical: dict = {v: [] for v in q.vertices}
    for a in q.arrows:
        radical[a.tgt].extend(images[basis.arrow_path[a.name]])
    lifts = []
    for k, v in enumerate(q.vertices):
        dim = rep.dim_at(v)
        if dim:
            lifts.extend((v, t) for t in _top(dim, radical[v], images[k]))
    return lifts


def min_presentation(basis: AlgebraBasis, rep: Representation) -> TwoTermComplex:
    """Minimal projective presentation P1 -> P0 of a representation.

    P0 covers the top of the module.  The kernel of the cover is computed
    vertexwise and kept in P0 coordinates; at each vertex, P1 covers the
    kernel vectors outside the span of the arrow images of the kernel at
    neighbouring vertices (the top of the kernel).  The differential
    collects, per (P0 summand, P1 summand), the paths with their
    coefficients.  The cover reads the module's path-image table, and only
    vertices where P0 or the module is nonzero do any work.
    """
    q = basis.quiver
    images = rep.path_images(basis)

    summands0 = _top_lifts(basis, rep, images)  # (vertex, basis index in rep)
    # P0 basis elements at a vertex u: pairs (summand position, path index)
    p0_at: dict = {u: [] for u in q.vertices}
    for s, (v, _) in enumerate(summands0):
        for u in q.vertices:
            p0_at[u].extend((s, i) for i in basis.between(v, u))

    kernel_at: dict = {u: [] for u in q.vertices}
    for u in q.vertices:
        dim = rep.dim_at(u)
        if not (p0_at[u] or dim):
            continue
        # the images of the P0 basis elements in rep; their rank is their
        # number minus the dimension of the relations among them
        value = [images[i][summands0[s][1]] for s, i in p0_at[u]]
        kernel_at[u] = kernel(value, dim)
        if len(value) - len(kernel_at[u]) != dim:
            raise InternalError("projective cover must be surjective")

    # arrow images of the kernel, in P0 coordinates at the arrow's target
    radical_at: dict = {u: [] for u in q.vertices}
    for a in q.arrows:
        u, wv = a.src, a.tgt
        if not kernel_at[u]:
            continue
        pos = {pair: k for k, pair in enumerate(p0_at[wv])}
        arrow = basis.arrow_path[a.name]
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
        for wv in q.vertices
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
    Hom(P_v, M) = M_v, the map sends a vector of M at a P0 summand to its
    images along the paths of dx; the answer is the sum of dim H^0 y over
    x.p1 minus the rank of that map.  Both objects are rigid-compatible
    when this vanishes in both directions.
    """
    if x.basis is not y.basis:
        raise AlgebraMismatchError()
    module = y.module
    offsets = []
    width = 0
    for w in x.p1:
        offsets.append(width)
        width += module.dim_at(w)
    if not width:
        return 0

    images = module.path_images(x.basis)
    image = RowSpace(width)
    for v, row in zip(x.p0, x.diff):
        for t in range(module.dim_at(v)):
            vec = [0] * width
            for at, entry in zip(offsets, row):
                for p, coeff in entry.items():
                    for k, val in enumerate(images[p][t]):
                        vec[at + k] += coeff * val
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
    letters: tuple[tuple[str, bool], ...] | None
    position: int

    @property
    def label(self) -> str:
        return _label(self.complex.basis.quiver, self.letters, self.position)[0]


def silting_vertices(q: GentleQuiver) -> list[SiltingVertex]:
    """Rigid presentations of string modules plus all shifted projectives,
    stably sorted by g-vector."""
    return _silting_vertices(algebra_basis(q))


def _silting_vertices(basis: AlgebraBasis) -> list[SiltingVertex]:
    q = basis.quiver
    out: list[SiltingVertex] = []
    for w in enumerate_strings(q):
        pres = min_presentation(basis, string_module(q, w))
        if hom_shift(pres, pres) == 0:
            at = q.vertices.index(w.source)
            out.append(SiltingVertex(pres, pres.gvec, w.letters, at))
    for k, v in enumerate(q.vertices):
        pres = shifted_projective(basis, v)
        out.append(SiltingVertex(pres, pres.gvec, None, k))
    return sorted(out, key=lambda sv: sv.gvec)


def _label(q: GentleQuiver, letters, position: int) -> tuple[str, dict]:
    """The label and payload of a silting vertex of q."""
    v = q.vertices[position]
    if letters is None:
        name = vertex_label(v)
        return f"P_{name}[1]", {"kind": "shifted", "projective": name}
    text = StringWord(v, letters).display()
    return text, {"kind": "module", "string": text}


class SiltingCore(NamedTuple):
    """The silting complex of a quiver shape (GentleQuiver.shape), without
    vertex names: the g-vectors, letters and positions of its vertices (in
    silting_vertices order), then the facets and the compatibility graph.
    """

    gvecs: tuple[tuple[int, ...], ...]
    letters: tuple[tuple[tuple[str, bool], ...] | None, ...]
    positions: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]
    graph: tuple[int, ...]


def silting_core(basis: AlgebraBasis) -> SiltingCore:
    """The label-free silting complex of basis.quiver's shape.

    Faces are the pairwise compatible sets; facets must all be full rank.
    The clique complex is built on unnamed vertices, and reading its facets
    checks that, once per shape."""
    verts = _silting_vertices(basis)

    def compatible(i: int, j: int) -> bool:
        x, y = verts[i].complex, verts[j].complex
        return hom_shift(x, y) == 0 and hom_shift(y, x) == 0

    unnamed = [ComplexVertex(i, sv.gvec, "") for i, sv in enumerate(verts)]
    cx = clique_complex("silting", basis.quiver.vertices, unnamed, compatible)
    return SiltingCore(
        tuple(sv.gvec for sv in verts),
        tuple(sv.letters for sv in verts),
        tuple(sv.position for sv in verts),
        cx.facets,
        cx.graph,
    )


def transport_core(core: SiltingCore, iso: tuple, shape: tuple) -> SiltingCore | None:
    """The core of a quiver shape from the core of an isomorphic one.

    iso is quiver.quiver_isomorphism(core's shape, shape).  An isomorphism
    of gentle quivers is one of their algebras, so it carries rigid strings,
    presentations and compatibility across: g-vector coordinates follow the
    vertex map, string letters the arrow map, and each string takes the
    orientation enumerate_strings keeps on shape (_first_met).  Sorting by
    g-vector then gives silting_vertices' order, and the graph and facets
    are renumbered to it.  When two g-vectors are equal that order depends
    on more than g-vectors, so this returns None and the caller builds the
    core directly."""
    vmap, amap = iso
    n = len(vmap)
    back = [0] * n
    for i, j in enumerate(vmap):
        back[j] = i
    gvecs = [tuple([g[i] for i in back]) for g in core.gvecs]
    if len(set(gvecs)) != len(gvecs):
        return None
    first_met = _first_met(shape)
    # one tuple per letter, shared by the strings that use it
    renamed = {(a, fwd): (b, fwd) for a, b in amap.items() for fwd in (True, False)}
    letters, positions = [], []
    for word, at in zip(core.letters, core.positions):
        if word is not None:
            word, at = first_met(tuple([renamed[x] for x in word]), vmap[at])
        else:
            at = vmap[at]
        letters.append(word)
        positions.append(at)
    order = sorted(range(len(gvecs)), key=gvecs.__getitem__)
    sorted_rows = [tuple([row[i] for i in order]) for row in (gvecs, letters, positions)]
    if order == list(range(len(order))):
        return SiltingCore(*sorted_rows, core.facets, core.graph)
    new = [0] * len(order)
    for k, i in enumerate(order):
        new[i] = k
    facets = tuple(sorted([tuple(sorted([new[v] for v in f])) for f in core.facets]))
    return SiltingCore(*sorted_rows, facets, induced_graph(core.graph, order))


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
    pushed: dict = {}
    end: dict = {}
    flip: dict = {}
    count = [0] * shape[0]
    for name, src, tgt in shape[1]:
        forward, backward = (name, True), (name, False)
        flip[forward], flip[backward] = backward, forward
        for letter, start, stop in ((forward, src, tgt), (backward, tgt, src)):
            pushed[letter] = -count[start]
            count[start] += 1
            end[letter] = stop

    def orient(word: tuple, at: int) -> tuple[tuple, int]:
        if not word:
            return word, at
        inverse = tuple([flip[x] for x in reversed(word)])
        back_at = end[word[-1]]
        if (back_at, [pushed[x] for x in inverse]) < (at, [pushed[x] for x in word]):
            return inverse, back_at
        return word, at

    return orient


def label_silting(core: SiltingCore, q: GentleQuiver) -> LabeledComplex:
    """The silting complex of q from the core of q's shape, sharing the
    core's g-vectors, facets and graph."""
    rows = enumerate(zip(core.gvecs, core.letters, core.positions))
    vertices = tuple(ComplexVertex(i, g, *_label(q, w, at)) for i, (g, w, at) in rows)
    coordinates = tuple(map(vertex_label, q.vertices))
    return LabeledComplex(coordinates, vertices, core.facets, core.graph)


def silting_complex(q: GentleQuiver) -> LabeledComplex:
    """Faces are the pairwise compatible sets; facets must all be full rank."""
    return label_silting(silting_core(algebra_basis(q)), q)
