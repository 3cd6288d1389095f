"""Gentle quivers, their path algebra bases, and vertex-subset shortcuts.

A named quiver (GentleQuiver) comes from a dissection (one vertex per
diagonal, named by its label pair, arrows between consecutive diagonal
sides of a cell, relations for consecutive triples) or from JSON.  Below
that edge everything works on its shape (GentleQuiver.shape): the vertex
count, arrows as (source, target) position pairs, relations as pairs of
arrow indices, and the one tuple of arrow names, which only the texts read
(Path.display, check_gentle's and check_shape's messages, the witnesses).
Quivers that differ only in vertex names share a shape, and their algebras
agree up to that renaming.  A dissection's quiver is its shape
(dissection_shape, read off its cells) on its diagonals, so a check that
needs only the shape builds no quiver.  algebra_basis takes a shape, so
paths start and end at positions and spell arrow indices.  canonical_form
numbers a shape by a walk that its isomorphisms keep, so isomorphic gentle
shapes share one form, itself a shape, and it returns the shape's
isomorphism onto its form, as index maps, which is one of their algebras
too.  The path algebra uses left
to right composition: the product p * q means "walk p, then walk q", so
paths from u to v span the subspace e_u A e_v.  Bases only exist for finite
dimensional algebras; a relation-free cycle raises instead.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from functools import cache
from typing import NamedTuple

from .errors import EmptySubsetError, InfiniteDimensionalError, InputError
from .geometry import Dissection, cells, sides


def vertex_label(v) -> str:
    if isinstance(v, tuple):
        return "-".join(str(x) for x in v)
    return str(v)


class Arrow(NamedTuple):
    name: str
    src: tuple | int | str
    tgt: tuple | int | str


class GentleQuiver:
    """A quiver given by name: its vertices, its arrows, and its relations
    as pairs of arrow names.  Construction checks the names and the shape
    (check_shape); equality and hashing read the three fields."""

    __slots__ = ("vertices", "arrows", "relations", "shape")
    vertices: tuple
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[str, str]]
    # (n, arrows, relations, names): the quiver with its vertices replaced
    # by their positions and its arrows by their indices, so arrows are
    # (source, target) position pairs and relations index pairs, with the
    # arrow names in order.  Quivers of one shape differ only in vertex
    # names.  An arrow end outside the vertices has position -1, which
    # check_shape rejects.
    shape: tuple

    def __init__(self, vertices: tuple, arrows: tuple, relations: frozenset):
        self.vertices, self.arrows, self.relations = vertices, arrows, relations
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate quiver vertices")
        names = tuple(a.name for a in arrows)
        index = {name: k for k, name in enumerate(names)}
        if len(index) != len(arrows):
            raise InputError("duplicate arrow names")
        for first, second in relations:
            if first not in index or second not in index:
                raise InputError(f"relation ({first}, {second}) names a missing arrow")
        pos = {v: k for k, v in enumerate(vertices)}
        self.shape = (
            len(vertices),
            tuple((pos.get(a.src, -1), pos.get(a.tgt, -1)) for a in arrows),
            frozenset((index[x], index[y]) for x, y in relations),
            names,
        )
        check_shape(self.shape)

    def __eq__(self, other):
        if not isinstance(other, GentleQuiver):
            return NotImplemented
        return (self.vertices, self.arrows, self.relations) == (
            other.vertices,
            other.arrows,
            other.relations,
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.relations))

    def to_json(self) -> dict:
        return {
            "vertices": [vertex_label(v) for v in self.vertices],
            "arrows": [
                {"id": a.name, "src": vertex_label(a.src), "tgt": vertex_label(a.tgt)}
                for a in self.arrows
            ],
            "relations": sorted([a, b] for a, b in self.relations),
        }


@cache
def arrow_names(prefix: str, count: int) -> tuple[str, ...]:
    """The names of count arrows numbered by index: prefix0, prefix1, ...
    One tuple per (prefix, count), shared by every shape that uses it."""
    return tuple(f"{prefix}{k}" for k in range(count))


def check_shape(shape: tuple) -> None:
    """Raise InputError unless shape is a quiver's: arrow ends among its
    positions, and relations whose first arrow ends where the second
    starts.  Names are checked where they are given (GentleQuiver)."""
    n, arrows, relations, names = shape
    for name, (src, tgt) in zip(names, arrows):
        if not (0 <= src < n and 0 <= tgt < n):
            raise InputError(f"arrow {name} has endpoint outside the vertex set")
    for first, second in relations:
        if arrows[first][1] != arrows[second][0]:
            pair = f"({names[first]}, {names[second]})"
            raise InputError(f"relation {pair} is not a composable pair")


def check_gentle(shape: tuple, vertices) -> list[str]:
    """Violations of the gentle conditions; empty list means gentle.
    vertices[k] names the vertex at position k in the messages."""
    n, arrows, relations, names = shape
    fails: list[str] = []
    out_ct = Counter(src for src, _ in arrows)
    in_ct = Counter(tgt for _, tgt in arrows)
    for v in range(n):
        name = vertex_label(vertices[v])
        if out_ct[v] > 2:
            fails.append(f"vertex {name} has {out_ct[v]} outgoing arrows")
        if in_ct[v] > 2:
            fails.append(f"vertex {name} has {in_ct[v]} incoming arrows")
    for a, (src, tgt) in enumerate(arrows):
        # (side, the composable pairs on that side, where the other arrow sits)
        near = (
            ("successors", [(a, b) for b, (s, _) in enumerate(arrows) if s == tgt], 1),
            ("predecessors", [(b, a) for b, (_, t) in enumerate(arrows) if t == src], 0),
        )
        for side, pairs, other in near:
            for bound, zero in (("relation", True), ("composable", False)):
                group = [names[pair[other]] for pair in pairs if (pair in relations) == zero]
                if len(group) > 1:
                    fails.append(f"arrow {names[a]} has {len(group)} {bound} {side} ({group})")
    return fails


def ensure_gentle(shape: tuple, vertices) -> None:
    fails = check_gentle(shape, vertices)
    if fails:
        raise InputError("quiver is not gentle: " + "; ".join(fails))


def quiver_of_dissection(d: Dissection) -> GentleQuiver:
    """One vertex per diagonal; cells contribute arrows and relations.

    Walking the sides of a cell counterclockwise, two consecutive diagonal
    sides give an arrow (earlier to later) and three consecutive diagonal
    sides additionally give a relation between the two arrows.  The quiver
    on d's diagonals of the shape dissection_shape reads off d's cells.
    """
    return _quiver_on(dissection_shape(d, cells(d)), d.diagonals)


def dissection_shape(d: Dissection, faces: list[tuple[int, ...]]) -> tuple:
    """The shape of quiver_of_dissection(d) (GentleQuiver.shape), read off
    faces = cells(d) without building the quiver.  Arrows are numbered in
    the order the cells' walks meet them, and arrow k is named ak."""
    position = {delta: k for k, delta in enumerate(d.diagonals)}
    arrows: list[tuple[int, int]] = []
    relations: set[tuple[int, int]] = set()
    for cell in faces:
        # the cell's sides as vertex positions, None for polygon sides, and
        # the arrow from each side to the next, None where there is none
        walk = [position.get(side) for side in sides(cell)]
        numbers: list[int | None] = []
        for s, s2 in zip(walk, walk[1:] + walk[:1]):
            number = None
            if s is not None and s2 is not None:
                number = len(arrows)
                arrows.append((s, s2))
            numbers.append(number)
        for a, b in zip(numbers, numbers[1:] + numbers[:1]):
            if a is not None and b is not None:
                relations.add((a, b))
    return (len(position), tuple(arrows), frozenset(relations), arrow_names("a", len(arrows)))


class Path(NamedTuple):
    """A composable sequence of arrow indices from the vertex at position
    source; empty means the lazy path there."""

    source: int
    arrows: tuple[int, ...]

    def display(self, vertices, names) -> str:
        """The path's text, vertices[k] naming position k and names[a]
        arrow a."""
        if not self.arrows:
            return f"e_{vertex_label(vertices[self.source])}"
        return ".".join(names[a] for a in self.arrows)


class AlgebraBasis(NamedTuple):
    """All relation-free paths of a gentle quiver shape, with the product
    table.

    Indices into `paths` are the working currency everywhere downstream,
    and paths run between vertex positions.  mult(i, j) returns the index of
    the concatenated path or None when the product is zero (relation hit or
    endpoints mismatch).  prefix[i] is (index of path i without its last
    arrow, that arrow), or None for a lazy path; the prefix always comes
    earlier in `paths`.  arrow_path[a] is the index of the path of arrow a.
    """

    shape: tuple
    paths: tuple[Path, ...]
    index: dict[Path, int]
    source: tuple
    target: tuple
    arrow_path: tuple[int, ...]
    prefix: tuple
    by_ends: dict

    @property
    def dimension(self) -> int:
        return len(self.paths)

    def between(self, u, v) -> list[int]:
        """Indices of paths running from u to v, ascending."""
        return self.by_ends.get((u, v), [])

    def mult(self, i: int, j: int) -> int | None:
        if self.target[i] != self.source[j]:
            return None
        p, q = self.paths[i], self.paths[j]
        if not p.arrows:
            return j
        if not q.arrows:
            return i
        if (p.arrows[-1], q.arrows[0]) in self.shape[2]:
            return None
        return self.index[Path(p.source, p.arrows + q.arrows)]


def algebra_basis(shape: tuple) -> AlgebraBasis:
    """Enumerate every relation-free path of a gentle quiver shape (the
    gentle check runs first).  Finite dimension is enforced: any
    relation-free path longer than twice the arrow count certifies a
    relation-free cycle, so that raises InfiniteDimensionalError."""
    n, arrows, relations, names = shape
    ensure_gentle(shape, range(n))
    out_arrows: list[list[int]] = [[] for _ in range(n)]
    for a, (src, _) in enumerate(arrows):
        out_arrows[src].append(a)

    limit = 2 * len(arrows)
    paths: list[Path] = [Path(v, ()) for v in range(n)]
    frontier = list(paths)
    while frontier:
        nxt: list[Path] = []
        for p in frontier:
            tail = arrows[p.arrows[-1]][1] if p.arrows else p.source
            for a in out_arrows[tail]:
                if p.arrows and (p.arrows[-1], a) in relations:
                    continue
                grown = Path(p.source, p.arrows + (a,))
                if len(grown.arrows) > limit:
                    raise InfiniteDimensionalError(grown.display(range(n), names))
                nxt.append(grown)
        paths.extend(nxt)
        frontier = nxt

    paths.sort(key=lambda p: (len(p.arrows), p.source, p.arrows))
    index = {p: i for i, p in enumerate(paths)}
    target = tuple(arrows[p.arrows[-1]][1] if p.arrows else p.source for p in paths)
    source = tuple(p.source for p in paths)
    arrow_path = tuple(index[Path(src, (a,))] for a, (src, _) in enumerate(arrows))
    by_ends: dict = {}
    for i in range(len(paths)):
        by_ends.setdefault((source[i], target[i]), []).append(i)
    prefix = tuple(
        (index[Path(p.source, p.arrows[:-1])], p.arrows[-1]) if p.arrows else None
        for p in paths
    )
    return AlgebraBasis(shape, tuple(paths), index, source, target, arrow_path, prefix, by_ends)


def quiver_basis(q: GentleQuiver) -> AlgebraBasis:
    """algebra_basis(q.shape), for a quiver given by name: its one gentle
    check names positions, so a failure is reworded here to name q's
    vertices."""
    try:
        return algebra_basis(q.shape)
    except InputError:
        ensure_gentle(q.shape, q.vertices)
        raise


def shortcut_paths(basis: AlgebraBasis, jset) -> list[int]:
    """Basis indices of the nonlazy paths running from J to J with no interior
    stop in J, in basis order, for a set jset of positions; the k-th one
    becomes shortcut arrow k."""
    arrows = basis.shape[1]
    return [
        i
        for i, p in enumerate(basis.paths)
        if p.arrows
        and basis.source[i] in jset
        and basis.target[i] in jset
        and not any(arrows[a][1] in jset for a in p.arrows[:-1])
    ]


def nonempty_subsets(items: tuple) -> list[tuple]:
    """Every nonempty subset of items as a tuple in items order, by size,
    then in the order of itertools.combinations."""
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return out


def _shortcut_shape(basis: AlgebraBasis, positions: tuple) -> tuple:
    """The shape of the shortcut quiver at the ascending, nonempty vertex
    positions, read off basis: its k-th vertex is the one at positions[k],
    its arrow k is the k-th of shortcut_paths, named sk.  It is not checked
    gentle: each caller checks it once, most by building its basis."""
    renumber = {v: k for k, v in enumerate(positions)}
    shortcuts = shortcut_paths(basis, renumber)
    arrows = tuple((renumber[basis.source[i]], renumber[basis.target[i]]) for i in shortcuts)
    relations = set()
    for ka, ia in enumerate(shortcuts):
        for kb, ib in enumerate(shortcuts):
            if basis.target[ia] == basis.source[ib] and basis.mult(ia, ib) is None:
                relations.add((ka, kb))
    return (len(positions), arrows, frozenset(relations), arrow_names("s", len(arrows)))


def subset_positions(q: GentleQuiver, J) -> tuple[int, ...]:
    """Positions of the vertices in J among q's vertices, in quiver order;
    J must be a nonempty set of q's vertices."""
    jset = set(J)
    if not jset:
        raise EmptySubsetError()
    missing = jset - set(q.vertices)
    if missing:
        raise InputError(f"subset contains unknown vertices {sorted(map(vertex_label, missing))}")
    return tuple(i for i, v in enumerate(q.vertices) if v in jset)


def shortcut_quiver(q: GentleQuiver, J) -> GentleQuiver:
    """Quiver of the subalgebra spanned by paths between vertices of J.

    Arrows are the relation-free paths with both endpoints in J and no
    interior visit to J; a pair of those composes to zero exactly when the
    junction hits a relation, and those pairs are the new relations.
    """
    positions = subset_positions(q, J)
    shape = _shortcut_shape(quiver_basis(q), positions)
    ensure_gentle(shape, range(len(positions)))
    return _quiver_on(shape, tuple(q.vertices[k] for k in positions))


def shortcut_quivers(basis: AlgebraBasis, vertices: tuple) -> Iterator[tuple[tuple, GentleQuiver]]:
    """(J, shortcut_quiver(q, J)) for every J in nonempty_subsets(vertices),
    all read off basis, the algebra basis of the quiver q of basis.shape on
    these vertices.  Besides the tests, its one caller is the consistency
    sweep (verify.verify_consistency_exhaustive), whose subalgebra check
    builds each shortcut's basis and so checks it gentle; the idempotent
    sweep calls _shortcut_shape per plan instead."""
    for positions in nonempty_subsets(tuple(range(len(vertices)))):
        J = tuple(vertices[k] for k in positions)
        yield J, _quiver_on(_shortcut_shape(basis, positions), J)


class SubalgebraReport(NamedTuple):
    passed: bool
    failures: list[str]
    dimension: int

    def to_json(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "failures": list(self.failures),
            "dimension": self.dimension,
        }


def idempotent_subalgebra_check(
    basis: AlgebraBasis, vertices: tuple, J, shortcut: GentleQuiver
) -> SubalgebraReport:
    """Does the shortcut quiver really present the subalgebra of basis on J?

    basis is the algebra basis of the quiver of basis.shape on these
    vertices, and J a set of them.  Splits every path of the big algebra
    running between J vertices at its interior J visits; the pieces must
    spell out a basis path of the shortcut algebra, bijectively, with
    matching multiplication tables, where the shortcut quiver's arrow k is
    the k-th of shortcut_paths, as shortcut_quiver numbers them.  The
    shortcut quiver is the one under test, so only its basis is built.
    """
    jset = set(J)
    # position in the big quiver -> position in the shortcut quiver
    renumber = {v: k for k, v in enumerate(shortcut.vertices)}
    small = {k: renumber[v] for k, v in enumerate(vertices) if v in jset}
    sbasis = algebra_basis(shortcut.shape)
    _, arrows, _, names = basis.shape
    failures: list[str] = []

    shortcut_by_path = {i: k for k, i in enumerate(shortcut_paths(basis, small))}

    def shown(i: int) -> str:
        return basis.paths[i].display(vertices, names)

    def fold(i: int) -> Path | None:
        """Rewrite a J-to-J path of the big algebra as a shortcut path."""
        p = basis.paths[i]
        if not p.arrows:
            return Path(small[p.source], ())
        pieces = []
        seg_start = 0
        walk = [p.source] + [arrows[a][1] for a in p.arrows]
        for pos in range(1, len(walk)):
            if walk[pos] in small:
                seg = Path(walk[seg_start], p.arrows[seg_start:pos])
                piece_idx = basis.index[seg]
                if piece_idx not in shortcut_by_path:
                    return None
                pieces.append(shortcut_by_path[piece_idx])
                seg_start = pos
        return Path(small[p.source], tuple(pieces))

    jj_paths = [
        i
        for i in range(basis.dimension)
        if basis.source[i] in small and basis.target[i] in small
    ]
    folded: dict[int, int] = {}
    for i in jj_paths:
        image = fold(i)
        if image is None or image not in sbasis.index:
            failures.append(f"path {shown(i)} does not fold into the shortcut basis")
            continue
        folded[i] = sbasis.index[image]

    if len(set(folded.values())) != len(folded):
        failures.append("folding is not injective")
    if set(folded.values()) != set(range(sbasis.dimension)):
        failures.append(
            f"folding misses shortcut paths: image {len(set(folded.values()))} "
            f"of {sbasis.dimension}"
        )

    if not failures:
        for i in jj_paths:
            for j in jj_paths:
                big = basis.mult(i, j)
                down = sbasis.mult(folded[i], folded[j])
                text = f"{shown(i)} * {shown(j)}"
                if big is None:
                    if down is not None:
                        failures.append(f"{text} is zero upstairs but not downstairs")
                elif down is None or folded.get(big) != down:
                    failures.append(f"{text} disagrees with the shortcut product")
    return SubalgebraReport(not failures, failures, len(jj_paths))


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"malformed quiver JSON: {field} must be a list, got {value!r}")
    return value


def _relation_pair(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"a relation is a list of two arrow ids, got {value!r}")
    return tuple(value)


def quiver_from_json(data: dict) -> GentleQuiver:
    """A quiver from its JSON form: arrow ids must be strings, and no two
    vertices may render to the same label (labels name vertices on output
    and in --j)."""
    try:
        vertices = tuple(
            tuple(v) if isinstance(v, list) else v
            for v in _json_list(data["vertices"], "vertices")
        )
        arrows = tuple(
            Arrow(
                a["id"],
                tuple(a["src"]) if isinstance(a["src"], list) else a["src"],
                tuple(a["tgt"]) if isinstance(a["tgt"], list) else a["tgt"],
            )
            for a in _json_list(data["arrows"], "arrows")
        )
        relations = frozenset(
            _relation_pair(r) for r in _json_list(data.get("relations", []), "relations")
        )
        q = GentleQuiver(vertices, arrows, relations)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quiver JSON: {exc}") from exc
    for a in arrows:
        if not isinstance(a.name, str):
            raise InputError(f"arrow ids must be strings, got {a.name!r}")
    seen: dict[str, object] = {}
    for v in vertices:
        label = vertex_label(v)
        if label in seen:
            raise InputError(
                f"vertices {seen[label]!r} and {v!r} share the label {label!r}"
            )
        seen[label] = v
    return q


def quivers_match(q1: GentleQuiver, q2: GentleQuiver) -> list[str]:
    """Equality up to arrow renaming (no parallel arrows assumed)."""
    failures = []
    if list(q1.vertices) != list(q2.vertices):
        failures.append(f"vertex lists differ: {q1.vertices} vs {q2.vertices}")
    ends1 = Counter((a.src, a.tgt) for a in q1.arrows)
    ends2 = Counter((a.src, a.tgt) for a in q2.arrows)
    if ends1 != ends2:
        failures.append(f"arrow endpoint multisets differ: {ends1} vs {ends2}")

    def rel_ends(q):
        by = {a.name: (a.src, a.tgt) for a in q.arrows}
        return Counter((by[a], by[b]) for a, b in q.relations)

    if rel_ends(q1) != rel_ends(q2):
        failures.append("relation endpoint multisets differ")
    return failures


def _neighbours(shape: tuple) -> list[list[int]]:
    """For each arrow of a quiver shape, by index, the arrows next to it in
    the order canonical_form walks them: successors that compose to zero
    with it, the other successors, the same two kinds of predecessor, the
    other arrows out of its source and the other arrows into its target.
    In a gentle quiver each kind holds at most one arrow."""
    _, arrows, relations, _ = shape
    out = []
    for a, (src, tgt) in enumerate(arrows):
        kinds: list[list[int]] = [[] for _ in range(6)]
        for b, (s, t) in enumerate(arrows):
            if s == tgt:
                kinds[(a, b) not in relations].append(b)
            if t == src:
                kinds[2 + ((b, a) not in relations)].append(b)
            if s == src and b != a:
                kinds[4].append(b)
            if t == tgt and b != a:
                kinds[5].append(b)
        out.append([b for kind in kinds for b in kind])
    return out


def _walk(shape: tuple, neighbours: list[list[int]], start: int) -> tuple:
    """The component of arrow start, numbered by a breadth-first walk from
    it: (code, arrows in walk order, vertex positions in order first met).
    code lists each arrow's ends by vertex number, then the relations as
    pairs of arrow numbers, sorted."""
    _, arrows, relations, _ = shape
    order, seen = [start], {start}
    for a in order:
        for b in neighbours[a]:
            if b not in seen:
                seen.add(b)
                order.append(b)
    vertices: dict = {}
    for a in order:
        for v in arrows[a]:
            vertices.setdefault(v, len(vertices))
    ends = tuple((vertices[src], vertices[tgt]) for src, tgt in map(arrows.__getitem__, order))
    number = {a: k for k, a in enumerate(order)}
    pairs = sorted((number[x], number[y]) for x, y in relations if x in number)
    return (ends, tuple(pairs)), order, list(vertices)


def canonical_form(shape: tuple) -> tuple[tuple, tuple, tuple]:
    """The canonical form of a quiver shape (GentleQuiver.shape), and the
    isomorphism onto it: (form, vertex_map, arrow_of).

    form is itself a shape: n vertices, its arrows in walk order, named a0,
    a1, ..., and relations between them.  vertex_map[i] is the position in
    form of the shape's i-th vertex, and form's arrow k is the shape's
    arrow arrow_of[k].  Names play no part.  In a gentle quiver an arrow
    has at most one neighbour of each kind _neighbours lists, so a walk that
    takes them in that order numbers a whole connected component from one
    start arrow.  Each component keeps its smallest numbering over all
    start arrows, the components follow in order of those numberings, and
    vertices with no arrows come last.  So isomorphic gentle shapes have equal forms; for
    any shape, equal forms give an isomorphism, one map followed by the
    inverse of the other, and a form is its own form."""
    n, arrows, relations, _ = shape
    neighbours = _neighbours(shape)
    walks, seen = [], set()
    for a in range(len(arrows)):
        if a not in seen:
            component = _walk(shape, neighbours, a)[1]
            walk = min(_walk(shape, neighbours, b) for b in component)
            seen.update(walk[1])
            walks.append(walk)
    walks.sort()
    arrow_of = tuple(a for _, order, _ in walks for a in order)
    vertex_order = [v for _, _, vertices in walks for v in vertices]
    placed = set(vertex_order)
    vertex_order += [v for v in range(n) if v not in placed]
    vertex_map = [0] * n
    for k, v in enumerate(vertex_order):
        vertex_map[v] = k
    number = {a: k for k, a in enumerate(arrow_of)}
    form_arrows = tuple(
        (vertex_map[src], vertex_map[tgt]) for src, tgt in map(arrows.__getitem__, arrow_of)
    )
    form_relations = frozenset((number[x], number[y]) for x, y in relations)
    form = (n, form_arrows, form_relations, arrow_names("a", len(arrows)))
    return form, tuple(vertex_map), arrow_of


def _quiver_on(shape: tuple, vertices: tuple) -> GentleQuiver:
    """The quiver of shape whose k-th vertex is vertices[k]."""
    _, arrows, relations, names = shape
    named = tuple(Arrow(name, vertices[s], vertices[t]) for name, (s, t) in zip(names, arrows))
    return GentleQuiver(vertices, named, frozenset((names[x], names[y]) for x, y in relations))
