"""Gentle quivers, their path algebra bases, and vertex-subset shortcuts.

Quivers come from three sources: built from a dissection (one vertex per
diagonal, named by its label pair, arrows between consecutive diagonal
sides of a cell, relations for consecutive triples), loaded from JSON, or
made from a shape (shape_quiver).  A dissection's quiver is its shape
(dissection_shape, read off its cells) on its diagonals, so a check that
needs only the shape builds no quiver.
A quiver's shape forgets vertex names and keeps positions, so quivers that
differ only in vertex names share it (and their algebras agree up to that
renaming).  canonical_form numbers a shape by a walk that its isomorphisms
keep, so isomorphic gentle shapes share one form, itself a shape, and it
returns the shape's isomorphism onto its form, which is one of their
algebras too.  The path algebra uses left to right composition: the product
p * q means "walk p, then walk q", so paths from u to v span the subspace
e_u A e_v.  Bases only exist for finite dimensional algebras; a
relation-free cycle raises instead.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptySubsetError, InfiniteDimensionalError, InputError
from .geometry import Dissection, cells, sides

Vertex = object


def vertex_label(v) -> str:
    if isinstance(v, tuple):
        return "-".join(str(x) for x in v)
    return str(v)


@dataclass(frozen=True, order=True)
class Arrow:
    name: str
    src: tuple | int | str
    tgt: tuple | int | str


@dataclass(frozen=True)
class GentleQuiver:
    vertices: tuple
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[str, str]]

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("duplicate quiver vertices")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        by_name = self.arrow_by_name
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise InputError(f"arrow {a.name} has endpoint outside the vertex set")
        for first, second in self.relations:
            if first not in by_name or second not in by_name:
                raise InputError(f"relation ({first}, {second}) names a missing arrow")
            if by_name[first].tgt != by_name[second].src:
                raise InputError(f"relation ({first}, {second}) is not a composable pair")

    @cached_property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def shape(self) -> tuple:
        """The quiver with its vertices replaced by their positions: vertex
        count, arrows as (name, source position, target position) in order,
        and relations.  Quivers of one shape differ only in vertex names."""
        pos = {v: k for k, v in enumerate(self.vertices)}
        arrows = tuple((a.name, pos[a.src], pos[a.tgt]) for a in self.arrows)
        return (len(self.vertices), arrows, self.relations)

    def to_json(self) -> dict:
        return {
            "vertices": [vertex_label(v) for v in self.vertices],
            "arrows": [
                {"id": a.name, "src": vertex_label(a.src), "tgt": vertex_label(a.tgt)}
                for a in self.arrows
            ],
            "relations": sorted([a, b] for a, b in self.relations),
        }


def check_gentle(q: GentleQuiver) -> list[str]:
    """Violations of the gentle conditions; empty list means gentle."""
    fails: list[str] = []
    out_ct = Counter(a.src for a in q.arrows)
    in_ct = Counter(a.tgt for a in q.arrows)
    for v in q.vertices:
        if out_ct[v] > 2:
            fails.append(f"vertex {vertex_label(v)} has {out_ct[v]} outgoing arrows")
        if in_ct[v] > 2:
            fails.append(f"vertex {vertex_label(v)} has {in_ct[v]} incoming arrows")
    for a in q.arrows:
        succ = [b for b in q.arrows if b.src == a.tgt]
        for bound, group in (
            ("relation", [b for b in succ if (a.name, b.name) in q.relations]),
            ("composable", [b for b in succ if (a.name, b.name) not in q.relations]),
        ):
            if len(group) > 1:
                fails.append(
                    f"arrow {a.name} has {len(group)} {bound} successors "
                    f"({[b.name for b in group]})"
                )
        pred = [b for b in q.arrows if b.tgt == a.src]
        for bound, group in (
            ("relation", [b for b in pred if (b.name, a.name) in q.relations]),
            ("composable", [b for b in pred if (b.name, a.name) not in q.relations]),
        ):
            if len(group) > 1:
                fails.append(
                    f"arrow {a.name} has {len(group)} {bound} predecessors "
                    f"({[b.name for b in group]})"
                )
    return fails


def ensure_gentle(q: GentleQuiver) -> GentleQuiver:
    fails = check_gentle(q)
    if fails:
        raise InputError("quiver is not gentle: " + "; ".join(fails))
    return q


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
    faces = cells(d) without building the quiver.  Arrows are named a0,
    a1, ... in the order the cells' walks meet them."""
    position = {delta: k for k, delta in enumerate(d.diagonals)}
    arrows: list[tuple[str, int, int]] = []
    relations: set[tuple[str, str]] = set()
    for cell in faces:
        # the cell's sides as vertex positions, None for polygon sides, and
        # the arrow from each side to the next, None where there is none
        walk = [position.get(side) for side in sides(cell)]
        names: list[str | None] = []
        for s, s2 in zip(walk, walk[1:] + walk[:1]):
            name = None
            if s is not None and s2 is not None:
                name = f"a{len(arrows)}"
                arrows.append((name, s, s2))
            names.append(name)
        for a, b in zip(names, names[1:] + names[:1]):
            if a is not None and b is not None:
                relations.add((a, b))
    return (len(position), tuple(arrows), frozenset(relations))


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; empty means the lazy path at source."""

    source: tuple | int | str
    arrows: tuple[str, ...]

    def display(self) -> str:
        if not self.arrows:
            return f"e_{vertex_label(self.source)}"
        return ".".join(self.arrows)


@dataclass
class AlgebraBasis:
    """All relation-free paths of a gentle quiver, with the product table.

    Indices into `paths` are the working currency everywhere downstream.
    mult(i, j) returns the index of the concatenated path or None when the
    product is zero (relation hit or endpoints mismatch).  prefix[i] is
    (index of path i without its last arrow, that arrow's name), or None for
    a lazy path; the prefix always comes earlier in `paths`.
    """

    quiver: GentleQuiver
    paths: tuple[Path, ...]
    index: dict[Path, int] = field(repr=False)
    source: tuple = field(repr=False)
    target: tuple = field(repr=False)
    arrow_path: dict[str, int] = field(repr=False)
    prefix: tuple = field(repr=False)
    by_ends: dict = field(repr=False, default_factory=dict)

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
        if (p.arrows[-1], q.arrows[0]) in self.quiver.relations:
            return None
        return self.index[Path(p.source, p.arrows + q.arrows)]


def algebra_basis(q: GentleQuiver) -> AlgebraBasis:
    """Enumerate every relation-free path.  Finite dimension is enforced:
    any relation-free path longer than twice the arrow count certifies a
    relation-free cycle, so that raises InfiniteDimensionalError."""
    ensure_gentle(q)
    by_name = q.arrow_by_name
    out_arrows: dict = {v: [] for v in q.vertices}
    for a in q.arrows:
        out_arrows[a.src].append(a)

    limit = 2 * len(q.arrows)
    paths: list[Path] = [Path(v, ()) for v in q.vertices]
    frontier = list(paths)
    while frontier:
        nxt: list[Path] = []
        for p in frontier:
            tail = by_name[p.arrows[-1]].tgt if p.arrows else p.source
            for a in out_arrows[tail]:
                if p.arrows and (p.arrows[-1], a.name) in q.relations:
                    continue
                grown = Path(p.source, p.arrows + (a.name,))
                if len(grown.arrows) > limit:
                    raise InfiniteDimensionalError(grown.display())
                nxt.append(grown)
        paths.extend(nxt)
        frontier = nxt

    order = {v: k for k, v in enumerate(q.vertices)}
    paths.sort(key=lambda p: (len(p.arrows), order[p.source], p.arrows))
    index = {p: i for i, p in enumerate(paths)}
    target = tuple(
        by_name[p.arrows[-1]].tgt if p.arrows else p.source for p in paths
    )
    source = tuple(p.source for p in paths)
    arrow_path = {p.arrows[0]: i for i, p in enumerate(paths) if len(p.arrows) == 1}
    by_ends: dict = {}
    for i in range(len(paths)):
        by_ends.setdefault((source[i], target[i]), []).append(i)
    prefix = tuple(
        (index[Path(p.source, p.arrows[:-1])], p.arrows[-1]) if p.arrows else None
        for p in paths
    )
    return AlgebraBasis(
        q, tuple(paths), index, source, target, arrow_path, prefix, by_ends
    )


def shortcut_paths(basis: AlgebraBasis, jset) -> list[int]:
    """Basis indices of the nonlazy paths running from J to J with no interior
    stop in J, in basis order; the k-th one becomes shortcut arrow s{k}."""
    by_name = basis.quiver.arrow_by_name
    return [
        i
        for i, p in enumerate(basis.paths)
        if p.arrows
        and basis.source[i] in jset
        and basis.target[i] in jset
        and not any(by_name[name].tgt in jset for name in p.arrows[:-1])
    ]


def nonempty_subsets(items: tuple) -> list[tuple]:
    """Every nonempty subset of items as a tuple in items order, by size,
    then in the order of itertools.combinations."""
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return out


def _shortcut_quiver(basis: AlgebraBasis, jset) -> GentleQuiver:
    """shortcut_quiver(basis.quiver, jset), read off basis, for a nonempty
    jset of the quiver's vertices."""
    vertices = tuple(v for v in basis.quiver.vertices if v in jset)
    shortcuts = shortcut_paths(basis, jset)
    arrows = tuple(
        Arrow(f"s{k}", basis.source[i], basis.target[i])
        for k, i in enumerate(shortcuts)
    )
    relations = set()
    for ka, ia in enumerate(shortcuts):
        for kb, ib in enumerate(shortcuts):
            if basis.target[ia] == basis.source[ib] and basis.mult(ia, ib) is None:
                relations.add((f"s{ka}", f"s{kb}"))
    return ensure_gentle(GentleQuiver(vertices, arrows, frozenset(relations)))


def shortcut_quiver(q: GentleQuiver, J) -> GentleQuiver:
    """Quiver of the subalgebra spanned by paths between vertices of J.

    Arrows are the relation-free paths with both endpoints in J and no
    interior visit to J; a pair of those composes to zero exactly when the
    junction hits a relation, and those pairs are the new relations.
    """
    jset = set(J)
    if not jset:
        raise EmptySubsetError()
    missing = jset - set(q.vertices)
    if missing:
        raise InputError(f"subset contains unknown vertices {sorted(map(vertex_label, missing))}")
    return _shortcut_quiver(algebra_basis(q), jset)


def shortcut_quivers(basis: AlgebraBasis) -> Iterator[tuple[tuple, GentleQuiver]]:
    """(J, shortcut_quiver(q, J)) for every J in nonempty_subsets(q.vertices),
    all read off the algebra basis of q = basis.quiver.

    Besides the tests, its one caller is the consistency sweep
    (verify.verify_consistency_exhaustive).  The idempotent sweep reads a
    shortcut quiver's shape only to make a plan, once per (ambient shape,
    J positions), on the shape's own quiver, so it calls _shortcut_quiver
    per subset instead."""
    for J in nonempty_subsets(basis.quiver.vertices):
        yield J, _shortcut_quiver(basis, set(J))


@dataclass
class SubalgebraReport:
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
    basis: AlgebraBasis, J, shortcut: GentleQuiver
) -> SubalgebraReport:
    """Does the shortcut quiver really present the subalgebra of basis on J?

    Splits every path of the big algebra running between J vertices at its
    interior J visits; the pieces must spell out a basis path of the
    shortcut algebra, bijectively, with matching multiplication tables.
    The shortcut quiver is the one under test, so only its basis is built.
    """
    jset = set(J)
    sbasis = algebra_basis(shortcut)
    by_name = basis.quiver.arrow_by_name
    failures: list[str] = []

    shortcut_by_path = {
        i: f"s{k}" for k, i in enumerate(shortcut_paths(basis, jset))
    }

    def fold(i: int) -> Path | None:
        """Rewrite a J-to-J path of the big algebra as a shortcut path."""
        p = basis.paths[i]
        if not p.arrows:
            return Path(p.source, ())
        pieces = []
        seg_start = 0
        at = p.source
        walk = [p.source]
        for name in p.arrows:
            at = by_name[name].tgt
            walk.append(at)
        for pos in range(1, len(walk)):
            if walk[pos] in jset:
                seg = Path(walk[seg_start], p.arrows[seg_start:pos])
                piece_idx = basis.index[seg]
                if piece_idx not in shortcut_by_path:
                    return None
                pieces.append(shortcut_by_path[piece_idx])
                seg_start = pos
        return Path(p.source, tuple(pieces))

    jj_paths = [
        i
        for i in range(basis.dimension)
        if basis.source[i] in jset and basis.target[i] in jset
    ]
    folded: dict[int, int] = {}
    for i in jj_paths:
        image = fold(i)
        if image is None or image not in sbasis.index:
            failures.append(
                f"path {basis.paths[i].display()} does not fold into the shortcut basis"
            )
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
                small = sbasis.mult(folded[i], folded[j])
                if big is None:
                    if small is not None:
                        failures.append(
                            f"{basis.paths[i].display()} * {basis.paths[j].display()} "
                            f"is zero upstairs but not downstairs"
                        )
                elif small is None or folded.get(big) != small:
                    failures.append(
                        f"{basis.paths[i].display()} * {basis.paths[j].display()} "
                        f"disagrees with the shortcut product"
                    )
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
    by1, by2 = q1.arrow_by_name, q2.arrow_by_name

    def rel_ends(q, by):
        return Counter(
            ((by[a].src, by[a].tgt), (by[b].src, by[b].tgt)) for a, b in q.relations
        )

    if rel_ends(q1, by1) != rel_ends(q2, by2):
        failures.append("relation endpoint multisets differ")
    return failures


def _neighbours(shape: tuple) -> list[list[int]]:
    """For each arrow of a quiver shape, by index, the arrows next to it in
    the order canonical_form walks them: successors that compose to zero
    with it, the other successors, the same two kinds of predecessor, the
    other arrows out of its source and the other arrows into its target.
    In a gentle quiver each kind holds at most one arrow."""
    _, arrows, relations = shape
    out = []
    for a, (name, src, tgt) in enumerate(arrows):
        kinds: list[list[int]] = [[] for _ in range(6)]
        for b, (other, s, t) in enumerate(arrows):
            if s == tgt:
                kinds[(name, other) not in relations].append(b)
            if t == src:
                kinds[2 + ((other, name) not in relations)].append(b)
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
    _, arrows, relations = shape
    order, seen = [start], {start}
    for a in order:
        for b in neighbours[a]:
            if b not in seen:
                seen.add(b)
                order.append(b)
    vertices: dict = {}
    for a in order:
        for v in arrows[a][1:]:
            vertices.setdefault(v, len(vertices))
    ends = tuple((vertices[arrows[a][1]], vertices[arrows[a][2]]) for a in order)
    number = {arrows[a][0]: k for k, a in enumerate(order)}
    pairs = sorted((number[x], number[y]) for x, y in relations if x in number)
    return (ends, tuple(pairs)), order, list(vertices)


def canonical_form(shape: tuple) -> tuple[tuple, tuple, dict]:
    """The canonical form of a quiver shape (GentleQuiver.shape), and the
    isomorphism onto it: (form, vertex_map, arrow_map).

    form is itself a shape: n vertices, arrows named a0, a1, ... in order
    and relations between those names.  vertex_map[i] is the position in
    form of the shape's i-th vertex, and arrow_map sends the shape's arrow
    names to form's.  In a gentle quiver an arrow has at most one neighbour
    of each kind _neighbours lists, so a walk that takes them in that order
    numbers a whole connected component from one start arrow.  Each
    component keeps its smallest numbering over all start arrows, the
    components follow in order of those numberings, and vertices with no
    arrows come last.  So isomorphic gentle shapes have equal forms; for
    any shape, equal forms give an isomorphism, one map followed by the
    inverse of the other, and a form is its own form."""
    n, arrows, relations = shape
    neighbours = _neighbours(shape)
    walks, seen = [], set()
    for a in range(len(arrows)):
        if a not in seen:
            component = _walk(shape, neighbours, a)[1]
            walk = min(_walk(shape, neighbours, b) for b in component)
            seen.update(walk[1])
            walks.append(walk)
    walks.sort()
    arrow_order = [a for _, order, _ in walks for a in order]
    vertex_order = [v for _, _, vertices in walks for v in vertices]
    placed = set(vertex_order)
    vertex_order += [v for v in range(n) if v not in placed]
    vertex_map = [0] * n
    for k, v in enumerate(vertex_order):
        vertex_map[v] = k
    arrow_map = {arrows[a][0]: f"a{k}" for k, a in enumerate(arrow_order)}
    form_arrows = tuple(
        (f"a{k}", vertex_map[arrows[a][1]], vertex_map[arrows[a][2]])
        for k, a in enumerate(arrow_order)
    )
    form_relations = frozenset((arrow_map[x], arrow_map[y]) for x, y in relations)
    return (n, form_arrows, form_relations), tuple(vertex_map), arrow_map


def shape_quiver(shape: tuple) -> GentleQuiver:
    """The quiver of a shape with string arrow names, such as a canonical
    form: its vertices are the positions 0..n-1, so its shape is shape."""
    return _quiver_on(shape, tuple(range(shape[0])))


def _quiver_on(shape: tuple, vertices: tuple) -> GentleQuiver:
    """The quiver of shape whose k-th vertex is vertices[k]."""
    _, arrows, relations = shape
    named = tuple(Arrow(name, vertices[s], vertices[t]) for name, s, t in arrows)
    return GentleQuiver(vertices, named, relations)
