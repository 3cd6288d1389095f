"""Simplicial complexes with g-vector labeled vertices, and their comparisons.

A LabeledComplex is its columns: integer g-vectors in vertex order
(`gvecs`, one coordinate per label in `coordinates`), the compatibility
graph (`graph`) and, for naming, one key per vertex and a naming function
(`keys`, `name_of`).  Its vertex records (`vertices`, ComplexVertex: id,
g-vector, label and payload) are built from those columns when first read,
so a complex that no one prints is never named: the comparisons,
restrictions and audits read g-vectors and the graph alone, and labels
feed failure text, `to_json`, the renderers, equality and hashing.

The two complexes the package builds (accordion complexes of dissections,
2-term silting complexes of gentle algebras) are both clique complexes of
a pairwise compatibility relation, so the construction, the isomorphism
checks, dual graphs and structural audits are shared.  A complex carries
its compatibility graph as one int bitmask of neighbours per vertex: the
accordion side reads it off a per-m table, and the silting build asks the
hom-shift pairing for the pairs that need it.  The complex builds its
facets, the maximal cliques (`maximal_cliques`, the sorted cliques of one
Bron-Kerbosch walk on those masks), when they are first read; when the
complex has a kind (an accordion or silting complex), that read also
checks that every facet holds one vertex per coordinate; `check_purity`
screens the walk's masks first and reads the facets only on a failure.

A clique complex is fixed by its vertices and its graph, so
`iso_by_gvectors` matches vertices by g-vector and checks that the match
carries compatible pairs onto compatible pairs; a failure names the first
pair compatible on one side only.  `restrict_to_coordinates` is the one
restriction: the induced subcomplex on the vertices whose g-vectors vanish
off some coordinates, with g-vectors sliced down to those coordinates.  On a
clique complex that is the induced subgraph, so `restriction` reads the
kept vertices, their restricted g-vectors and the induced masks off the
g-vectors and the graph alone, and `name_restriction` makes that a complex
whose vertices are named as the kept ones of any complex with those
g-vectors and that graph, so complexes that differ only in labels share one
`restriction`.  `induced_graph` is the one renumbering of a bitmask graph
through a vertex list, for restrictions and for vertex permutations alike.

Facet adjacency comes from one ridge index (each facet minus one vertex,
mapped to the facets containing it): `dual_graph` reads its edges from it
and `is_pseudomanifold` its ridge counts.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import (
    InternalError,
    LabelLengthMismatchError,
    NonPureComplexError,
    SizeLimitError,
)


@dataclass(frozen=True)
class ComplexVertex:
    id: int
    gvec: tuple[int, ...]
    label: str
    payload: dict = field(default_factory=dict, compare=False)


def _vertex_records(gvecs, keys, name_of) -> tuple[ComplexVertex, ...]:
    """Vertex k is ComplexVertex(k, gvecs[k], *name_of(keys[k])): the one
    place that names the vertices of a complex."""
    return tuple(
        [ComplexVertex(k, g, *name_of(key)) for k, (g, key) in enumerate(zip(gvecs, keys))]
    )


@dataclass(frozen=True, eq=False)
class LabeledComplex:
    """The clique complex of a compatibility graph on vertices 0..n-1.

    Its fields are its whole state: the coordinates, each vertex's g-vector
    (gvecs[v], one entry per coordinate), a key per vertex and a naming
    function, each vertex's neighbours as a bitmask (graph[v]) and an
    optional kind.  Its facets, the maximal cliques of the graph, are built
    when first read; when kind is set, that read raises NonPureComplexError,
    naming the complex by kind, unless every facet holds one vertex per
    coordinate.  Its records (.vertices) are built when first read too,
    vertex k as ComplexVertex(k, gvecs[k], *name_of(keys[k])), so one
    naming function and equal keys give one label and payload
    (named_alike).  Equality and hashing read coordinates, vertices and
    facets.
    """

    coordinates: tuple[str, ...]
    gvecs: tuple[tuple[int, ...], ...]
    keys: Sequence
    name_of: Callable[..., tuple[str, dict]]
    graph: tuple[int, ...]
    kind: str | None = None

    @cached_property
    def vertices(self) -> tuple[ComplexVertex, ...]:
        return _vertex_records(self.gvecs, self.keys, self.name_of)

    def named_alike(self, v: int, other: LabeledComplex, w: int) -> bool:
        """True when vertex v of this complex and vertex w of other share
        their naming function and key, so their labels and payloads agree
        without naming either; False says nothing."""
        return self.name_of is other.name_of and self.keys[v] == other.keys[w]

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        facets = tuple(maximal_cliques(len(self.gvecs), self.graph))
        if self.kind is not None:
            size = len(self.coordinates)
            for f in facets:
                if len(f) != size:
                    raise NonPureComplexError(
                        f"{self.kind} facet {f} has size {len(f)}, expected {size}"
                    )
        return facets

    def check_purity(self) -> None:
        """A screen for the facets read's purity check (kind must be set): no
        facet is built while every clique mask of the walk holds one vertex
        per coordinate; else the facets read raises NonPureComplexError for
        the first offending facet in sorted order, or this InternalError."""
        size = len(self.coordinates)
        if any(c.bit_count() != size for c in _clique_masks(len(self.gvecs), self.graph)):
            self.facets
            raise InternalError(f"the facets read (kind {self.kind}) passed an impure clique")

    def __eq__(self, other):
        if not isinstance(other, LabeledComplex):
            return NotImplemented
        return (self.coordinates, self.vertices, self.facets) == (
            other.coordinates,
            other.vertices,
            other.facets,
        )

    def __hash__(self):
        return hash((self.coordinates, self.vertices, self.facets))

    def facet_sets(self) -> set[frozenset[int]]:
        return {frozenset(f) for f in self.facets}

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """Each vertex's nonzero g-vector coordinates, as a bitmask."""
        return tuple(sum(1 << t for t, x in enumerate(g) if x) for g in self.gvecs)

    def to_json(self) -> dict:
        verts = []
        for v in self.vertices:
            entry = {"id": v.id, "label": v.label, "g": list(v.gvec)}
            entry.update(v.payload)
            verts.append(entry)
        return {
            "coordinates": list(self.coordinates),
            "vertices": verts,
            "facets": [list(f) for f in self.facets],
        }


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def induced_graph(graph: tuple[int, ...], rows) -> tuple[int, ...]:
    """The subgraph of graph induced on the vertices rows, vertex rows[k]
    renamed k.  graph[v] is the bitmask of the neighbours of v; a
    permutation as rows renumbers the whole graph."""
    bit = [0] * len(graph)
    keep = 0
    for k, v in enumerate(rows):
        bit[v] = 1 << k
        keep |= 1 << v
    out = []
    for v in rows:
        mask, induced = graph[v] & keep, 0
        while mask:
            low = mask & -mask
            induced |= bit[low.bit_length() - 1]
            mask ^= low
        out.append(induced)
    return tuple(out)


def maximal_cliques(n: int, adj: list[int]) -> list[tuple[int, ...]]:
    """All maximal cliques of a graph on 0..n-1, as sorted tuples in sorted
    order; adj[u] is the bitmask of the neighbours of u."""
    return sorted(map(_bits, _clique_masks(n, adj)))


def _clique_masks(n: int, adj) -> Iterator[int]:
    """Every maximal clique of the graph as a bitmask, in walk order:
    Bron-Kerbosch on int masks R, P and X with an explicit stack.  Each
    candidate in P outside the pivot's neighbours is pushed with the P and
    X it branches on, then moved from P to X.  The pivot is the lowest
    vertex of P | X: it reads no neighbour counts, and walks the silting
    graphs of the 9-gon classes and of the 13-gon fan faster than the one
    with most neighbours in P (Tomita, Tanaka and Takahashi)."""
    stack = [(0, (1 << n) - 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        r, p, x = pop()
        if not p:
            if not x:
                yield r
            continue
        rest = p | x
        candidates = p & ~adj[(rest & -rest).bit_length() - 1]
        while candidates:
            low = candidates & -candidates
            near = adj[low.bit_length() - 1]
            push((r | low, p & near, x & near))
            p ^= low
            x |= low
            candidates ^= low


@dataclass(frozen=True)
class ExchangeGraph:
    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    # the ridge index the edges were read from; not compared, not rendered
    ridges: dict[frozenset[int], list[int]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def to_json(self) -> dict:
        return {
            "nodes": [list(f) for f in self.nodes],
            "edges": [list(e) for e in self.edges],
        }


def _ridge_index(facets) -> dict[frozenset[int], list[int]]:
    """Each ridge (a facet minus one vertex) mapped to the facets containing it,
    in increasing facet order."""
    index: dict[frozenset[int], list[int]] = {}
    for i, f in enumerate(facets):
        whole = frozenset(f)
        for v in f:
            index.setdefault(whole - {v}, []).append(i)
    return index


def dual_graph(cx: LabeledComplex) -> ExchangeGraph:
    """Facet adjacency graph: facets joined when they share a ridge, i.e.
    differ in one vertex.  Edges (i, j) have i < j and come sorted."""
    sizes = {len(f) for f in cx.facets}
    if len(sizes) > 1:
        raise NonPureComplexError(f"facet sizes {sorted(sizes)} are not all equal")
    ridges = _ridge_index(cx.facets)
    edges = sorted(
        pair for owners in ridges.values() for pair in itertools.combinations(owners, 2)
    )
    return ExchangeGraph(tuple(cx.facets), tuple(edges), ridges)


@dataclass(frozen=True)
class PseudomanifoldReport:
    pure: bool
    ridges_ok: bool
    connected: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.pure and self.ridges_ok and self.connected


def is_pseudomanifold(cx: LabeledComplex) -> PseudomanifoldReport:
    """Purity, every ridge in exactly two facets, facet-adjacency connectivity."""
    failures: list[str] = []
    sizes = {len(f) for f in cx.facets}
    pure = len(sizes) <= 1
    if not pure:
        failures.append(f"facet sizes {sorted(sizes)} differ")
        return PseudomanifoldReport(False, False, False, tuple(failures))

    graph = dual_graph(cx)
    bad = sorted(
        (sorted(ridge), len(owners))
        for ridge, owners in graph.ridges.items()
        if len(owners) != 2
    )
    ridges_ok = not bad
    if not ridges_ok:
        failures.append(f"ridges with facet count != 2: {bad[:5]}")

    reach = {0} if graph.nodes else set()
    frontier = list(reach)
    neigh: dict[int, list[int]] = {i: [] for i in range(len(graph.nodes))}
    for i, j in graph.edges:
        neigh[i].append(j)
        neigh[j].append(i)
    while frontier:
        cur = frontier.pop()
        for nxt in neigh[cur]:
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    connected = len(reach) == len(graph.nodes)
    if not connected:
        failures.append(
            f"facet adjacency graph has {len(graph.nodes) - len(reach)} unreachable facets"
        )
    return PseudomanifoldReport(pure, ridges_ok, connected, tuple(failures))


@dataclass
class IsoReport:
    passed: bool
    vertex_map: dict[int, int] | None
    failures: list[str]
    generic_found: bool | None = None

    def to_json(self) -> dict:
        out = {
            "status": "pass" if self.passed else "fail",
            "vertex_map": (
                {str(k): v for k, v in sorted(self.vertex_map.items())}
                if self.vertex_map is not None
                else None
            ),
            "failures": list(self.failures),
        }
        if self.generic_found is not None:
            out["isomorphic_ignoring_gvectors"] = self.generic_found
        return out


def iso_by_gvectors(c1: LabeledComplex, c2: LabeledComplex) -> IsoReport:
    """Match vertices by exact g-vector equality and compare the complexes.

    Both are clique complexes; they match when the g-vector map carries
    compatible pairs onto compatible pairs, and a failure names the first
    pair, in c1's order, compatible on one side only.  On failure, a
    label-blind isomorphism search distinguishes a wrong complex from a
    wrong labeling convention; when it cannot run (above its size limit, or
    on impure facets) generic_found stays None and a failure line says why.
    """
    failures: list[str] = []
    if len(c1.coordinates) != len(c2.coordinates):
        raise LabelLengthMismatchError(
            f"coordinate counts differ: {len(c1.coordinates)} vs {len(c2.coordinates)}"
        )
    g2: dict[tuple[int, ...], int] = {}
    for k, g in enumerate(c2.gvecs):
        if g in g2:
            failures.append(f"duplicate g-vector {g} on the right")
        g2[g] = k

    vertex_map: dict[int, int] = {}
    for k, g in enumerate(c1.gvecs):
        if g in g2:
            vertex_map[k] = g2[g]
        else:
            failures.append(f"g-vector {g} of {c1.vertices[k].label} missing on the right")
    if len(c1.gvecs) != len(c2.gvecs):
        failures.append(f"vertex counts differ: {len(c1.gvecs)} vs {len(c2.gvecs)}")
    elif not failures and len(set(vertex_map.values())) != len(vertex_map):
        failures.append("two vertices on the left share a g-vector")
    if not failures:
        pair = _first_unmatched_pair(c1.graph, c2.graph, vertex_map)
        if pair is not None:
            u, w = pair
            side = "left" if c1.graph[u] >> w & 1 else "right"
            failures.append(
                f"compatible pairs differ under the g-vector map: "
                f"{c1.vertices[u].label} and {c1.vertices[w].label} (right: "
                f"{c2.vertices[vertex_map[u]].label} and "
                f"{c2.vertices[vertex_map[w]].label}) are compatible on the {side} only"
            )
    if not failures:
        return IsoReport(True, vertex_map, [])

    try:
        found, _ = generic_iso(c1, c2)
    except (SizeLimitError, NonPureComplexError) as err:
        failures.append(f"label-blind isomorphism search skipped: {err}")
        return IsoReport(False, None, failures)
    if found:
        failures.append(
            "complexes are abstractly isomorphic, so the g-vector labels disagree"
        )
    return IsoReport(False, None, failures, generic_found=found)


def _first_unmatched_pair(
    g1: tuple[int, ...], g2: tuple[int, ...], vertex_map: dict[int, int]
) -> tuple[int, int] | None:
    """The first pair u < w of vertices of g1 that is an edge of exactly one
    of g1 and g2 under the bijection vertex_map, or None when there is none:
    g2's masks are pulled back to g1's vertex ids, unless the map is the
    identity."""
    n = len(g1)
    image = [vertex_map[u] for u in range(n)]
    pulled = g2 if image == list(range(n)) else induced_graph(g2, image)
    if g1 != pulled:
        for u, (a, b) in enumerate(zip(g1, pulled)):
            if a != b:
                # a pair (w, u) with w < u would have shown at w
                return u, _bits(a ^ b)[0]
    return None


def _facet_profile(cx: LabeledComplex) -> list[tuple[int, ...]]:
    prof = []
    for v in range(len(cx.gvecs)):
        sizes = sorted(len(f) for f in cx.facets if v in f)
        prof.append(tuple(sizes))
    return prof


# the most vertices the backtracking label-blind search takes on
GENERIC_ISO_LIMIT = 64


def generic_iso(
    c1: LabeledComplex, c2: LabeledComplex
) -> tuple[bool, dict[int, int] | None]:
    """Label-blind facet-preserving bijection search (backtracking)."""
    n = len(c1.gvecs)
    if n != len(c2.gvecs) or len(c1.facets) != len(c2.facets):
        return False, None
    if n > GENERIC_ISO_LIMIT:
        raise SizeLimitError(n, GENERIC_ISO_LIMIT)
    if sorted(map(len, c1.facets)) != sorted(map(len, c2.facets)):
        return False, None

    prof1, prof2 = _facet_profile(c1), _facet_profile(c2)

    def pair_counts(cx):
        counts = {}
        for f in cx.facets:
            for a in f:
                for b in f:
                    if a < b:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
        return counts

    pc1, pc2 = pair_counts(c1), pair_counts(c2)

    candidates = [
        [u for u in range(n) if prof2[u] == prof1[v]] for v in range(n)
    ]
    if any(not c for c in candidates):
        return False, None
    order = sorted(range(n), key=lambda v: len(candidates[v]))

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == n:
            mapped = {frozenset(assignment[v] for v in f) for f in c1.facets}
            return mapped == c2.facet_sets()
        v = order[pos]
        for u in candidates[v]:
            if u in used:
                continue
            ok = True
            for w, uw in assignment.items():
                key1 = (min(v, w), max(v, w))
                key2 = (min(u, uw), max(u, uw))
                if pc1.get(key1, 0) != pc2.get(key2, 0):
                    ok = False
                    break
            if ok:
                assignment[v] = u
                used.add(u)
                if backtrack(pos + 1):
                    return True
                del assignment[v]
                used.discard(u)
        return False

    if backtrack(0):
        return True, dict(assignment)
    return False, None


class Restriction(NamedTuple):
    """The label-free part of a restriction to some coordinates: the ids of
    the kept vertices in order, their g-vectors on those coordinates, and
    the induced graph on the kept vertices' new ids (their positions in
    keep)."""

    keep: tuple[int, ...]
    gvecs: tuple[tuple[int, ...], ...]
    graph: tuple[int, ...]


def restriction(cx: LabeledComplex, positions: tuple[int, ...]) -> Restriction:
    """What restrict_to_coordinates(cx, positions) keeps, read off the
    g-vectors and the graph of cx alone.

    A vertex is kept when its support mask lies inside the positions' mask,
    and the induced subgraph on the kept vertices has the facets of the
    restriction as its maximal cliques."""
    inside = 0
    for t in positions:
        inside |= 1 << t
    keep = [i for i, support in enumerate(cx.support_masks) if not support & ~inside]
    rows = cx.gvecs
    if len(positions) > 1:
        # one call slices a g-vector; itemgetter gives one position a bare
        # entry, and needs one
        pick = operator.itemgetter(*positions)
        gvecs = tuple([pick(rows[old]) for old in keep])
    else:
        gvecs = tuple([tuple([rows[old][t] for t in positions]) for old in keep])
    return Restriction(tuple(keep), gvecs, induced_graph(cx.graph, keep))


def name_restriction(
    cx: LabeledComplex, positions: tuple[int, ...], r: Restriction
) -> LabeledComplex:
    """The restriction r of cx to positions, its vertices named as cx names
    the kept ones: their keys and cx's naming function, so nothing is named
    until its vertices are read.  r may come from another complex with cx's
    g-vectors and graph.  A restriction is not held to one vertex per
    coordinate."""
    keys = cx.keys
    return LabeledComplex(
        tuple([cx.coordinates[t] for t in positions]),
        r.gvecs,
        tuple([keys[old] for old in r.keep]),
        cx.name_of,
        graph=r.graph,
    )


def restrict_to_coordinates(cx: LabeledComplex, positions) -> LabeledComplex:
    """Induced subcomplex on the vertices whose g-vectors vanish off positions,
    with coordinates and g-vectors restricted to those positions, in order."""
    positions = tuple(positions)
    return name_restriction(cx, positions, restriction(cx, positions))


def check_sign_coherence(cx: LabeledComplex) -> list[str]:
    """Within a facet, no coordinate may take both signs across g-vectors.

    Each vertex carries a mask of its positive and one of its negative
    coordinates; a facet fails at the coordinates set in both ORs."""
    pos, neg = [], []
    for g in cx.gvecs:
        pos.append(sum(1 << c for c, x in enumerate(g) if x > 0))
        neg.append(sum(1 << c for c, x in enumerate(g) if x < 0))
    failures = []
    for f in cx.facets:
        up = down = 0
        for v in f:
            up |= pos[v]
            down |= neg[v]
        for c in _bits(up & down):
            failures.append(f"facet {f}: coordinate {cx.coordinates[c]} takes both signs")
    return failures


def check_facet_independence(cx: LabeledComplex) -> list[str]:
    """g-vectors within a facet must be linearly independent over the rationals."""
    failures = []
    gvecs = cx.gvecs
    for f in cx.facets:
        if linalg.rank([gvecs[v] for v in f]) != len(f):
            failures.append(f"facet {f}: g-vectors are linearly dependent")
    return failures


def check_gvector_injectivity(cx: LabeledComplex) -> list[str]:
    seen: dict[tuple[int, ...], int] = {}
    failures = []
    for k, g in enumerate(cx.gvecs):
        if g in seen:
            failures.append(f"vertices {seen[g]} and {k} share g-vector {g}")
        else:
            seen[g] = k
    return failures


def structural_failures(cx: LabeledComplex) -> list[str]:
    """Every structural audit in one list: sign coherence, facet independence
    and g-vector injectivity.  Vertex ids are positions by construction
    (LabeledComplex.vertices), and each builder gives every g-vector one
    entry per coordinate."""
    return (
        check_sign_coherence(cx)
        + check_facet_independence(cx)
        + check_gvector_injectivity(cx)
    )


def exchange_graph_dot(graph: ExchangeGraph, cx: LabeledComplex, name: str = "exchange") -> str:
    """DOT rendering of the facet adjacency graph, facets labeled by vertices."""
    lines = [f"graph {name} {{", "  node [shape=box];"]
    for idx, f in enumerate(graph.nodes):
        label = ", ".join(cx.vertices[v].label for v in f)
        lines.append(f'  f{idx} [label="{label}"];')
    for i, j in graph.edges:
        lines.append(f"  f{i} -- f{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complex_text(cx: LabeledComplex) -> str:
    """Plain text table: one vertex per line, then the facet list."""
    lines = [f"coordinates: {', '.join(cx.coordinates)}"]
    width = max((len(v.label) for v in cx.vertices), default=0)
    for v in cx.vertices:
        g = "(" + ", ".join(f"{x:+d}" for x in v.gvec) + ")"
        lines.append(f"  [{v.id:>2}] {v.label:<{width}}  g = {g}")
    lines.append(f"facets ({len(cx.facets)}):")
    for f in cx.facets:
        lines.append("  {" + ", ".join(cx.vertices[v].label for v in f) + "}")
    return "\n".join(lines) + "\n"
