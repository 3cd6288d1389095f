"""Simplicial complexes with g-vector labeled vertices, and their comparisons.

A LabeledComplex stores vertices carrying integer g-vectors (one coordinate
per label in `coordinates`) and its facets.  The two complexes built
elsewhere in the package (accordion complexes of dissections, 2-term
silting complexes of gentle algebras) are both clique complexes of a
pairwise compatibility relation, built by `clique_complex`, so the
construction, the isomorphism checks, dual graphs and structural audits are
shared.  A clique complex carries its compatibility graph as one int
bitmask of neighbours per vertex (`graph`), and builds its facets, the
maximal cliques (`maximal_cliques`, Bron-Kerbosch on those masks), when
they are first read; for a complex that `clique_complex` builds, that read
also checks that every facet holds one vertex per coordinate.

A clique complex is fixed by its vertices and its graph, so
`iso_by_gvectors` matches vertices by g-vector and checks that the match
carries compatible pairs onto compatible pairs; a failure names the first
pair compatible on one side only.  `restrict_to_coordinates` is the one
restriction: the induced subcomplex on the vertices whose g-vectors vanish
off some coordinates, with g-vectors sliced down to those coordinates.  On a
clique complex that is the induced subgraph, so `restriction` reads the
kept vertices, their restricted g-vectors and the induced masks off the
g-vectors and the graph alone, and `name_restriction` names that from any
complex with those g-vectors and that graph, so complexes that differ only
in labels share one `restriction`.  `induced_graph` is the one renumbering
of a bitmask graph through a vertex list, for restrictions and for vertex
permutations alike.

Facet adjacency comes from one ridge index (each facet minus one vertex,
mapped to the facets containing it): `dual_graph` reads its edges from it
and `is_pseudomanifold` its ridge counts.  Purity and two facets per ridge
force dual-graph degree equal to the facet size, not to the number of
coordinates, so a degree check against the coordinates is also a
facet-size check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import (
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


@dataclass(frozen=True, eq=False)
class LabeledComplex:
    """A complex on vertices 0..n-1, given by its graph.

    A clique complex is given its compatibility graph, each vertex's
    neighbours as a bitmask (graph[v]); its facets, the maximal cliques, are
    built on first read unless they are given too, as a cache.  When kind
    is set, that read raises NonPureComplexError, naming the complex by
    kind, unless every facet holds one vertex per coordinate.  Every
    complex the package builds has a graph, and the comparisons and
    restrictions read it.  A complex given only its facets (graph None)
    is no clique complex; the audits and rendering read facets alone, so
    they take one too.  Equality and hashing read coordinates, vertices
    and facets, whichever way the complex was given.
    """

    coordinates: tuple[str, ...]
    vertices: tuple[ComplexVertex, ...]
    given_facets: tuple[tuple[int, ...], ...] | None = None
    graph: tuple[int, ...] | None = None
    kind: str | None = None

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        if self.given_facets is not None:
            return self.given_facets
        facets = tuple(maximal_cliques(len(self.vertices), self.graph))
        if self.kind is not None:
            size = len(self.coordinates)
            for f in facets:
                if len(f) != size:
                    raise NonPureComplexError(
                        f"{self.kind} facet {f} has size {len(f)}, expected {size}"
                    )
        return facets

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
        return tuple(
            sum(1 << t for t, x in enumerate(v.gvec) if x) for v in self.vertices
        )

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


def _check_vertices(coordinates: tuple, vertices: tuple) -> None:
    """Vertex ids must equal positions, g-vectors have one entry per coordinate."""
    for idx, v in enumerate(vertices):
        if v.id != idx:
            raise ValueError(f"vertex ids must equal positions, got {v.id} at {idx}")
        if len(v.gvec) != len(coordinates):
            raise LabelLengthMismatchError(
                f"vertex {v.id} has g-vector length {len(v.gvec)}, "
                f"expected {len(coordinates)}"
            )


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
    """All maximal cliques of a graph on 0..n-1, as sorted tuples in sorted order.

    adj[u] is the bitmask of the neighbours of u.  Bron-Kerbosch with
    pivoting (Tomita, Tanaka and Takahashi) on int masks R, P and X: the
    pivot u in P | X maximises |P & adj[u]|, ties going to the smallest u,
    and the candidates P minus adj[pivot] are taken lowest bit first.
    """
    cliques: list[tuple[int, ...]] = []
    _expand(adj, cliques, 0, (1 << n) - 1, 0)
    return sorted(cliques)


def _expand(adj: list[int], cliques: list, r: int, p: int, x: int) -> None:
    """One Bron-Kerbosch call.  A module function, not a closure: a closure
    that calls itself is a reference cycle, garbage only the collector frees."""
    if not p and not x:
        cliques.append(_bits(r))
        return
    best = -1
    rest = p | x
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        count = (p & adj[u]).bit_count()
        if count > best:
            best, pivot = count, u
        rest ^= low
    candidates = p & ~adj[pivot]
    while candidates:
        low = candidates & -candidates
        v = low.bit_length() - 1
        _expand(adj, cliques, r | low, p & adj[v], x & adj[v])
        p ^= low
        x |= low
        candidates ^= low


def clique_complex(kind: str, coordinates, vertices, compatible) -> LabeledComplex:
    """The clique complex of a pairwise compatibility relation on vertices.

    compatible(i, j) is asked once for each pair of positions i < j.  The
    facets are the maximal cliques, built when first read, and each must
    hold one vertex per coordinate; kind names the complex in the
    NonPureComplexError otherwise.
    """
    coordinates = tuple(coordinates)
    vertices = tuple(vertices)
    _check_vertices(coordinates, vertices)
    n = len(vertices)
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if compatible(i, j):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return LabeledComplex(coordinates, vertices, None, tuple(adj), kind)


@dataclass(frozen=True)
class ExchangeGraph:
    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    # the ridge index the edges were read from; not compared, not rendered
    ridges: dict[frozenset[int], list[int]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def degrees(self) -> list[int]:
        deg = [0] * len(self.nodes)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

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
    graph: ExchangeGraph | None  # the dual graph; None when the complex is impure

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
        return PseudomanifoldReport(False, False, False, tuple(failures), None)

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
    return PseudomanifoldReport(pure, ridges_ok, connected, tuple(failures), graph)


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
    g2 = {}
    for v in c2.vertices:
        if v.gvec in g2:
            failures.append(f"duplicate g-vector {v.gvec} on the right")
        g2[v.gvec] = v.id

    vertex_map: dict[int, int] = {}
    for v in c1.vertices:
        if v.gvec in g2:
            vertex_map[v.id] = g2[v.gvec]
        else:
            failures.append(f"g-vector {v.gvec} of {v.label} missing on the right")
    if len(c1.vertices) != len(c2.vertices):
        failures.append(
            f"vertex counts differ: {len(c1.vertices)} vs {len(c2.vertices)}"
        )
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
    for v in cx.vertices:
        sizes = sorted(len(f) for f in cx.facets if v.id in f)
        prof.append(tuple(sizes))
    return prof


# the most vertices the backtracking label-blind search takes on
GENERIC_ISO_LIMIT = 64


def generic_iso(
    c1: LabeledComplex, c2: LabeledComplex
) -> tuple[bool, dict[int, int] | None]:
    """Label-blind facet-preserving bijection search (backtracking)."""
    n = len(c1.vertices)
    if n != len(c2.vertices) or len(c1.facets) != len(c2.facets):
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
    gvecs = tuple([tuple([cx.vertices[old].gvec[t] for t in positions]) for old in keep])
    return Restriction(tuple(keep), gvecs, induced_graph(cx.graph, keep))


def name_restriction(
    cx: LabeledComplex, positions: tuple[int, ...], r: Restriction
) -> LabeledComplex:
    """The restriction r of cx to positions, its vertices named as in cx.
    r may come from another complex with cx's g-vectors and graph.  A
    restriction is not held to one vertex per coordinate."""
    vertices = cx.vertices
    verts = tuple(
        [
            ComplexVertex(new, g, vertices[old].label, vertices[old].payload)
            for new, (old, g) in enumerate(zip(r.keep, r.gvecs))
        ]
    )
    coordinates = tuple([cx.coordinates[t] for t in positions])
    return LabeledComplex(coordinates, verts, None, r.graph)


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
    for v in cx.vertices:
        pos.append(sum(1 << c for c, x in enumerate(v.gvec) if x > 0))
        neg.append(sum(1 << c for c, x in enumerate(v.gvec) if x < 0))
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
    for f in cx.facets:
        if linalg.rank([cx.vertices[v].gvec for v in f]) != len(f):
            failures.append(f"facet {f}: g-vectors are linearly dependent")
    return failures


def check_gvector_injectivity(cx: LabeledComplex) -> list[str]:
    seen: dict[tuple[int, ...], int] = {}
    failures = []
    for v in cx.vertices:
        if v.gvec in seen:
            failures.append(
                f"vertices {seen[v.gvec]} and {v.id} share g-vector {v.gvec}"
            )
        else:
            seen[v.gvec] = v.id
    return failures


def structural_failures(cx: LabeledComplex) -> list[str]:
    """Every structural audit in one list: sign coherence, facet independence
    and g-vector injectivity.  Vertex ids and g-vector lengths are checked
    when clique_complex builds a complex."""
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
