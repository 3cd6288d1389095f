"""Labeled complex plumbing: cliques, duals, isomorphism, audits."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accordion_tau.complexes as complexes
import accordion_tau.verify as verify
import oracles
from accordion_tau.accordion import accordion_complex
from accordion_tau.complexes import (
    ComplexVertex,
    LabeledComplex,
    check_facet_independence,
    check_gvector_injectivity,
    check_sign_coherence,
    complex_text,
    dual_graph,
    exchange_graph_dot,
    generic_iso,
    induced_graph,
    is_pseudomanifold,
    iso_by_gvectors,
    maximal_cliques,
    restrict_to_coordinates,
    structural_failures,
)
from accordion_tau.errors import (
    InternalError,
    LabelLengthMismatchError,
    NonPureComplexError,
)
from accordion_tau.geometry import all_dissections, validate_dissection
from accordion_tau.quiver import nonempty_subsets, quiver_of_dissection
from accordion_tau.rigidity import silting_complex
from accordion_tau.verify import subset_positions


def mk(gvecs, facets):
    """A complex given only its facets, on vertices with these g-vectors."""
    coords = tuple(f"c{t}" for t in range(len(gvecs[0]) if gvecs else 0))
    verts = [ComplexVertex(i, tuple(g), f"v{i}") for i, g in enumerate(gvecs)]
    return oracles.facet_complex(coords, verts, facets)


def clique(gvecs, edges, kind=None):
    """A clique complex on vertices with these g-vectors and compatible pairs."""
    coords = tuple(f"c{t}" for t in range(len(gvecs[0])))
    verts = [ComplexVertex(i, tuple(g), f"v{i}") for i, g in enumerate(gvecs)]
    pairs = {frozenset(e) for e in edges}
    graph = oracles.compatibility_graph(len(verts), lambda i, j: frozenset((i, j)) in pairs)
    return oracles.records_complex(coords, verts, graph, kind)


def test_vertex_records_compare_and_hash_without_their_payload():
    # a complex's equality and hashing read its vertex records, and a
    # payload (a record's JSON extras) is no part of a vertex's identity
    a = ComplexVertex(0, (1, 0), "v0", {"kind": "module"})
    b = ComplexVertex(0, (1, 0), "v0")
    assert a == b and hash(a) == hash(b) and b.payload == {}
    assert {a: 1}[b] == 1
    assert a != ComplexVertex(0, (1, 0), "v1") and a != ComplexVertex(1, (1, 0), "v0")
    assert a != ComplexVertex(0, (0, 1), "v0")


TRIANGLE_BOUNDARY = [(0, 1), (1, 2), (0, 2)]


# -- clique enumeration --


def masks(adj_sets):
    return [sum(1 << v for v in vs) for vs in adj_sets]


def test_maximal_cliques_triangle():
    adj = masks([{1, 2}, {0, 2}, {0, 1}])
    assert maximal_cliques(3, adj) == [(0, 1, 2)]


def test_maximal_cliques_path():
    adj = masks([{1}, {0, 2}, {1}])
    assert maximal_cliques(3, adj) == [(0, 1), (1, 2)]


def test_maximal_cliques_no_edges():
    adj = masks([set(), set(), set()])
    assert maximal_cliques(3, adj) == [(0,), (1,), (2,)]


def test_maximal_cliques_four_cycle():
    adj = masks([{1, 3}, {0, 2}, {1, 3}, {0, 2}])
    assert maximal_cliques(4, adj) == [(0, 1), (0, 3), (1, 2), (2, 3)]


random_graphs = st.integers(0, 14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )
)


def neighbour_sets(n, edges):
    adj_sets = [set() for _ in range(n)]
    for (i, j), edge in zip(itertools.combinations(range(n), 2), edges):
        if edge:
            adj_sets[i].add(j)
            adj_sets[j].add(i)
    return adj_sets


@settings(max_examples=300, deadline=None)
@given(random_graphs)
def test_maximal_cliques_match_the_set_oracle_on_random_graphs(graph):
    n, edges = graph
    adj_sets = neighbour_sets(n, edges)
    assert maximal_cliques(n, masks(adj_sets)) == oracles.set_maximal_cliques(n, adj_sets)


@settings(max_examples=200, deadline=None)
@given(random_graphs)
def test_the_purity_check_on_masks_raises_what_the_facet_read_raises(graph):
    # a complex of kind "toy" on one coordinate per vertex of its largest
    # clique: check_purity passes exactly when reading the facets does, and
    # a failure names the same facet, the first offending one in sorted order
    n, edges = graph
    adj_sets = neighbour_sets(n, edges)
    adj = masks(adj_sets)
    size = max(map(len, oracles.set_maximal_cliques(n, adj_sets)))

    def name_of(k):
        return f"v{k}", {}

    def toy():
        coordinates = tuple(f"c{t}" for t in range(size))
        gvecs = ((0,) * size,) * n
        return complexes.LabeledComplex(coordinates, gvecs, range(n), name_of, tuple(adj), "toy")

    try:
        toy().facets
        expected = None
    except NonPureComplexError as err:
        expected = str(err)
    checked = toy()
    if expected is None:
        checked.check_purity()
        assert "facets" not in vars(checked)
    else:
        with pytest.raises(NonPureComplexError) as err:
            checked.check_purity()
        assert str(err.value) == expected


def test_maximal_cliques_match_the_set_oracle_on_every_compatibility_graph(monkeypatch):
    graphs = []
    real = complexes.maximal_cliques

    def recording(n, adj):
        graphs.append((n, list(adj)))
        return real(n, adj)

    monkeypatch.setattr(complexes, "maximal_cliques", recording)
    for m in range(4, 8):
        for d in all_dissections(m):
            # a clique complex enumerates its cliques when its facets are
            # read; silting_complex checks purity on the walk's masks and
            # builds no facets until they are read
            accordion_complex(d).facets
            silting_complex(quiver_of_dissection(d)).facets
    assert len(graphs) == 2 * (2 + 10 + 44 + 196)
    for n, adj in graphs:
        adj_sets = [{v for v in range(n) if adj[u] >> v & 1} for u in range(n)]
        assert real(n, adj) == oracles.set_maximal_cliques(n, adj_sets)


# -- dual graphs and pseudomanifolds --


def test_dual_graph_of_triangle_boundary():
    cx = mk([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    g = dual_graph(cx)
    assert len(g.nodes) == 3
    assert len(g.edges) == 3
    assert oracles.degrees(g) == [2, 2, 2]


def test_dual_graph_rejects_impure():
    cx = mk([(1,), (2,), (3,), (4,)], [(0, 1, 2), (2, 3)])
    with pytest.raises(NonPureComplexError):
        dual_graph(cx)


def test_fan_dual_graph_is_three_regular(hexagon_fan):
    g = dual_graph(accordion_complex(hexagon_fan))
    assert len(g.nodes) == 14
    assert len(g.edges) == 21
    assert set(oracles.degrees(g)) == {3}


def test_dual_graph_matches_pair_scan_oracle():
    checked = 0
    for m in range(4, 7):
        for d in all_dissections(m):
            for cx in (accordion_complex(d), silting_complex(quiver_of_dissection(d))):
                assert dual_graph(cx).edges == tuple(oracles.flip_edges(cx.facets))
                checked += 1
    assert checked == 2 * (2 + 10 + 44)


def test_dual_graph_ridge_in_one_facet():
    # the ridges {0} and {2} lie in one facet each: no edge through them
    cx = mk([(1,), (2,), (3,)], [(0, 1), (1, 2)])
    assert dual_graph(cx).edges == tuple(oracles.flip_edges(cx.facets)) == ((0, 1),)


def test_dual_graph_ridge_in_three_facets():
    cx = mk([(1,), (2,), (3,), (4,)], [(0, 1), (0, 2), (0, 3)])
    g = dual_graph(cx)
    assert g.edges == tuple(oracles.flip_edges(cx.facets)) == ((0, 1), (0, 2), (1, 2))
    report = is_pseudomanifold(cx)
    assert report.failures == (
        "ridges with facet count != 2: [([0], 3), ([1], 1), ([2], 1), ([3], 1)]",
    )


def test_pseudomanifold_positive():
    cx = mk([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    report = is_pseudomanifold(cx)
    assert report.passed
    assert report.failures == ()


def test_pseudomanifold_open_ends():
    cx = mk([(1,), (2,), (3,)], [(0, 1), (1, 2)])
    report = is_pseudomanifold(cx)
    assert report.pure and not report.ridges_ok
    assert not report.passed


def test_pseudomanifold_disconnected():
    cx = mk(
        [(i,) for i in range(1, 7)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    report = is_pseudomanifold(cx)
    assert report.pure and report.ridges_ok and not report.connected


def test_pseudomanifold_impure_short_circuits():
    cx = mk([(1,), (2,), (3,), (4,)], [(0, 1, 2), (2, 3)])
    report = is_pseudomanifold(cx)
    assert not report.pure and not report.passed
    assert report.failures == ("facet sizes [2, 3] differ",)


# -- isomorphism checks --


def test_iso_identity():
    c = clique([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    report = iso_by_gvectors(c, c)
    assert report.passed
    assert report.vertex_map == {0: 0, 1: 1, 2: 2}
    assert report.to_json()["status"] == "pass"


def test_iso_finds_permutation():
    c1 = clique([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    c2 = clique([(-1, -1), (1, 0), (0, 1)], TRIANGLE_BOUNDARY)
    report = iso_by_gvectors(c1, c2)
    assert report.passed
    assert report.vertex_map == {0: 1, 1: 2, 2: 0}


def test_iso_label_mismatch_but_abstractly_isomorphic():
    c1 = clique([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    c2 = clique([(1, 0), (0, -1), (-1, -1)], TRIANGLE_BOUNDARY)
    report = iso_by_gvectors(c1, c2)
    assert not report.passed
    assert report.generic_found is True
    assert report.to_json()["isomorphic_ignoring_gvectors"] is True
    assert any("missing on the right" in f for f in report.failures)


def test_iso_genuinely_different():
    c1 = clique([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    c2 = clique([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    report = iso_by_gvectors(c1, c2)
    assert not report.passed
    assert report.generic_found is False


def test_iso_facet_mismatch_with_same_gvectors():
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    gv = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    c1 = clique(gv, square)
    # same vertex labels, different pairing
    c2 = clique(gv, [(0, 2), (2, 1), (1, 3), (0, 3)])
    report = iso_by_gvectors(c1, c2)
    assert not report.passed
    assert any("compatible pairs differ" in f for f in report.failures)
    # the two are abstractly both 4-cycles
    assert report.generic_found is True


def test_iso_with_coordinate_map():
    c1 = clique([(1,), (-1,)], [])
    # vertex 2 lives off coordinate c1, so the restriction drops it
    c2 = clique([(0, 1), (0, -1), (5, 0)], [])
    report = iso_by_gvectors(c1, restrict_to_coordinates(c2, (1,)))
    assert report.passed
    with pytest.raises(LabelLengthMismatchError):
        iso_by_gvectors(c1, c2)


def test_iso_duplicate_gvectors_flagged():
    c1 = clique([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    c2 = clique([(1, 0), (1, 0), (-1, -1)], TRIANGLE_BOUNDARY)
    report = iso_by_gvectors(c1, c2)
    assert not report.passed
    assert any("duplicate g-vector" in f for f in report.failures)


def test_generic_iso_runs_and_limits():
    c1 = mk([(1, 0), (0, 1), (-1, -1)], TRIANGLE_BOUNDARY)
    c2 = mk([(9, 9), (8, 8), (7, 7)], TRIANGLE_BOUNDARY)
    found, mapping = generic_iso(c1, c2)
    assert found and len(mapping) == 3
    # size mismatch is a plain no
    c3 = mk([(1,), (2,)], [(0, 1)])
    assert generic_iso(c1, c3) == (False, None)


def test_iso_skips_the_label_blind_search_above_its_size_limit():
    # 65 isolated vertices on each side, no g-vector in common
    c1 = clique([(i,) for i in range(65)], [])
    c2 = clique([(i + 100,) for i in range(65)], [])
    report = iso_by_gvectors(c1, c2)
    assert not report.passed and report.vertex_map is None
    assert report.generic_found is None
    assert report.failures[-1] == (
        "label-blind isomorphism search skipped: "
        "complex has 65 vertices, above the search limit 64"
    )
    assert "isomorphic_ignoring_gvectors" not in report.to_json()


SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_a_complex_builds_its_facets_when_read(monkeypatch):
    calls = []
    real = complexes.maximal_cliques
    monkeypatch.setattr(
        complexes, "maximal_cliques", lambda n, adj: calls.append(n) or real(n, adj)
    )
    cx = clique(SQUARE, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cx.graph == (0b1010, 0b0101, 0b1010, 0b0101) and calls == []
    assert cx.facets == ((0, 1), (0, 3), (1, 2), (2, 3)) and calls == [4]
    assert cx.to_json()["facets"] == [[0, 1], [0, 3], [1, 2], [2, 3]] and calls == [4]
    # equal to the same complex given by its facets
    assert cx == mk(SQUARE, cx.facets) and hash(cx) == hash(mk(SQUARE, cx.facets))


def test_a_complex_with_a_kind_checks_purity_when_its_facets_are_read():
    cx = clique(SQUARE, [(0, 1), (1, 2), (0, 2)], kind="toy")
    expected = r"^toy facet \(0, 1, 2\) has size 3, expected 2$"
    with pytest.raises(NonPureComplexError, match=expected):
        cx.facets
    # a restriction is not held to one vertex per coordinate
    assert restrict_to_coordinates(cx, (0, 1)).facets == ((0, 1, 2), (3,))


def test_the_purity_check_on_masks_names_the_first_offending_facet():
    # on two coordinates, the triangle (1, 2, 3) and the isolated vertex 0
    # are both impure; the walk meets the triangle first, and the message
    # names (0,), the first in sorted order, as the facet read does
    gvecs = [(1, 0), (0, 1), (1, 1), (-1, 0)]
    cx = clique(gvecs, [(1, 2), (1, 3), (2, 3)], kind="toy")
    walked = list(complexes._clique_masks(4, cx.graph))
    assert walked == [0b1110, 0b0001]
    with pytest.raises(NonPureComplexError) as err:
        cx.check_purity()
    assert str(err.value) == "toy facet (0,) has size 1, expected 2"
    # without a kind the facets read checks nothing, so the screen's
    # failure is a broken invariant, not a pass
    expected = r"^the facets read \(kind None\) passed an impure clique$"
    with pytest.raises(InternalError, match=expected):
        clique(gvecs, [(1, 2), (1, 3), (2, 3)]).check_purity()


def test_iso_of_clique_complexes_compares_graphs_and_names_the_first_pair():
    c1 = clique(SQUARE, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # the same square listed in another order, so the map is no identity
    c2 = clique(SQUARE[::-1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = iso_by_gvectors(c1, c2)
    assert report.passed and report.vertex_map == {0: 3, 1: 2, 2: 1, 3: 0}
    # drop the pair v1, v2 on the right: the square becomes a path
    c3 = clique(SQUARE[::-1], [(0, 1), (2, 3), (0, 3)])
    report = iso_by_gvectors(c1, c3)
    assert not report.passed and report.vertex_map is None
    assert report.failures[0] == (
        "compatible pairs differ under the g-vector map: "
        "v1 and v2 (right: v2 and v1) are compatible on the left only"
    )
    assert report.generic_found is False


def test_iso_reports_impure_facets_in_the_label_blind_search_as_a_failure():
    # three pairwise compatible vertices over two coordinates: impure, so
    # the label-blind search cannot read the facets
    c1 = clique([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], kind="toy")
    c2 = clique([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], kind="toy")
    report = iso_by_gvectors(c1, c2)
    assert not report.passed and report.generic_found is None
    assert report.failures == [
        "compatible pairs differ under the g-vector map: "
        "v0 and v2 (right: v0 and v2) are compatible on the left only",
        "label-blind isomorphism search skipped: toy facet (0, 1, 2) has size 3, expected 2",
    ]


def test_iso_flags_a_shared_gvector_on_the_left():
    c1 = clique([(1, 0), (1, 0)], [])
    c2 = clique([(1, 0), (0, 1)], [])
    report = iso_by_gvectors(c1, c2)
    assert not report.passed
    assert report.failures[0] == "two vertices on the left share a g-vector"


# -- induced subcomplexes --


def units(n):
    """The n unit g-vectors: restricting to positions keeps exactly those vertices."""
    return [tuple(int(t == k) for t in range(n)) for k in range(n)]


def test_induced_subcomplex_takes_maximal_traces():
    cx = clique(units(3), TRIANGLE_BOUNDARY)
    sub = restrict_to_coordinates(cx, (0, 1))
    assert len(sub.vertices) == 2
    assert sub.facets == ((0, 1),)
    assert sub.vertices[0].label == "v0"


def test_induced_subcomplex_restricts_coordinates():
    # vertex 1 has a nonzero c0 entry, so restricting to c1 keeps 0 and 2
    cx = clique([(0, 5), (1, 7), (0, 9)], TRIANGLE_BOUNDARY)
    sub = restrict_to_coordinates(cx, (1,))
    assert sub.coordinates == ("c1",)
    assert [v.gvec for v in sub.vertices] == [(5,), (9,)]


def test_induced_subcomplex_empty_is_the_empty_face():
    cx = clique(units(3), TRIANGLE_BOUNDARY)
    sub = restrict_to_coordinates(cx, ())
    assert sub.vertices == ()
    assert sub.facets == ((),)


def sweep_restrictions(m: int):
    """(complex, positions) for every restriction the nested and idempotent
    sweeps make on m-gon dissections."""
    for d in all_dissections(m):
        acc = accordion_complex(d)
        for positions in nonempty_subsets(tuple(range(len(d.diagonals)))):
            yield acc, positions
        q = quiver_of_dissection(d)
        silt = silting_complex(q)
        for J in nonempty_subsets(q.vertices):
            yield silt, subset_positions(q, J)


def test_restriction_matches_the_scan_oracle_on_every_sweep_restriction():
    # the package restricts the compatibility graph, the oracle the facets
    checked = 0
    for m in range(4, 8):
        for cx, positions in sweep_restrictions(m):
            got = restrict_to_coordinates(cx, positions)
            want = oracles.restrict_to_coordinates(cx, positions)
            assert got.graph is not None and want.graph is None
            assert got == want
            assert got.to_json() == want.to_json()
            checked += 1
    # nested pairs plus (dissection, J) pairs
    assert checked == 2 * (2 + 20 + 170 + 1400)


def test_complexes_named_when_read_equal_complexes_built_from_records():
    # every accordion and silting complex with m <= 7 names its vertices
    # only when they are read, and then equals, hashes and renders as the
    # complex built from the records of a second build
    builds = (accordion_complex, lambda d: silting_complex(quiver_of_dissection(d)))
    checked = 0
    for m in range(4, 8):
        for d in all_dissections(m):
            for build in builds:
                lazy, second = build(d), build(d)
                eager = oracles.records_copy(second)
                assert "vertices" not in vars(lazy) and "vertices" in vars(second)
                assert lazy.gvecs == eager.gvecs and lazy.graph == eager.graph
                assert lazy == eager and hash(lazy) == hash(eager)
                assert lazy.to_json() == eager.to_json()
                checked += 1
    assert checked == 2 * (2 + 10 + 44 + 196)


def test_a_restriction_names_only_its_kept_vertices_as_its_parent_does():
    # the fan's accordion complex restricted to its middle diagonal keeps
    # b0-b3 and b2-b5, whose g-vectors vanish elsewhere; the restriction
    # names them by the parent's keys and naming function, and reading its
    # vertices names no vertex of the parent
    fan = accordion_complex(validate_dissection(6, [(0, 2), (0, 3), (0, 4)]))
    sub = restrict_to_coordinates(fan, (1,))
    assert sub.name_of is fan.name_of
    assert [v.label for v in sub.vertices] == ["b0-b3", "b2-b5"]
    assert [(v.label, v.payload) for v in sub.vertices] == list(map(fan.name_of, sub.keys))
    assert "vertices" not in vars(fan)
    assert sub == oracles.restrict_to_coordinates(oracles.records_copy(fan), (1,))


def test_a_complex_with_another_graph_keeps_its_naming_columns():
    # a copy built with another graph keeps keys and naming function, so
    # the copy's vertices are named alike with the original's, and neither
    # complex names a vertex to tell
    cx = accordion_complex(validate_dissection(6, [(0, 2), (0, 3), (0, 4)]))
    assert list(LabeledComplex.__annotations__) == [
        "coordinates", "gvecs", "keys", "name_of", "graph", "kind"
    ]
    graph = (0,) * len(cx.graph)
    moved = LabeledComplex(cx.coordinates, cx.gvecs, cx.keys, cx.name_of, graph, cx.kind)
    assert moved.keys is cx.keys and moved.name_of is cx.name_of
    assert moved.gvecs is cx.gvecs and moved.kind == cx.kind
    assert all(moved.named_alike(v, cx, v) for v in range(len(cx.gvecs)))
    assert "vertices" not in vars(cx) and "vertices" not in vars(moved)
    assert moved.vertices == cx.vertices


def draw_edges(draw, n):
    """A random set of pairs i < j of 0..n-1, in combinations order."""
    pairs = list(itertools.combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [e for e, flag in zip(pairs, flags) if flag]


@st.composite
def graphs_with_keep_sets(draw):
    """A graph on 1 to 10 vertices and a vertex subset to keep (possibly
    empty)."""
    n = draw(st.integers(1, 10))
    return n, draw_edges(draw, n), draw(st.frozensets(st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(graphs_with_keep_sets())
def test_induced_subcomplex_matches_the_scan_oracle(case):
    # the oracle takes the maximal traces of the maximal cliques
    n, edges, keep = case
    cx = clique(units(n), edges)
    positions = sorted(keep)
    got = restrict_to_coordinates(cx, positions)
    assert got == oracles.restrict_to_coordinates(cx, positions)
    assert [v.label for v in got.vertices] == [f"v{k}" for k in positions]
    if not keep:
        assert got.facets == ((),)


@st.composite
def graphs_with_rows(draw):
    """A graph on 0 to 10 vertices as neighbour sets, and a list of distinct
    vertices: an ordered subset or a permutation."""
    n = draw(st.integers(0, 10))
    adj = [set() for _ in range(n)]
    for i, j in draw_edges(draw, n):
        adj[i].add(j)
        adj[j].add(i)
    if draw(st.booleans()):
        return adj, sorted(draw(st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n)))
    return adj, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_rows())
def test_induced_graph_matches_the_set_oracle(case):
    adj, rows = case
    graph = tuple(masks(adj))
    got = induced_graph(graph, rows)
    assert list(got) == masks(oracles.induced_graph(adj, rows))
    if sorted(rows) == list(range(len(adj))):
        # a permutation followed by its inverse gives the graph back
        inverse = [0] * len(rows)
        for k, v in enumerate(rows):
            inverse[v] = k
        assert induced_graph(got, inverse) == graph


# -- structural audits --


def test_sign_coherence_flags_mixed_signs():
    cx = mk([(1, 0), (-1, 0)], [(0, 1)])
    fails = check_sign_coherence(cx)
    assert len(fails) == 1 and "both signs" in fails[0]


def flip_signs(cx, whole=False):
    """cx with one g-vector entry negated where that mixes signs in a facet:
    the first vertex u of a facet whose entry at some coordinate has the sign
    of another vertex of the facet there.  With whole=True all of u's entries
    are negated, which can mix several coordinates.  None when no facet has
    such a pair."""
    for f in cx.facets:
        for c in range(len(cx.coordinates)):
            for u in f:
                x = cx.vertices[u].gvec[c]
                if x and any(cx.vertices[w].gvec[c] * x > 0 for w in f if w != u):
                    g = list(cx.vertices[u].gvec)
                    g = [-y for y in g] if whole else g[:c] + [-x] + g[c + 1 :]
                    verts = list(cx.vertices)
                    v = verts[u]
                    verts[u] = ComplexVertex(v.id, tuple(g), v.label, v.payload)
                    return oracles.records_complex(cx.coordinates, verts, cx.graph, cx.kind)
    return None


def test_sign_coherence_matches_the_coordinate_scan_oracle():
    built = flipped = 0
    for m in range(4, 8):
        for d in all_dissections(m):
            for cx in (accordion_complex(d), silting_complex(quiver_of_dissection(d))):
                assert check_sign_coherence(cx) == oracles.check_sign_coherence(cx) == []
                built += 1
                for whole in (False, True):
                    bad = flip_signs(cx, whole)
                    if bad is not None:
                        fails = check_sign_coherence(bad)
                        assert fails and fails == oracles.check_sign_coherence(bad)
                        flipped += 1
    assert built == 2 * (2 + 10 + 44 + 196)
    # the other 94 complexes have no facet with two vertices of one sign at
    # one coordinate (all of the square's, whose facets are single vertices)
    assert flipped == 2 * 410


def test_facet_independence_flags_dependence():
    cx = mk([(1, 1), (2, 2)], [(0, 1)])
    assert check_facet_independence(cx)
    good = mk([(1, 0), (0, 1)], [(0, 1)])
    assert check_facet_independence(good) == []


def test_gvector_injectivity_flags_duplicates():
    cx = mk([(1, 0), (1, 0)], [(0, 1)])
    assert check_gvector_injectivity(cx)


def test_audit_builds_the_dual_graph_once_per_complex(monkeypatch):
    calls = []
    real = complexes.dual_graph

    def counting(cx):
        calls.append(cx)
        return real(cx)

    for module in (complexes, verify):
        monkeypatch.setattr(module, "dual_graph", counting, raising=False)
    audits = []
    real_audit = verify.audit_complex
    monkeypatch.setattr(verify, "audit_complex", lambda cx: audits.append(cx) or real_audit(cx))
    summary = verify.verify_main_exhaustive(5, structural=True)
    assert summary.ok and summary.complexes_audited == 20
    # one audit per quiver isomorphism class: a clean silting audit carries
    # to every quiver of the class and, across the passed match, to the
    # accordion side
    shapes = {quiver_of_dissection(d).shape for d in all_dissections(5)}
    assert len(shapes) == 3
    assert len(calls) == len(audits) == oracles.isomorphism_class_count(shapes) == 2


def test_structural_failures_clean_on_accordion(hexagon_fan):
    assert structural_failures(accordion_complex(hexagon_fan)) == []


# -- renderings --


def test_exchange_graph_dot(hexagon_fan):
    cx = accordion_complex(hexagon_fan)
    g = dual_graph(cx)
    dot = exchange_graph_dot(g, cx)
    assert dot.startswith("graph exchange {")
    assert "f0 --" in dot
    assert g.to_json()["nodes"][0] == list(g.nodes[0])


def test_complex_text(hexagon_fan):
    text = complex_text(accordion_complex(hexagon_fan))
    assert text.startswith("coordinates: 0-2, 0-3, 0-4")
    assert "facets (14):" in text
    assert "+1" in text and "-1" in text
