"""Strings, minimal presentations, the hom-shift pairing, silting complexes."""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accordion_tau
import oracles
from accordion_tau.complexes import restrict_to_coordinates
from accordion_tau.errors import (
    AlgebraMismatchError,
    BandDetectedError,
    InternalError,
    NonPureComplexError,
)
from accordion_tau.quiver import (
    Arrow,
    GentleQuiver,
    algebra_basis,
    canonical_form,
    quiver_of_dissection,
    shortcut_quivers,
)
from accordion_tau.rigidity import (
    StringWord,
    _first_met,
    _label_core,
    _top,
    enumerate_strings,
    hom_shift,
    inverse_word,
    min_presentation,
    shifted_projective,
    silting_complex,
    silting_core,
    silting_vertices,
    string_module,
    transport_core,
    walk_vertices,
)
from accordion_tau.verify import verify_idempotent_reduction
from oracles import additivity_spotcheck, direct_sum, proj_representation, projective_complex


@pytest.fixture(scope="module")
def zigzag_algebra():
    from accordion_tau.geometry import validate_dissection

    q = quiver_of_dissection(validate_dissection(7, [(0, 2), (2, 4), (4, 6)]))
    return q, algebra_basis(q.shape)


@pytest.fixture(scope="module")
def fan_algebra():
    from accordion_tau.geometry import validate_dissection

    q = quiver_of_dissection(validate_dissection(6, [(0, 2), (0, 3), (0, 4)]))
    return q, algebra_basis(q.shape)


def kronecker():
    return GentleQuiver((1, 2), (Arrow("x", 1, 2), Arrow("y", 1, 2)), frozenset())


# -- strings --


def test_zigzag_has_exactly_five_strings(zigzag_algebra):
    q, basis = zigzag_algebra
    words = enumerate_strings(basis)
    assert [w.display(q.vertices, q.shape[3]) for w in words] == [
        "e_0-2",
        "e_2-4",
        "e_4-6",
        "a0",
        "a1",
    ]


def test_fan_strings_include_the_long_walk(fan_algebra):
    _, basis = fan_algebra
    words = enumerate_strings(basis)
    assert len(words) == 6
    # no relations, so the walk through both arrows is a string (stored as
    # either itself or its formal inverse)
    long = [w for w in words if len(w.letters) == 2]
    assert len(long) == 1
    assert set(walk_vertices(basis, long[0])) == {0, 1, 2}


def test_strings_are_deduplicated_against_inverses(fan_algebra):
    _, basis = fan_algebra
    words = enumerate_strings(basis)
    keys = set()
    for w in words:
        assert w not in keys
        keys.add(w)
        inv = inverse_word(basis, w)
        if inv != w:
            assert inv not in words


def test_kronecker_has_a_band():
    with pytest.raises(BandDetectedError) as exc:
        enumerate_strings(algebra_basis(kronecker().shape))
    # the witness walk alternates the two parallel arrows
    assert "x" in str(exc.value) and "y" in str(exc.value)


def test_walk_vertices_follow_letters(fan_algebra):
    # the fan's arrows run (0, 3) -> (0, 2) and (0, 4) -> (0, 3), at
    # positions 1 -> 0 and 2 -> 1
    _, basis = fan_algebra
    w = StringWord(2, ((1, True), (0, True)))
    assert walk_vertices(basis, w) == [2, 1, 0]
    inv = inverse_word(basis, w)
    assert inv.source == 0
    assert walk_vertices(basis, inv) == [0, 1, 2]


# -- representations --


def test_string_module_of_arrow(zigzag_algebra):
    _, basis = zigzag_algebra
    rep = string_module(basis, StringWord(0, ((0, True),)))
    assert rep.dims == [1, 1, 0]
    assert rep.action == [[0], [-1]]  # a1's target has dimension zero
    assert oracles.mats(rep) == [[[1]], []]


def test_string_module_respects_relations(zigzag_algebra):
    _, basis = zigzag_algebra
    # a walk through both arrows would violate the relation, and indeed the
    # enumerator never produces it; module of each simple has total dim 1
    for v in range(3):
        rep = string_module(basis, StringWord(v, ()))
        assert sum(rep.dims) == 1


def test_proj_representation_dims(zigzag_algebra):
    _, basis = zigzag_algebra
    assert proj_representation(basis, 0).dims == [1, 1, 0]
    assert proj_representation(basis, 2).dims == [0, 0, 1]


# -- minimal presentations, frozen on the zigzag --


def test_simple_presentations_are_frozen(zigzag_algebra):
    _, basis = zigzag_algebra
    a0, a1 = basis.follow(0, (0,)), basis.follow(1, (1,))

    s1 = min_presentation(basis, string_module(basis, StringWord(0, ())))
    assert (s1.p1, s1.p0) == ((1,), (0,))
    assert s1.diff == [[{a0: Fraction(1)}]]
    assert s1.gvec == (1, -1, 0)

    s2 = min_presentation(basis, string_module(basis, StringWord(1, ())))
    assert (s2.p1, s2.p0) == ((2,), (1,))
    assert s2.diff == [[{a1: Fraction(1)}]]
    assert s2.gvec == (0, 1, -1)

    # the simple at the sink is projective, so its presentation has no P1
    s3 = min_presentation(basis, string_module(basis, StringWord(2, ())))
    assert (s3.p1, s3.p0) == ((), (2,))
    assert s3.gvec == (0, 0, 1)


@pytest.mark.parametrize("algebra", ["fan_algebra", "zigzag_algebra"])
def test_presentations_are_built_from_python_ints(algebra, request):
    _, basis = request.getfixturevalue(algebra)
    for w in enumerate_strings(basis):
        rep = string_module(basis, w)
        for images in rep.action:
            assert all(type(x) is int for x in images)
        pres = min_presentation(basis, rep)
        for row in pres.diff:
            assert all(type(x) is int for entry in row for x in entry.values())


def test_presentation_of_projective_has_no_relations_part(zigzag_algebra):
    _, basis = zigzag_algebra
    for v in range(3):
        pres = min_presentation(basis, proj_representation(basis, v))
        assert pres.p1 == ()
        assert pres.gvec == projective_complex(basis, v).gvec


def test_shifted_projective_gvec(zigzag_algebra):
    _, basis = zigzag_algebra
    assert shifted_projective(basis, 1).gvec == (0, -1, 0)
    assert projective_complex(basis, 1).gvec == (0, 1, 0)


# -- hom_shift --


def test_hom_shift_frozen_on_zigzag_simples(zigzag_algebra):
    _, basis = zigzag_algebra
    pres = {v: min_presentation(basis, string_module(basis, StringWord(v, ()))) for v in range(3)}
    table = {(u, v): hom_shift(pres[u], pres[v]) for u in range(3) for v in range(3)}
    nonzero = {k for k, val in table.items() if val}
    assert nonzero == {(0, 1), (1, 2)}
    assert table[(0, 1)] == 1
    assert table[(1, 2)] == 1


def test_hom_shift_against_tau_oracle(zigzag_algebra):
    """hom_shift(pres M, pres N) counts maps N -> tau M in the fixture."""
    _, basis = zigzag_algebra
    words = {
        "S1": StringWord(0, ()),
        "S2": StringWord(1, ()),
        "S3": StringWord(2, ()),
        "P1": StringWord(0, ((0, True),)),
        "P2": StringWord(1, ((1, True),)),
    }
    pres = {
        n: min_presentation(basis, string_module(basis, w)) for n, w in words.items()
    }
    for a in words:
        for b in words:
            tau = oracles.PATH3_TAU[a]
            expect = (
                0
                if tau is None
                else oracles.hom_dim(
                    oracles.PATH3_ARROWS,
                    oracles.PATH3_MODULES[b],
                    oracles.PATH3_MODULES[tau],
                )
            )
            assert hom_shift(pres[a], pres[b]) == expect, (a, b)


DISSECTION_POOL = [
    ((6, [(0, 2), (0, 3), (0, 4)])),
    ((7, [(0, 2), (2, 4), (4, 6)])),
    ((6, [(0, 2), (2, 4), (0, 4)])),
    ((7, [(0, 3), (3, 6)])),
    ((5, [(1, 3)])),
]


@given(st.sampled_from(DISSECTION_POOL), st.data())
@settings(max_examples=30, deadline=None)
def test_hom_shift_from_shifted_counts_dimension(case, data):
    from accordion_tau.geometry import validate_dissection

    m, pairs = case
    q = quiver_of_dissection(validate_dissection(m, pairs))
    basis = algebra_basis(q.shape)
    w = data.draw(st.sampled_from(enumerate_strings(basis)))
    rep = string_module(basis, w)
    pres = min_presentation(basis, rep)
    for v in range(len(q.vertices)):
        shifted = shifted_projective(basis, v)
        assert hom_shift(shifted, pres) == rep.dims[v]
        assert hom_shift(pres, shifted) == 0


def test_hom_shift_rejects_mismatched_algebras(zigzag_algebra, fan_algebra):
    _, b1 = zigzag_algebra
    _, b2 = fan_algebra
    x = shifted_projective(b1, 0)
    y = shifted_projective(b2, 0)
    with pytest.raises(AlgebraMismatchError):
        hom_shift(x, y)


def test_hom_shift_additive_under_direct_sums():
    # seeded triples on the first quiver of every isomorphism class of
    # dissection quivers with 4 <= m <= 7
    from accordion_tau.geometry import all_dissections

    firsts = {}
    for m in range(4, 8):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            firsts.setdefault(canonical_form(q.shape)[0], q)
    assert len(firsts) == 15
    for seed, q in enumerate(firsts.values()):
        assert additivity_spotcheck(q, seed) == [], q.vertices


def test_hom_shift_matches_the_path_oracle_on_every_silting_pair():
    # every ordered pair (self pairs included) of silting vertices for
    # 4 <= m <= 7, plus seeded direct sums of two vertices on either side
    from accordion_tau.geometry import all_dissections

    rng = random.Random(2017)
    pairs = sums = 0
    for m in range(4, 8):
        for d in all_dissections(m):
            objects = [sv.complex for sv in silting_vertices(quiver_of_dissection(d))]
            for x in objects:
                for y in objects:
                    assert hom_shift(x, y) == oracles.path_hom_shift(x, y)
                    pairs += 1
            for _ in range(3):
                x = direct_sum(rng.choice(objects), rng.choice(objects))
                y = rng.choice(objects)
                assert hom_shift(x, y) == oracles.path_hom_shift(x, y)
                assert hom_shift(y, x) == oracles.path_hom_shift(y, x)
                sums += 1
    assert sums == 3 * (2 + 10 + 44 + 196)
    assert pairs > sums


def presentation_parts(pres):
    return pres.p0, pres.p1, pres.diff


def all_pairs_graph(verts):
    """The compatibility graph that asks hom_shift both ways on every pair."""
    objects = [sv.complex for sv in verts]

    def compatible(i, j):
        x, y = objects[i], objects[j]
        return hom_shift(x, y) == 0 and hom_shift(y, x) == 0

    return oracles.compatibility_graph(len(objects), compatible)


def test_presentations_and_screened_graphs_match_the_dense_oracle():
    # every silting vertex for 4 <= m <= 7 is presented as the dense route
    # (a matrix per arrow, the cover's kernel by elimination) presents its
    # module, and the graph that skips pairs with no hom-shift width is
    # the graph that asks every pair
    from accordion_tau.geometry import all_dissections

    checked = 0
    for m in range(4, 8):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            basis = algebra_basis(q.shape)
            verts = silting_vertices(q)
            for sv in verts:
                if sv.letters is not None:
                    dense = oracles.min_presentation(basis, sv.complex.module)
                    assert presentation_parts(sv.complex) == presentation_parts(dense)
                    checked += 1
            assert silting_core(basis).graph == all_pairs_graph(verts)
    assert checked > 2 + 10 + 44 + 196


@pytest.mark.parametrize("algebra", ["fan_algebra", "zigzag_algebra"])
def test_fixture_presentations_match_the_dense_oracle(algebra, request):
    # every string module of the fixture, rigid or not, every projective,
    # and every direct sum of two string modules
    q, basis = request.getfixturevalue(algebra)
    modules = [string_module(basis, w) for w in enumerate_strings(basis)]
    presented = [min_presentation(basis, rep) for rep in modules]
    sums = [direct_sum(x, y).module for x in presented for y in presented]
    projectives = [proj_representation(basis, v) for v in range(len(q.vertices))]
    for rep in modules + sums + projectives:
        dense = oracles.min_presentation(basis, rep)
        assert presentation_parts(min_presentation(basis, rep)) == presentation_parts(dense)
    assert silting_core(basis).graph == all_pairs_graph(silting_vertices(q))


def test_the_13_gon_fan_triangulation_has_the_triangulation_counts():
    # a triangulation's complex has n(n+3)/2 vertices and Cat(n+1) facets,
    # each of size n, where n = m - 3: at m=13, 65 vertices and
    # Cat(11) = 58,786 facets of size 10
    from accordion_tau.geometry import validate_dissection

    fan = validate_dissection(13, [(0, k) for k in range(2, 12)])
    cx = silting_complex(quiver_of_dissection(fan))
    n = len(cx.coordinates)
    assert len(cx.gvecs) == n * (n + 3) // 2 == 65
    assert len(cx.facets) == oracles.catalan(n + 1) == 58786
    assert {len(f) for f in cx.facets} == {n} == {10}


def test_silting_vertices_match_the_frozen_digest():
    # label, g-vector, P0, P1 and differential of every silting vertex for
    # 4 <= m <= 8, hashed when presentations were built by per-vertex scans
    # and P0 and P1 listed vertex names; they list positions now, so they
    # are named through the quiver's vertices before hashing
    from accordion_tau.geometry import all_dissections

    h = hashlib.sha256()
    count = 0
    for m in range(4, 9):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            for sv in silting_vertices(q):
                c = sv.complex
                p0, p1 = (tuple(q.vertices[v] for v in part) for part in (c.p0, c.p1))
                label = sv.label(q.vertices, q.shape[3])
                h.update(repr((label, sv.gvec, p0, p1, c.diff)).encode())
                count += 1
    assert count == 11960
    assert h.hexdigest() == (
        "be67c2e5daa20f26d7ec7e5b8b6635ff72ecaae87362832197056127dd967a41"
    )


def test_direct_sum_sums_the_modules(zigzag_algebra):
    _, basis = zigzag_algebra
    x = min_presentation(basis, string_module(basis, StringWord(0, ((0, True),))))
    y = min_presentation(basis, string_module(basis, StringWord(1, ())))
    s = direct_sum(x, y)
    assert s.module.dims == [1, 2, 0]
    assert s.module.action[0] == [0]
    assert oracles.mats(s.module)[0] == [[1], [0]]
    assert direct_sum(y, shifted_projective(basis, 0)).module.dims == y.module.dims


def test_direct_sum_concatenates(zigzag_algebra):
    _, basis = zigzag_algebra
    x = projective_complex(basis, 0)
    y = shifted_projective(basis, 1)
    s = direct_sum(x, y)
    assert s.p0 == (0,)
    assert s.p1 == (1,)
    assert s.gvec == (1, -1, 0)


# -- silting complexes --


def test_zigzag_silting_vertices_frozen(zigzag_algebra):
    q, _ = zigzag_algebra
    verts = silting_vertices(q)
    assert [(v.label(q.vertices, q.shape[3]), v.gvec) for v in verts] == [
        ("P_0-2[1]", (-1, 0, 0)),
        ("P_2-4[1]", (0, -1, 0)),
        ("P_4-6[1]", (0, 0, -1)),
        ("e_4-6", (0, 0, 1)),
        ("e_2-4", (0, 1, -1)),
        ("a1", (0, 1, 0)),
        ("e_0-2", (1, -1, 0)),
        ("a0", (1, 0, 0)),
    ]
    assert {v.gvec for v in verts} == set(oracles.PATH3_GVECTORS.values())


def test_zigzag_silting_complex_counts(zigzag_algebra):
    q, _ = zigzag_algebra
    cx = silting_complex(q)
    assert len(cx.vertices) == 8
    assert len(cx.facets) == 12
    assert all(len(f) == 3 for f in cx.facets)
    assert cx.coordinates == ("0-2", "2-4", "4-6")


def test_repeated_object_makes_the_silting_build_fail(zigzag_algebra, monkeypatch):
    # a repeated string gives two vertices with one g-vector; nothing merges
    # them, so every facet through that object gains a vertex
    q, basis = zigzag_algebra
    strings = enumerate_strings(basis)
    monkeypatch.setattr(
        accordion_tau.rigidity, "enumerate_strings", lambda _: strings + strings[:1]
    )
    with pytest.raises(NonPureComplexError, match="silting facet .* has size 4, expected 3"):
        silting_complex(q)


def test_fan_silting_complex_counts(fan_algebra):
    q, _ = fan_algebra
    cx = silting_complex(q)
    assert len(cx.vertices) == 9
    assert len(cx.facets) == 14
    kinds = [v.payload["kind"] for v in cx.vertices]
    assert kinds.count("shifted") == 3
    assert kinds.count("module") == 6


def test_shifted_projectives_form_a_facet(zigzag_algebra):
    q, _ = zigzag_algebra
    cx = silting_complex(q)
    shifted = frozenset(
        v.id for v in cx.vertices if v.payload["kind"] == "shifted"
    )
    assert shifted in cx.facet_sets()


def test_idempotent_reduction_on_fan(fan_algebra):
    q, _ = fan_algebra
    report = verify_idempotent_reduction(q, [(0, 2), (0, 4)])
    assert report.passed
    assert report.failures == []
    assert len(report.vertex_map) > 0


def test_single_coordinate_restriction_is_two_points(zigzag_algebra):
    q, _ = zigzag_algebra
    cx = silting_complex(q)
    sub = restrict_to_coordinates(cx, (0,))
    assert [v.gvec for v in sub.vertices] == [(-1,), (1,)]
    assert sub.facets == ((0,), (1,))


def test_labelling_a_shape_core_equals_a_direct_build():
    # every ambient and shortcut quiver with m <= 7: the core of the first
    # quiver of each shape, labelled for q, is exactly q's own silting
    # complex, payloads included, and shares the core's tuples
    from accordion_tau.geometry import all_dissections

    cores, checked = {}, 0
    for m in range(4, 8):
        for d in all_dissections(m):
            big = quiver_of_dissection(d)
            basis = algebra_basis(big.shape)
            quivers = [big] + [s for _, s in shortcut_quivers(basis, big.vertices)]
            for q in quivers:
                if q.shape not in cores:
                    cores[q.shape] = silting_core(algebra_basis(q.shape))
                    continue
                core = cores[q.shape]
                labelled, direct = _label_core(core, q.vertices, q.shape[3]), silting_complex(q)
                assert labelled == direct
                assert labelled.to_json() == direct.to_json()
                assert labelled.graph is core.graph
                assert all(
                    v.gvec is g for v, g in zip(labelled.vertices, core.gvecs)
                )
                checked += 1
    assert len(cores) == 105 and checked > len(cores)


def first_quiver_of_each_shape(max_m: int) -> dict:
    """The first ambient or shortcut quiver of each shape that the
    dissections with m <= max_m give, by shape, in the order met."""
    from accordion_tau.geometry import all_dissections

    first = {}
    for m in range(4, max_m + 1):
        for d in all_dissections(m):
            big = quiver_of_dissection(d)
            basis = algebra_basis(big.shape)
            for q in [big] + [s for _, s in shortcut_quivers(basis, big.vertices)]:
                first.setdefault(q.shape, q)
    return first


def test_cores_forget_vertex_names_and_vertices_carry_the_complex_labels():
    # every ambient and shortcut quiver shape with m <= 7: a copy of its
    # first quiver with renamed vertices has an equal core, and the silting
    # vertices carry the labels of the silting complex, in its order
    first = first_quiver_of_each_shape(7)
    for q in first.values():
        name = {v: f"v{k}" for k, v in enumerate(q.vertices)}
        renamed = GentleQuiver(
            tuple(name[v] for v in q.vertices),
            tuple(Arrow(a.name, name[a.src], name[a.tgt]) for a in q.arrows),
            q.relations,
        )
        assert renamed != q and renamed.shape == q.shape
        assert silting_core(algebra_basis(renamed.shape)) == silting_core(algebra_basis(q.shape))
        labels = [v.label for v in silting_complex(q).vertices]
        assert [sv.label(q.vertices, q.shape[3]) for sv in silting_vertices(q)] == labels
    assert len(first) == 105


def test_cores_ignore_arrow_names():
    # every ambient and shortcut quiver shape with m <= 7: the shape with
    # only its arrow names changed has an equal core, letters included, so
    # names reach a complex only through the labels
    renamed_shapes = 0
    for shape in first_quiver_of_each_shape(7):
        names = tuple(f"r{k}" for k in reversed(range(len(shape[1]))))
        renamed = shape[:3] + (names,)
        assert silting_core(algebra_basis(renamed)) == silting_core(algebra_basis(shape))
        renamed_shapes += renamed != shape
    assert renamed_shapes == 105 - 2  # all but the two shapes with no arrow


def test_transported_cores_equal_direct_builds():
    # every ambient and shortcut quiver shape with m <= 7 and every ambient
    # shape with m = 8, the first of each class included: the core of its
    # canonical form, transported, equals the shape's own core and labels
    # exactly q's silting complex, facets included
    from accordion_tau.geometry import all_dissections

    forms: dict = {}
    seen = set()
    for m in range(4, 9):
        for d in all_dissections(m):
            big = quiver_of_dissection(d)
            basis = algebra_basis(big.shape)
            quivers = [big]
            if m <= 7:
                quivers += [s for _, s in shortcut_quivers(basis, big.vertices)]
            for q in quivers:
                if q.shape in seen:
                    continue
                seen.add(q.shape)
                canon = canonical_form(q.shape)
                if canon[0] not in forms:
                    forms[canon[0]] = silting_core(algebra_basis(canon[0]))
                moved = transport_core(forms[canon[0]], canon, q.shape)
                assert moved == silting_core(algebra_basis(q.shape))
                labelled, built = _label_core(moved, q.vertices, q.shape[3]), silting_complex(q)
                assert labelled.facets == built.facets
                assert labelled == built
                assert labelled.to_json() == built.to_json()
    assert (len(seen), len(forms)) == (257, 47)


def test_transport_keeps_the_orientation_enumerate_strings_keeps():
    # the orientation _first_met picks for a string and for its inverse is
    # the one enumerate_strings keeps, on every shape with m <= 7 and on
    # quivers with a loop, whose closed strings tie on source position
    quivers = first_quiver_of_each_shape(7)
    loop = GentleQuiver(
        (1, 2),
        (Arrow("l", 1, 1), Arrow("b", 1, 2)),
        frozenset({("l", "l")}),
    )
    quivers[loop.shape] = loop
    closed = 0
    for q in quivers.values():
        first_met = _first_met(q.shape)
        basis = algebra_basis(q.shape)
        for w in enumerate_strings(basis):
            inverse = inverse_word(basis, w)
            assert first_met(w.letters, w.source) == (w.letters, w.source)
            assert first_met(inverse.letters, inverse.source) == (w.letters, w.source)
            closed += bool(w.letters) and inverse.source == w.source
    # l and b'.l.b close up; enumerate_strings keeps l' and b'.l'.b
    assert closed == 2
    strings = enumerate_strings(algebra_basis(loop.shape))
    assert {w.display(loop.vertices, loop.shape[3]) for w in strings} >= {"l'", "b'.l'.b"}


# -- invariants survive python -O --


def test_top_raises_when_candidates_miss_the_radical():
    with pytest.raises(InternalError):
        _top(2, [[1, 0]], [[0, 1]])


def test_no_assert_statements_in_the_package():
    package = Path(accordion_tau.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{source.name} has assert statements at lines {found}"
