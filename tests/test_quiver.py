"""Quiver extraction, gentleness, path algebra bases, and shortcuts."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from accordion_tau.errors import (
    EmptySubsetError,
    InfiniteDimensionalError,
    InputError,
)
from accordion_tau.geometry import all_dissections, cells, validate_dissection
from accordion_tau.quiver import (
    Arrow,
    GentleQuiver,
    Path,
    algebra_basis,
    canonical_form,
    check_gentle,
    check_shape,
    dissection_shape,
    ensure_gentle,
    idempotent_subalgebra_check,
    quiver_basis,
    quiver_from_json,
    quiver_of_dissection,
    quivers_match,
    shortcut_quiver,
    shortcut_quivers,
    subset_positions,
)


def a3_quiver(with_relation=True):
    rel = frozenset({("a", "b")}) if with_relation else frozenset()
    return GentleQuiver(
        (1, 2, 3),
        (Arrow("a", 1, 2), Arrow("b", 2, 3)),
        rel,
    )


def test_quiver_records_compare_and_hash_by_value(heptagon_zigzag):
    # paths are found by value, and quivers of equal dissections are equal
    q, same = quiver_of_dissection(heptagon_zigzag), quiver_of_dissection(heptagon_zigzag)
    assert q is not same and q == same and hash(q) == hash(same) and {q: 1}[same] == 1
    assert q != a3_quiver() and q.shape == same.shape
    assert Arrow("a", 1, 2) == Arrow("a", 1, 2) and {Arrow("a", 1, 2): 1}[Arrow("a", 1, 2)] == 1
    assert Arrow("a", 1, 2) != Arrow("b", 1, 2)
    basis = algebra_basis(q.shape)
    assert all(basis.paths.index(Path(p.source, p.arrows)) == i for i, p in enumerate(basis.paths))
    assert Path(0, (0,)) != Path(1, (0,)) and hash(Path(0, (0,))) == hash(Path(0, (0,)))


# -- quivers of dissections, frozen shapes --


def test_zigzag_quiver_is_a3_with_full_relation(heptagon_zigzag):
    q = quiver_of_dissection(heptagon_zigzag)
    assert q.vertices == ((0, 2), (2, 4), (4, 6))
    assert [(a.name, a.src, a.tgt) for a in q.arrows] == [
        ("a0", (0, 2), (2, 4)),
        ("a1", (2, 4), (4, 6)),
    ]
    assert q.relations == frozenset({("a0", "a1")})


def test_fan_quiver_points_inward_with_no_relations(hexagon_fan):
    q = quiver_of_dissection(hexagon_fan)
    assert q.vertices == ((0, 2), (0, 3), (0, 4))
    assert [(a.name, a.src, a.tgt) for a in q.arrows] == [
        ("a0", (0, 3), (0, 2)),
        ("a1", (0, 4), (0, 3)),
    ]
    assert q.relations == frozenset()


def test_central_triangle_gives_zero_cycle():
    # the inner cell has three diagonal sides, giving a 3-cycle where every
    # length-two composition vanishes
    d = validate_dissection(6, [(0, 2), (2, 4), (0, 4)])
    q = quiver_of_dissection(d)
    ends = {(a.src, a.tgt) for a in q.arrows}
    assert ends == {((0, 2), (2, 4)), ((2, 4), (0, 4)), ((0, 4), (0, 2))}
    assert len(q.relations) == 3
    basis = algebra_basis(q.shape)
    assert basis.dimension == 6  # three lazies, three arrows, nothing longer


def test_empty_dissection_gives_empty_quiver():
    d = validate_dissection(5, [])
    q = quiver_of_dissection(d)
    assert q.vertices == ()
    assert q.arrows == ()


# -- gentleness checks --


def test_check_gentle_flags_three_outgoing():
    q = GentleQuiver(
        (1, 2, 3, 4),
        (Arrow("x", 1, 2), Arrow("y", 1, 3), Arrow("z", 1, 4)),
        frozenset(),
    )
    fails = check_gentle(q.shape, q.vertices)
    assert fails == ["vertex 1 has 3 outgoing arrows"]


def test_check_gentle_flags_two_composable_successors():
    q = GentleQuiver(
        (1, 2, 3, 4),
        (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 2, 4)),
        frozenset(),
    )
    fails = check_gentle(q.shape, q.vertices)
    assert fails == ["arrow a has 2 composable successors (['b', 'c'])"]
    # turning both compositions into relations trips the other bound
    q2 = GentleQuiver(q.vertices, q.arrows, frozenset({("a", "b"), ("a", "c")}))
    assert check_gentle(q2.shape, q2.vertices) == ["arrow a has 2 relation successors (['b', 'c'])"]


def test_check_gentle_accepts_kronecker():
    q = GentleQuiver(
        (1, 2), (Arrow("x", 1, 2), Arrow("y", 1, 2)), frozenset()
    )
    assert check_gentle(q.shape, q.vertices) == []


def test_gentle_checks_name_vertices_only_in_their_messages():
    # the check reads the shape; the vertex tuple only names positions, so
    # a named quiver's message names its vertex, and a basis built on the
    # shape alone names the position
    q = GentleQuiver(
        ("c", (0, 2), "a", "b"),
        (Arrow("x", (0, 2), "c"), Arrow("y", (0, 2), "a"), Arrow("z", (0, 2), "b")),
        frozenset(),
    )
    assert check_gentle(q.shape, q.vertices) == ["vertex 0-2 has 3 outgoing arrows"]
    with pytest.raises(InputError, match="^quiver is not gentle: vertex 0-2 has 3"):
        quiver_basis(q)
    with pytest.raises(InputError, match="^quiver is not gentle: vertex 1 has 3"):
        algebra_basis(q.shape)


def test_a_named_build_runs_one_gentle_check(monkeypatch, hexagon_fan):
    # silting_complex(q) checks q's shape once, on positions; only a failure
    # runs the check again, to name q's vertices
    from accordion_tau import quiver, rigidity

    calls = []
    real = quiver.check_gentle
    monkeypatch.setattr(quiver, "check_gentle", lambda *args: calls.append(args) or real(*args))
    q = quiver_of_dissection(hexagon_fan)
    rigidity.silting_complex(q)
    assert len(calls) == 1


def test_quiver_validation_errors():
    with pytest.raises(InputError):
        GentleQuiver((1, 1), (), frozenset())
    with pytest.raises(InputError):
        GentleQuiver((1, 2), (Arrow("a", 1, 3),), frozenset())
    with pytest.raises(InputError):
        GentleQuiver((1, 2), (Arrow("a", 1, 2),), frozenset({("a", "ghost")}))
    with pytest.raises(InputError):
        # (b, a) is not composable: b ends at 3, a starts at 1
        GentleQuiver(
            (1, 2, 3),
            (Arrow("a", 1, 2), Arrow("b", 2, 3)),
            frozenset({("b", "a")}),
        )
    with pytest.raises(InputError):
        GentleQuiver((1, 2), (Arrow("a", 1, 2), Arrow("a", 2, 1)), frozenset())


@pytest.mark.parametrize(
    "shape,message",
    [
        ((2, (("a", 0, 1), ("a", 1, 0)), frozenset()), "duplicate arrow names"),
        ((2, (("a", 0, 2),), frozenset()), "arrow a has endpoint outside the vertex set"),
        ((2, (("a", -1, 1),), frozenset()), "arrow a has endpoint outside the vertex set"),
        (
            (2, (("a", 0, 1),), frozenset({("a", "ghost")})),
            "relation (a, ghost) names a missing arrow",
        ),
        (
            (3, (("a", 0, 1), ("b", 1, 2)), frozenset({("b", "a")})),
            "relation (b, a) is not a composable pair",
        ),
    ],
)
def test_check_shape_rejects_what_a_named_quiver_rejects(shape, message):
    # shape is a quiver on the vertices 0, 1, ... given by name: arrows as
    # (name, source, target), relations as name pairs.  A named quiver
    # rejects each; a fault of its shape, arrows as index pairs, check_shape
    # rejects too, while names are checked where they are given
    n, arrows, relations = shape
    with pytest.raises(InputError) as exc:
        GentleQuiver(tuple(range(n)), tuple(Arrow(*a) for a in arrows), relations)
    assert str(exc.value) == message
    index = {name: k for k, (name, _, _) in enumerate(arrows)}
    if len(index) == len(arrows) and all(x in index and y in index for x, y in relations):
        names = tuple(index)
        ends = tuple((src, tgt) for _, src, tgt in arrows)
        pairs = frozenset((index[x], index[y]) for x, y in relations)
        with pytest.raises(InputError) as exc:
            check_shape((n, ends, pairs, names))
        assert str(exc.value) == message
    check_shape((2, ((0, 1),), frozenset(), ("a",)))


# -- path algebra basis --


def test_zigzag_basis_has_dimension_five(heptagon_zigzag):
    q = quiver_of_dissection(heptagon_zigzag)
    basis = algebra_basis(q.shape)
    assert basis.dimension == 5
    assert [p.display(q.vertices, q.shape[3]) for p in basis.paths] == [
        "e_0-2",
        "e_2-4",
        "e_4-6",
        "a0",
        "a1",
    ]


def test_a3_without_relation_has_dimension_six():
    q = a3_quiver(with_relation=False)
    basis = algebra_basis(q.shape)
    assert basis.dimension == 6
    assert [p.display(q.vertices, q.shape[3]) for p in basis.paths[::5]] == ["e_1", "a.b"]


def test_mult_table_on_zigzag(heptagon_zigzag):
    basis = algebra_basis(quiver_of_dissection(heptagon_zigzag).shape)
    e1, e2 = 0, 1  # the lazy path at position v has index v
    a0, a1 = basis.follow(e1, (0,)), basis.follow(e2, (1,))
    assert basis.paths[a0] == Path(0, (0,)) and basis.paths[a1] == Path(1, (1,))
    assert basis.mult(e1, a0) == a0
    assert basis.mult(a0, e2) == a0
    assert basis.mult(a0, a1) is None  # killed by the relation
    assert basis.mult(a1, a0) is None  # endpoints do not match
    assert basis.mult(e1, e2) is None
    # a0 is the one path out of e1 into e2, and a0.a1 hits the relation
    assert basis.succ == ({0: a0}, {1: a1}, {}, {}, {})
    assert basis.follow(e2, (0,)) is None


def test_the_successor_table_holds_on_every_shape_and_form():
    # every dissection shape with m <= 8 and its canonical form: the lazy
    # path at v has index v, following a path's arrows from the lazy path at
    # its source finds it, each successor is its path with one more arrow,
    # and for m <= 6 mult is the product that joins the two paths and looks
    # the result up by value
    checked = 0
    for m in range(4, 9):
        shapes = {dissection_shape(d, cells(d)) for d in all_dissections(m)}
        shapes |= {canonical_form(shape)[0] for shape in shapes}
        for shape in shapes:
            basis = algebra_basis(shape)
            paths = basis.paths
            assert paths[: shape[0]] == tuple(Path(v, ()) for v in range(shape[0]))
            for i, p in enumerate(paths):
                assert basis.follow(p.source, p.arrows) == i
                for a, j in basis.succ[i].items():
                    assert paths[j] == Path(p.source, p.arrows + (a,))
            if m <= 6:
                for i, j in itertools.product(range(len(paths)), repeat=2):
                    assert basis.mult(i, j) == oracles.path_product(basis, i, j)
            checked += 1
    assert checked == 1 + 3 + 15 + 58 + 239


def test_mult_is_associative_on_fan(hexagon_fan):
    basis = algebra_basis(quiver_of_dissection(hexagon_fan).shape)
    n = basis.dimension
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ij = basis.mult(i, j)
                jk = basis.mult(j, k)
                left = basis.mult(ij, k) if ij is not None else None
                right = basis.mult(i, jk) if jk is not None else None
                assert left == right


def test_paths_sort_by_arrow_index_not_name():
    # two arrows out of one vertex, listed against name order: the paths of
    # length one follow the arrows' indices
    q = GentleQuiver(("x", "y", "z"), (Arrow("b", "x", "y"), Arrow("a", "x", "z")), frozenset())
    basis = algebra_basis(q.shape)
    assert [p.display(q.vertices, q.shape[3]) for p in basis.paths] == [
        "e_x",
        "e_y",
        "e_z",
        "b",
        "a",
    ]
    assert basis.succ[0] == {0: 3, 1: 4}


def test_relation_free_loop_is_rejected():
    q = GentleQuiver(("v",), (Arrow("l", "v", "v"),), frozenset())
    assert check_gentle(q.shape, q.vertices) == []
    with pytest.raises(InfiniteDimensionalError, match=r"witness path l\.l\.l\)"):
        algebra_basis(q.shape)


# -- shortcut quivers and the subalgebra check --


def test_shortcut_with_relation_disconnects():
    sq = shortcut_quiver(a3_quiver(with_relation=True), [1, 3])
    assert sq.vertices == (1, 3)
    assert sq.arrows == ()


def test_shortcut_without_relation_keeps_composite():
    sq = shortcut_quiver(a3_quiver(with_relation=False), [1, 3])
    assert sq.vertices == (1, 3)
    assert [(a.name, a.src, a.tgt) for a in sq.arrows] == [("s0", 1, 3)]
    assert sq.relations == frozenset()


def test_shortcut_of_fan_matches_sub_dissection_quiver(hexagon_fan):
    big = quiver_of_dissection(hexagon_fan)
    sq = shortcut_quiver(big, [(0, 2), (0, 4)])
    sub = validate_dissection(6, [(0, 2), (0, 4)])
    assert quivers_match(sq, quiver_of_dissection(sub)) == []
    # the single shortcut arrow is the composite a1.a0 through (0, 3)
    assert [(a.src, a.tgt) for a in sq.arrows] == [((0, 4), (0, 2))]


def test_shortcut_on_full_vertex_set_is_identity(heptagon_zigzag):
    q = quiver_of_dissection(heptagon_zigzag)
    assert quivers_match(shortcut_quiver(q, list(q.vertices)), q) == []


def test_shortcut_quivers_list_every_subset_in_order():
    checked = 0
    for m in range(4, 7):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            expected = [
                (J, shortcut_quiver(q, J))
                for size in range(1, len(q.vertices) + 1)
                for J in itertools.combinations(q.vertices, size)
            ]
            assert list(shortcut_quivers(algebra_basis(q.shape), q.vertices)) == expected
            checked += len(expected)
    assert checked == 2 + 20 + 170


def test_shortcut_rejects_bad_subsets(heptagon_zigzag):
    q = quiver_of_dissection(heptagon_zigzag)
    with pytest.raises(EmptySubsetError):
        shortcut_quiver(q, [])
    with pytest.raises(InputError):
        shortcut_quiver(q, [(0, 2), (9, 11)])
    assert subset_positions(q, [(4, 6), (0, 2)]) == (0, 2)
    with pytest.raises(EmptySubsetError):
        subset_positions(q, [])
    with pytest.raises(InputError, match=r"unknown vertices \['9-11'\]"):
        subset_positions(q, [(0, 2), (9, 11)])


def subalgebra_check(q, J):
    """The subalgebra check of the shortcut quiver at J against q's basis."""
    basis = algebra_basis(q.shape)
    return idempotent_subalgebra_check(basis, q.vertices, J, shortcut_quiver(q, J))


def test_idempotent_subalgebra_check_passes(hexagon_fan):
    q = quiver_of_dissection(hexagon_fan)
    report = subalgebra_check(q, [(0, 2), (0, 4)])
    assert report.passed
    assert report.failures == []
    # J-to-J paths: the two lazies plus the composite through (0, 3)
    assert report.dimension == 3
    assert report.to_json()["status"] == "pass"


def test_idempotent_check_with_relation_kills_composite():
    report = subalgebra_check(a3_quiver(with_relation=True), [1, 3])
    assert report.passed
    assert report.dimension == 2  # just the two lazies survive


def test_idempotent_check_rejects_a_shortcut_without_its_relation(heptagon_zigzag):
    # the shortcut algebra would keep s0.s1, which no path upstairs folds to
    q = quiver_of_dissection(heptagon_zigzag)
    J = q.vertices
    correct = shortcut_quiver(q, J)
    wrong = GentleQuiver(correct.vertices, correct.arrows, frozenset())
    report = idempotent_subalgebra_check(algebra_basis(q.shape), q.vertices, J, wrong)
    assert not report.passed
    assert report.failures == ["folding misses shortcut paths: image 5 of 6"]


def test_idempotent_check_rejects_a_basis_without_the_relation(heptagon_zigzag):
    # upstairs a0.a1 survives, but its fold s0.s1 is zero in the shortcut
    q = quiver_of_dissection(heptagon_zigzag)
    J = q.vertices
    free = GentleQuiver(q.vertices, q.arrows, frozenset())
    basis = algebra_basis(free.shape)
    report = idempotent_subalgebra_check(basis, q.vertices, J, shortcut_quiver(q, J))
    assert not report.passed
    assert report.failures == ["path a0.a1 does not fold into the shortcut basis"]


# -- serialization --


def test_to_json_shape(heptagon_zigzag):
    q = quiver_of_dissection(heptagon_zigzag)
    data = q.to_json()
    assert data["vertices"] == ["0-2", "2-4", "4-6"]
    assert data["arrows"][0] == {"id": "a0", "src": "0-2", "tgt": "2-4"}
    assert data["relations"] == [["a0", "a1"]]


def test_quiver_from_json_roundtrip_structure():
    data = {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "2", "tgt": "3"},
        ],
        "relations": [["a", "b"]],
    }
    q = quiver_from_json(data)
    assert q.vertices == ("1", "2", "3")
    assert q.relations == frozenset({("a", "b")})
    assert quiver_from_json(q.to_json()) == q


def test_quiver_from_json_malformed():
    with pytest.raises(InputError):
        quiver_from_json({"vertices": ["1"]})
    with pytest.raises(InputError):
        quiver_from_json({"vertices": ["1"], "arrows": [{"id": "a"}]})
    with pytest.raises(InputError):
        quiver_from_json(
            {"vertices": ["1"], "arrows": [], "relations": [["a"]]}
        )


def test_quivers_match_detects_differences(heptagon_zigzag, hexagon_fan):
    q1 = quiver_of_dissection(heptagon_zigzag)
    q2 = quiver_of_dissection(hexagon_fan)
    assert quivers_match(q1, q2)
    # same shape, relation dropped
    q3 = GentleQuiver(q1.vertices, q1.arrows, frozenset())
    assert any("relation" in f for f in quivers_match(q1, q3))


def test_the_shape_read_off_the_cells_is_the_quivers_shape():
    # dissection_shape reads the shape without building a quiver, and
    # quiver_of_dissection names that shape's vertices by d's diagonals
    count = 0
    for m in range(4, 10):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            assert dissection_shape(d, cells(d)) == q.shape
            assert q.vertices == d.diagonals
            count += 1
    assert count == 2 + 10 + 44 + 196 + 902 + 4278


def test_shape_forgets_vertex_names_only():
    q = a3_quiver()
    renamed = GentleQuiver(
        ("x", "y", "z"), (Arrow("a", "x", "y"), Arrow("b", "y", "z")), q.relations
    )
    assert renamed != q and renamed.shape == q.shape
    assert q.shape == (3, ((0, 1), (1, 2)), frozenset({(0, 1)}), ("a", "b"))
    # a dropped relation, a moved arrow end or a renamed arrow changes it
    assert a3_quiver(with_relation=False).shape != q.shape
    moved = GentleQuiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 3, 2)), frozenset())
    assert moved.shape != a3_quiver(with_relation=False).shape
    renamed_arrow = GentleQuiver(
        (1, 2, 3), (Arrow("a", 1, 2), Arrow("c", 2, 3)), frozenset()
    )
    assert renamed_arrow.shape != a3_quiver(with_relation=False).shape
    # vertex order is part of the shape: reordering moves the arrow ends
    reordered = GentleQuiver((2, 1, 3), q.arrows, q.relations)
    assert reordered.shape != q.shape


# -- isomorphisms of quiver shapes --


def corpus_shapes(max_m: int) -> list[tuple]:
    """Every ambient and shortcut quiver shape with m <= max_m, in the order
    first met."""
    shapes: dict = {}
    for m in range(4, max_m + 1):
        for d in all_dissections(m):
            q = quiver_of_dissection(d)
            basis = algebra_basis(q.shape)
            for s in [q] + [s for _, s in shortcut_quivers(basis, q.vertices)]:
                shapes.setdefault(s.shape, None)
    return list(shapes)


def is_isomorphism(a: tuple, b: tuple, iso) -> bool:
    """Does iso = (vertex map, arrow_of) carry shape a onto shape b, b's
    arrow k being a's arrow arrow_of[k]?"""
    vmap, arrow_of = iso
    number = {x: k for k, x in enumerate(arrow_of)}
    return (
        sorted(vmap) == list(range(b[0])) == list(range(a[0]))
        and sorted(arrow_of) == list(range(len(a[1]))) == list(range(len(b[1])))
        and all(b[1][k] == (vmap[a[1][x][0]], vmap[a[1][x][1]]) for k, x in enumerate(arrow_of))
        and {(number[x], number[y]) for x, y in a[2]} == set(b[2])
    )


def relabelled(shape: tuple, rng: random.Random) -> tuple:
    """A copy of shape with its vertex positions shuffled and arrows renamed,
    listed in a shuffled order."""
    n, arrows, relations, _ = shape
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(arrows)))
    rng.shuffle(order)
    number = {a: k for k, a in enumerate(order)}
    moved = tuple((perm[arrows[a][0]], perm[arrows[a][1]]) for a in order)
    pairs = frozenset((number[x], number[y]) for x, y in relations)
    return n, moved, pairs, tuple(f"r{a}" for a in order)


def test_canonical_forms_agree_with_the_permutation_oracle():
    # every pair of the 105 ambient and shortcut shapes with m <= 7 that
    # agree in vertex, arrow and relation counts: the forms are equal
    # exactly when the oracle finds an isomorphism, and each shape's maps
    # carry it onto its form; the shapes fall into 15 classes, one per form
    shapes = corpus_shapes(7)
    assert len(shapes) == 105
    forms = {shape: canonical_form(shape) for shape in shapes}
    classes = {form for form, _, _ in forms.values()}
    assert oracles.isomorphism_class_count(shapes) == len(classes) == 15
    for shape, (form, vmap, amap) in forms.items():
        assert is_isomorphism(shape, form, (vmap, amap))
    found = missed = 0
    for a, b in itertools.product(shapes, repeat=2):
        if (a[0], len(a[1]), len(a[2])) != (b[0], len(b[1]), len(b[2])):
            continue
        same = forms[a][0] == forms[b][0]
        assert same == oracles.isomorphic_shapes(a, b), (a, b)
        found += same
        missed += not same
    assert found and missed


def test_form_quivers_are_gentle_quivers_of_their_own_form():
    # every form met with m <= 8, ambient or shortcut: it passes a named
    # quiver's checks, is its own canonical form, with identity maps, is
    # gentle, and names its arrows by strings
    forms = {canonical_form(shape)[0] for shape in corpus_shapes(8)}
    assert len(forms) == 47
    for form in forms:
        check_shape(form)
        identity = tuple(range(len(form[1])))
        assert canonical_form(form) == (form, tuple(range(form[0])), identity)
        ensure_gentle(form, range(form[0]))
        assert all(isinstance(name, str) for name in form[3])


def test_canonical_forms_find_relabelled_copies():
    # shuffled positions, renamed and reordered arrows, and vertices with
    # no arrows
    rng = random.Random(17)
    isolated = (3, ((2, 0),), frozenset(), ("a",))
    for shape in corpus_shapes(7) + [isolated]:
        copy = relabelled(shape, rng)
        form, vmap, amap = canonical_form(copy)
        assert form == canonical_form(shape)[0]
        assert is_isomorphism(copy, form, (vmap, amap))
    assert canonical_form(isolated) == ((3, ((0, 1),), frozenset(), ("a0",)), (1, 2, 0), (0,))
    # forms promise completeness for gentle shapes only; for this one, with
    # parallel arrows and a loop, a shared form still gives an isomorphism,
    # each shape's map onto the form followed by the inverse of the other's
    odd = (2, ((0, 1), (0, 1), (1, 1)), frozenset({(0, 2)}), ("x", "y", "l"))
    assert check_gentle(odd, range(2))
    swapped = (odd[0], odd[1], frozenset({(1, 2)}), odd[3])
    form = canonical_form(odd)[0]
    for shape in (odd, relabelled(odd, rng), swapped):
        canon = canonical_form(shape)
        assert canon[0] == form and is_isomorphism(shape, form, canon[1:])
    # the same arrows, but the relation sits on the loop
    looped = (odd[0], odd[1], frozenset({(2, 2)}), odd[3])
    assert canonical_form(looped)[0] != form


def mutants(shape: tuple) -> dict[str, list[tuple]]:
    """shape with one arrow reversed, one relation dropped, or one relation
    moved to another composable pair, by kind."""
    n, arrows, relations, names = shape
    out: dict = {"reversed": [], "dropped": [], "moved": []}
    for k, (src, tgt) in enumerate(arrows):
        flipped = arrows[:k] + ((tgt, src),) + arrows[k + 1 :]
        kept = frozenset((x, y) for x, y in relations if flipped[x][1] == flipped[y][0])
        out["reversed"].append((n, flipped, kept, names))
    for pair in relations:
        out["dropped"].append((n, arrows, relations - {pair}, names))
        for x, y in itertools.product(range(len(arrows)), repeat=2):
            if arrows[x][1] == arrows[y][0] and (x, y) not in relations and x != y:
                out["moved"].append((n, arrows, relations - {pair} | {(x, y)}, names))
    return out


def test_canonical_forms_reject_a_changed_quiver():
    # one arrow reversed (relations it no longer composes in dropped), one
    # relation dropped, or one relation moved: the forms differ exactly when
    # the oracle finds no isomorphism, and each kind yields non-isomorphic
    # quivers
    rejected = {"reversed": 0, "dropped": 0, "moved": 0}
    for shape in corpus_shapes(7):
        form = canonical_form(shape)[0]
        for kind, changed in mutants(shape).items():
            for mutant in changed:
                same = canonical_form(mutant)[0] == form
                assert same == oracles.isomorphic_shapes(shape, mutant), (shape, mutant)
                rejected[kind] += not same
    assert all(rejected.values()), rejected
    # A4 with its relation moved from the first composable pair to the
    # second: every count and vertex degree agrees, the quivers do not
    line = (4, ((0, 1), (1, 2), (2, 3)), frozenset({(0, 1)}), ("a", "b", "c"))
    moved = (4, line[1], frozenset({(1, 2)}), line[3])
    assert not oracles.isomorphic_shapes(line, moved)
    assert canonical_form(line)[0] != canonical_form(moved)[0]


# -- properties over the dissection corpus --

DISSECTIONS = {m: all_dissections(m) for m in range(4, 8)}


@given(st.integers(min_value=4, max_value=7), st.data())
@settings(max_examples=60, deadline=None)
def test_dissection_quivers_are_gentle_and_finite(m, data):
    d = data.draw(st.sampled_from(DISSECTIONS[m]))
    q = quiver_of_dissection(d)
    assert check_gentle(q.shape, q.vertices) == []
    basis = algebra_basis(q.shape)
    assert basis.dimension >= len(q.vertices)
    # every arrow is a basis path of length one
    arrows = [basis.paths[basis.follow(src, (a,))].arrows for a, (src, _) in enumerate(q.shape[1])]
    assert arrows == [(a,) for a in range(len(q.arrows))]


@given(st.integers(min_value=4, max_value=7), st.data())
@settings(max_examples=40, deadline=None)
def test_shortcut_check_holds_on_random_subsets(m, data):
    d = data.draw(st.sampled_from([x for x in DISSECTIONS[m] if x.diagonals]))
    q = quiver_of_dissection(d)
    j = data.draw(
        st.lists(st.sampled_from(list(q.vertices)), min_size=1, unique=True)
    )
    assert subalgebra_check(q, j).passed
