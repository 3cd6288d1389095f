import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import dissections_with_empty
from accordion_tau.errors import (
    AdjacentVerticesError,
    CrossingPairError,
    DuplicateDiagonalError,
    InputError,
)
from accordion_tau.geometry import (
    PointCycle,
    all_dissections,
    all_white_diagonal_pairs,
    cells,
    crosses,
    noncrossing,
    sides,
    validate_dissection,
)
from accordion_tau.quiver import quiver_of_dissection


def test_point_cycle_layout():
    # the oracle's own point model: white k is point 2k, black k is point
    # 2k+1, and a chord lists its smaller point first
    cycle = PointCycle(4)
    assert [oracles.white_arc(cycle, k, k + 1) for k in range(4)] == [
        (0, 2),
        (2, 4),
        (4, 6),
        (0, 6),
    ]
    assert [oracles.black_arc(cycle, k, k + 2) for k in range(4)] == [
        (1, 5),
        (3, 7),
        (1, 5),
        (3, 7),
    ]
    with pytest.raises(InputError):
        PointCycle(2)


def test_dissections_compare_and_hash_by_value():
    # the sweeps and the benchmark key dissections and their cycles by value
    d = validate_dissection(6, [(0, 2), (0, 3)])
    same = validate_dissection(6, [(0, 2), (0, 3)])
    assert d is not same and d == same and hash(d) == hash(same)
    assert {d: 1}[same] == 1 and {d.cycle: 1}[PointCycle(6)] == 1
    assert d != validate_dissection(7, [(0, 2), (0, 3)])
    assert d != validate_dissection(6, [(0, 3), (0, 2)])
    with pytest.raises(InputError, match="^need at least 3 white vertices, got m=2$"):
        PointCycle(2)


def test_oracle_dist_counts_counterclockwise_steps():
    cycle = PointCycle(4)
    assert oracles.dist(cycle, 6, 2) == 4
    assert oracles.dist(cycle, 2, 6) == 4
    assert oracles.dist(cycle, 1, 0) == 7


def test_validate_rejects_bad_input():
    with pytest.raises(AdjacentVerticesError):
        validate_dissection(6, [(0, 1)])
    with pytest.raises(AdjacentVerticesError):
        validate_dissection(6, [(0, 5)])
    with pytest.raises(AdjacentVerticesError):
        validate_dissection(6, [(2, 2)])
    with pytest.raises(DuplicateDiagonalError):
        validate_dissection(6, [(0, 2), (2, 0)])
    with pytest.raises(CrossingPairError):
        validate_dissection(6, [(0, 2), (1, 3)])
    with pytest.raises(InputError):
        validate_dissection(2, [])


def test_validate_keeps_input_order():
    d = validate_dissection(6, [(0, 3), (0, 2)])
    assert d.white_pairs() == [(0, 3), (0, 2)]


# m = 3 has no diagonals at all, so chord sampling starts at the square
chord_pairs = st.integers(min_value=4, max_value=9).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.sampled_from(all_white_diagonal_pairs(m)), min_size=2, max_size=2
        ),
    )
)


@given(chord_pairs)
def test_crosses_symmetric_and_matches_float(case):
    # the same label pairs name a white and a black diagonal pair, and both
    # cross exactly when the labels interleave
    m, (p1, p2) = case
    cycle = PointCycle(m)
    assert crosses(p1, p2) == crosses(p2, p1)
    for arc in (oracles.white_arc, oracles.black_arc):
        assert crosses(p1, p2) == oracles.float_crosses(
            m, arc(cycle, *p1), arc(cycle, *p2)
        )


@given(
    st.integers(min_value=3, max_value=9),
    st.data(),
)
def test_left_of_matches_float_oracle(m, data):
    n = 2 * m
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1).filter(lambda x: x != p))
    x = data.draw(st.integers(0, n - 1))
    cycle = PointCycle(m)
    if x in (p, q):
        assert not oracles.left_of(cycle, p, q, x)
    else:
        assert oracles.left_of(cycle, p, q, x) == oracles.float_left_of(m, p, q, x)


def test_in_open_arc_basics():
    cycle = PointCycle(6)
    assert oracles.in_open_arc(cycle, 1, 7, 4)
    assert not oracles.in_open_arc(cycle, 1, 7, 7)
    assert not oracles.in_open_arc(cycle, 1, 7, 9)
    assert oracles.in_open_arc(cycle, 9, 3, 0)


def test_cells_of_hexagon_fan(hexagon_fan):
    got = cells(hexagon_fan)
    assert got == [
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 4),
        (0, 4, 5),
    ]
    # each cell's sides join consecutive listed vertices, the closing side last
    for cell in got:
        for t, side in enumerate(sides(cell)):
            expected = {cell[t], cell[(t + 1) % len(cell)]}
            assert set(side) == expected and side[0] < side[1]


def test_cells_count_is_diagonals_plus_one():
    for m in (4, 5, 6, 7):
        for d in dissections_with_empty(m):
            assert len(cells(d)) == len(d.diagonals) + 1


def test_cell_interior_angles_sum():
    d = validate_dissection(8, [(0, 4)])
    two = cells(d)
    assert two == [(0, 1, 2, 3, 4), (0, 4, 5, 6, 7)]


def test_cells_are_increasing_and_each_chord_bounds_the_right_cells():
    # the incidence the accordion g-vector walk reads its inside/outside
    # cells from: each diagonal closes exactly one cell and is a
    # consecutive side of exactly one other, each boundary edge is a side
    # of exactly one cell
    for m in range(4, 9):
        boundary = [(k, k + 1) for k in range(m - 1)] + [(0, m - 1)]
        for d in dissections_with_empty(m):
            faces = cells(d)
            closing: list[tuple[int, int]] = []
            steps: list[tuple[int, int]] = []
            for cell in faces:
                assert all(u < v for u, v in zip(cell, cell[1:])), (m, cell)
                *consecutive, last = sides(cell)
                closing.append(last)
                steps += consecutive
            for pair in d.white_pairs():
                assert (closing.count(pair), steps.count(pair)) == (1, 1), (m, pair)
            for edge in boundary:
                assert closing.count(edge) + steps.count(edge) == 1, (m, edge)


# sha256 of every dissection's cells for 4 <= m <= 8, empty ones included,
# frozen from the rotation-system face traversal that cells() replaced
CELLS_DIGEST = "7fe223ec78b3500ca14528c776d0f6a0388017a3a61dcfc9ef5b89b13a66f273"


def test_cells_digest_is_frozen():
    h = hashlib.sha256()
    for m in range(4, 9):
        for d in dissections_with_empty(m):
            faces = [(cell, [f"{p}-{q}" for p, q in sides(cell)]) for cell in cells(d)]
            h.update((repr((m, d.white_pairs(), faces)) + "\n").encode())
    assert h.hexdigest() == CELLS_DIGEST


# sha256 of every dissection's quiver for 4 <= m <= 8, empty ones included,
# frozen from the quiver built on Chord sides before cells became label tuples
QUIVER_DIGEST = "37a5ac3cffaad08e0fd0e50cc9c6a5786a44f6ea905d209140fa59808ea48150"


def test_quiver_of_every_dissection_is_frozen():
    h = hashlib.sha256()
    for m in range(4, 9):
        for d in dissections_with_empty(m):
            q = json.dumps(quiver_of_dissection(d).to_json(), sort_keys=True)
            h.update((repr((m, d.white_pairs(), q)) + "\n").encode())
    assert h.hexdigest() == QUIVER_DIGEST


def test_cells_ignore_the_order_of_the_diagonals():
    for m in (5, 6, 7, 8):
        for d in all_dissections(m):
            want = cells(d)
            pairs = d.white_pairs()
            rotations = [pairs[t:] + pairs[:t] for t in range(1, len(pairs))]
            for order in [pairs[::-1], *rotations]:
                assert cells(validate_dissection(m, order)) == want


def test_boundary_edges_count():
    assert len(oracles.boundary_edges(PointCycle(7))) == 7


def test_all_white_diagonal_pairs_count():
    for m in range(3, 10):
        assert len(all_white_diagonal_pairs(m)) == m * (m - 3) // 2


def test_all_dissections_against_recursive_oracle():
    for m in (4, 5, 6, 7):
        ours = {frozenset(d.white_pairs()) for d in dissections_with_empty(m)}
        assert ours == oracles.dissections(m)


def test_all_dissections_count_m8():
    assert len(dissections_with_empty(8)) == oracles.dissection_count(8)


def test_triangulations_against_ear_oracle():
    for m in (4, 5, 6, 7):
        ours = {
            frozenset(d.white_pairs())
            for d in all_dissections(m)
            if len(d.diagonals) == m - 3
        }
        assert ours == oracles.all_triangulations(m)
        assert len(ours) == oracles.catalan(m - 2)


@given(st.integers(min_value=4, max_value=8), st.data())
@settings(max_examples=40)
def test_black_chord_crossing_is_antisymmetric_in_arcs(m, data):
    # mixed colours cross only in the oracle's point model: a black and a
    # white chord share no point, so they cross when exactly one white
    # endpoint lies inside the black chord's arc
    pairs = all_white_diagonal_pairs(m)
    cycle = PointCycle(m)
    b = oracles.black_arc(cycle, *data.draw(st.sampled_from(pairs)))
    w = oracles.white_arc(cycle, *data.draw(st.sampled_from(pairs)))
    arc = oracles.in_open_arc
    inside = arc(cycle, *b, w[0]) + arc(cycle, *b, w[1])
    assert oracles.arc_crosses(cycle, b, w) == (inside == 1)
    assert oracles.arc_crosses(cycle, w, b) == (inside == 1)


def test_crosses_matches_the_cyclic_distance_oracle_on_every_chord_pair():
    # boundary edges included; white-white and black-black pairs, each
    # diagonal its label pair for the package and its points for the oracle
    checked = 0
    for m in range(3, 9):
        cycle = PointCycle(m)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for arc in (oracles.white_arc, oracles.black_arc):
            for p1 in pairs:
                for p2 in pairs:
                    want = oracles.arc_crosses(cycle, arc(cycle, *p1), arc(cycle, *p2))
                    assert crosses(p1, p2) == want, (m, arc.__name__, p1, p2)
                    checked += 1
    assert checked == sum(2 * (m * (m - 1) // 2) ** 2 for m in range(3, 9))


def test_mixed_colour_crossing_matches_float_on_every_chord_pair():
    # the package never crosses a black diagonal with a white one; the
    # oracle does, and its cyclic distances must agree with float geometry
    checked = 0
    for m in range(3, 9):
        cycle = PointCycle(m)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for p1 in pairs:
            for p2 in pairs:
                b, w = oracles.black_arc(cycle, *p1), oracles.white_arc(cycle, *p2)
                want = oracles.float_crosses(m, b, w)
                assert oracles.arc_crosses(cycle, b, w) == want, (m, p1, p2)
                assert oracles.arc_crosses(cycle, w, b) == want, (m, p1, p2)
                checked += 1
    assert checked == sum((m * (m - 1) // 2) ** 2 for m in range(3, 9))


def test_noncrossing_table_has_no_self_bits_and_is_symmetric():
    for m in range(3, 13):
        table = noncrossing(m)
        assert len(table) == len(all_white_diagonal_pairs(m))
        for x, row in enumerate(table):
            assert not row >> x & 1, (m, x)
            for y in range(len(table)):
                assert (row >> y & 1) == (table[y] >> x & 1), (m, x, y)
