import hashlib
import json
import random
import re

import pytest

from accordion_tau.accordion import accordion_complex, g_vector
from accordion_tau.errors import (
    CrossingPairError,
    EmptyDissectionError,
    InputError,
    NotAccordionError,
    NotNestedError,
)
from accordion_tau.geometry import (
    Dissection,
    all_dissections,
    all_white_diagonal_pairs,
    validate_dissection,
)
from accordion_tau.verify import verify_nested
from conftest import dissections_with_empty
from oracles import (
    CrossingSequence,
    NotCrossedError,
    arc_crosses,
    black_arc,
    crossing_sequence,
    sign,
    walk_g_vector,
)

def accordion_vertices(d: Dissection) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
    """The vertices of d's accordion complex, in order, each as its black
    diagonal's labels (i, j) and its g-vector."""
    return [(tuple(v.payload["black"]), v.gvec) for v in accordion_complex(d).vertices]


# all nine accordion g-vectors of the hexagon fan, worked out by hand
# before the implementation existed
FAN_GVECTORS = {
    (0, 2): (1, 0, 0),
    (0, 3): (0, 1, 0),
    (0, 4): (0, 0, 1),
    (1, 3): (-1, 1, 0),
    (1, 4): (-1, 0, 1),
    (1, 5): (-1, 0, 0),
    (2, 4): (0, -1, 1),
    (2, 5): (0, -1, 0),
    (3, 5): (0, 0, -1),
}


def test_fan_gvectors_match_hand_computation(hexagon_fan):
    got = dict(accordion_vertices(hexagon_fan))
    assert got == FAN_GVECTORS


def test_fan_crossing_sequence_order(hexagon_fan):
    seq = crossing_sequence(hexagon_fan, (0, 3))
    assert seq.entries == ((0, 1), (0, 2), (0, 3), (3, 4))
    assert seq.start == 1


def test_single_diagonal_hexagon():
    d = validate_dissection(6, [(0, 3)])
    got = dict(accordion_vertices(d))
    assert got == {(0, 3): (1,), (2, 5): (-1,)}
    cx = accordion_complex(d)
    assert len(cx.facets) == 2


def test_perpendicular_black_diagonal_is_rejected():
    d = validate_dissection(6, [(0, 3)])
    with pytest.raises(NotAccordionError) as exc:
        g_vector(d, (1, 4))
    assert "not an accordion" in str(exc.value)


@pytest.mark.parametrize("black", [(0, 1), (3, 1), (0, 9), (-1, 2), (0, 5), (2, 2)])
def test_g_vector_rejects_a_pair_that_is_no_black_diagonal(hexagon_fan, black):
    # adjacent, reversed, out of range, the adjacent pair b5, b0, and equal
    with pytest.raises(InputError, match="^" + re.escape(f"{black} is not a black diagonal")):
        g_vector(hexagon_fan, black)


def test_sign_raises_on_uncrossed_diagonal(hexagon_fan):
    seq = crossing_sequence(hexagon_fan, (0, 2))
    with pytest.raises(NotCrossedError):
        sign(hexagon_fan.diagonals[2], hexagon_fan, seq)


def test_sign_is_reversal_invariant():
    # reading the crossing sequence from the other endpoint must not change
    # any coordinate
    for m in (5, 6, 7):
        for d in all_dissections(m):
            for black, _ in accordion_vertices(d):
                seq = crossing_sequence(d, black)
                flipped = CrossingSequence(
                    seq.black, tuple(reversed(seq.entries)), seq.black[1]
                )
                for delta in d.diagonals:
                    if delta in seq.entries:
                        assert sign(delta, d, seq) == sign(delta, d, flipped)


def test_gvector_support_is_the_crossed_set(hexagon_fan):
    black = (1, 3)
    seq = crossing_sequence(hexagon_fan, black)
    g = g_vector(hexagon_fan, black)
    for k, delta in enumerate(hexagon_fan.diagonals):
        assert (g[k] != 0) == (delta in seq.entries)


def test_accordion_complex_of_fan(hexagon_fan):
    cx = accordion_complex(hexagon_fan)
    assert len(cx.vertices) == 9
    assert len(cx.facets) == 14
    assert all(len(f) == 3 for f in cx.facets)
    assert cx.coordinates == ("0-2", "0-3", "0-4")


def test_verify_nested_single_pair(heptagon_zigzag):
    sub = Dissection(
        heptagon_zigzag.cycle,
        (heptagon_zigzag.diagonals[0], heptagon_zigzag.diagonals[2]),
    )
    report = verify_nested(sub, heptagon_zigzag)
    assert report.passed, report.failures


def test_verify_nested_v_shape_restriction(hexagon_fan):
    # (b1, b4) crosses all three fan diagonals with a V at the middle one,
    # so its g-vector has a zero on a crossed coordinate; dropping that
    # coordinate must reproduce the sub-dissection's g-vector exactly
    black = (1, 4)
    seq = crossing_sequence(hexagon_fan, black)
    assert hexagon_fan.diagonals[1] in seq.entries
    assert g_vector(hexagon_fan, black) == (-1, 0, 1)
    sub = Dissection(
        hexagon_fan.cycle, (hexagon_fan.diagonals[0], hexagon_fan.diagonals[2])
    )
    assert g_vector(sub, black) == (-1, 1)
    assert verify_nested(sub, hexagon_fan).passed


def test_verify_nested_rejects_bad_pairs(hexagon_fan):
    other = validate_dissection(6, [(1, 3)])
    with pytest.raises(NotNestedError):
        verify_nested(other, hexagon_fan)
    with pytest.raises(EmptyDissectionError):
        verify_nested(Dissection(hexagon_fan.cycle, ()), hexagon_fan)


def test_empty_dissection_has_no_accordions():
    for m in (4, 5, 6):
        d = validate_dissection(m, [])
        assert accordion_vertices(d) == []


def test_every_accordion_gvector_is_nonzero():
    # an accordion diagonal always crosses at least one diagonal with a Z or
    # S turn; nothing in the construction forces this, so it is pinned down
    # exhaustively at small sizes (a zero g-vector would make every facet
    # through that vertex fail the facet-independence audit)
    for m in (4, 5, 6, 7):
        for d in all_dissections(m):
            for black, gvec in accordion_vertices(d):
                assert any(x != 0 for x in gvec), (m, d.white_pairs(), black)


def test_accordion_vertices_match_the_crossing_walk_oracle():
    # the vertex split must give the same vertices, in the same order, as
    # the ordered walk along each black diagonal, and reject the same black
    # diagonals with the same message
    for m in (4, 5, 6, 7):
        for d in all_dissections(m):
            want = []
            for black in all_white_diagonal_pairs(m):
                try:
                    want.append((black, walk_g_vector(d, black)))
                except NotAccordionError:
                    continue
            got = accordion_vertices(d)
            assert got == want, (m, d.white_pairs())
    for m in (4, 5, 6):
        for d in dissections_with_empty(m):
            for black in all_white_diagonal_pairs(m):
                try:
                    want = walk_g_vector(d, black)
                except NotAccordionError as exc:
                    want = str(exc)
                try:
                    got = g_vector(d, black)
                except NotAccordionError as exc:
                    got = str(exc)
                assert got == want, (m, d.white_pairs(), black)


# sha256 of every dissection's (black label, g-vector) list for 4 <= m <= 8,
# frozen from the ordered crossing walk that the vertex split replaced
ACCORDION_DIGEST = "89a6badbdd074c3bdf2e724b1e482ef67dbecfc46a2c1b37cf7db718f0c96555"


def test_accordion_vertices_digest_is_frozen():
    h = hashlib.sha256()
    for m in range(4, 9):
        for d in all_dissections(m):
            verts = [(v.label, v.gvec) for v in accordion_complex(d).vertices]
            h.update((repr((m, d.white_pairs(), verts)) + "\n").encode())
    assert h.hexdigest() == ACCORDION_DIGEST


# sha256 of every dissection's accordion complex for 4 <= m <= 8, empty ones
# included, frozen from the complex built on black Chords with their colour
ACCORDION_COMPLEX_DIGEST = "657e5dacd9312da6f97a6478adddac5056a993de32a3433689554474f3da36eb"


def test_accordion_complex_of_every_dissection_is_frozen():
    h = hashlib.sha256()
    for m in range(4, 9):
        for d in dissections_with_empty(m):
            cx = json.dumps(accordion_complex(d).to_json(), sort_keys=True)
            h.update((repr((m, d.white_pairs(), cx)) + "\n").encode())
    assert h.hexdigest() == ACCORDION_COMPLEX_DIGEST


def test_accordion_graph_is_the_oracle_noncrossing_relation():
    # two accordion diagonals are adjacent exactly when their black chords,
    # as points, do not cross by cyclic distances
    for m in range(4, 8):
        for d in dissections_with_empty(m):
            cx = accordion_complex(d)
            arcs = [black_arc(d.cycle, *v.payload["black"]) for v in cx.vertices]
            want = [
                sum(
                    1 << v
                    for v, b in enumerate(arcs)
                    if v != u and not arc_crosses(d.cycle, a, b)
                )
                for u, a in enumerate(arcs)
            ]
            assert list(cx.graph) == want, (m, d.white_pairs())


def greedy_dissection(m: int, rng: random.Random) -> Dissection:
    """A dissection of the m-gon by seeded greedy insertion: the diagonals in
    shuffled order, each kept when validate_dissection accepts it, until a
    drawn number of them, from none to a triangulation, is kept."""
    pairs = all_white_diagonal_pairs(m)
    rng.shuffle(pairs)
    size = rng.randrange(m - 2)
    chosen: list[tuple[int, int]] = []
    for pair in pairs:
        if len(chosen) == size:
            break
        try:
            validate_dissection(m, chosen + [pair])
        except CrossingPairError:
            continue
        chosen.append(pair)
    return validate_dissection(m, chosen)


@pytest.mark.parametrize("m", [13, 16])
def test_masks_wider_than_a_machine_word_match_the_oracles(m):
    # 65 and 104 black diagonals: the split masks span two machine words
    rng = random.Random(m)
    blacks = all_white_diagonal_pairs(m)
    for _ in range(15):
        d = greedy_dissection(m, rng)
        want, want_texts, got_texts = [], [], []
        for black in blacks:
            try:
                want.append((black, walk_g_vector(d, black)))
            except NotAccordionError as exc:
                want_texts.append(str(exc))
            try:
                g_vector(d, black)
            except NotAccordionError as exc:
                got_texts.append(str(exc))
        assert accordion_vertices(d) == want, d.white_pairs()
        assert got_texts == want_texts, d.white_pairs()
        cx = accordion_complex(d)
        arcs = [black_arc(d.cycle, *black) for black, _ in want]
        assert list(cx.graph) == [
            sum(1 << v for v, b in enumerate(arcs) if v != u and not arc_crosses(d.cycle, a, b))
            for u, a in enumerate(arcs)
        ], d.white_pairs()
