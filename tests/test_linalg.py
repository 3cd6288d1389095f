"""The elimination engine against the independent rank in the oracles, and the
oracles' kernel, which the dense presentations there rest on."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from accordion_tau.linalg import rank


@st.composite
def integer_vectors(draw):
    width = draw(st.integers(0, 5))
    entries = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    return draw(st.lists(entries, max_size=6)), width


def _combination(coeffs, vectors, width):
    return [sum(c * vec[j] for c, vec in zip(coeffs, vectors)) for j in range(width)]


@settings(max_examples=200, deadline=None)
@given(integer_vectors())
def test_kernel_is_an_exact_basis_of_the_relations(case):
    vectors, width = case
    basis = oracles.kernel(vectors, width)
    for x in basis:
        assert len(x) == len(vectors)
        assert not any(isinstance(c, float) for c in x)
        assert all(type(c) is int for c in x)
        assert _combination(x, vectors, width) == [0] * width
    as_fractions = [[Fraction(a) for a in vec] for vec in vectors]
    assert len(basis) == len(vectors) - oracles._rank(as_fractions)
    assert oracles._rank([[Fraction(c) for c in x] for x in basis]) == len(basis)


@settings(max_examples=200, deadline=None)
@given(integer_vectors())
def test_rank_matches_the_oracle(case):
    vectors, _ = case
    assert rank(vectors) == oracles._rank([[Fraction(a) for a in vec] for vec in vectors])
