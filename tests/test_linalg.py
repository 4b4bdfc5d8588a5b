"""Exact row reduction, relation extraction, nullspaces."""

from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv.exactpoly import (
    Polynomial,
    PolynomialSpace,
    columns_for,
    linear_relations,
    nullspace_combinations,
    parse_polynomial,
    span_dimension,
    xy_universe,
)

U = xy_universe(2)


def P(text):
    return parse_polynomial(text, U)


def test_span_dimension_basics():
    assert span_dimension([]) == 0
    assert span_dimension([Polynomial.zero(U)]) == 0
    assert span_dimension([P("x1"), P("y1"), P("x1 + y1")]) == 2
    assert span_dimension([P("x1*y2 - x2*y1"), P("2*x1*y2 - 2*x2*y1")]) == 1


def test_linear_relations_fixture():
    rels = linear_relations([P("x1"), P("y1"), P("x1 + y1")])
    assert rels == [[1, 1, -1]]


def test_linear_relations_scaling():
    # relations act on the original polynomials, not on normalized rows
    rels = linear_relations([P("x1^2"), P("2*x1^2")])
    assert rels == [[2, -1]]
    rels = linear_relations([P("1/3*x1"), P("1/2*x1")])
    assert rels == [[3, -2]]


def test_relations_canonical_form():
    # first nonzero entry positive, integer entries coprime
    for rel in linear_relations([P("x1"), P("2*x1"), P("3*x1")]):
        lead = next(c for c in rel if c)
        assert lead > 0
        assert all(c == int(c) for c in rel)


def test_nullspace_combinations_vanish():
    polys = [P("x1"), P("y1"), P("x1 - y1"), P("x1 + y1")]
    combos = nullspace_combinations(polys)
    assert len(combos) == 2  # rank 2 out of 4
    for combo in combos:
        total = Polynomial.zero(U)
        for i, c in combo.items():
            total = total + polys[i].scale(c)
        assert total.is_zero()


def test_polynomial_space_incremental():
    space = PolynomialSpace(U, columns_for([P("x1"), P("y1")]))
    assert space.insert(P("x1 + y1"))
    assert not space.insert(P("2*x1 + 2*y1"))
    assert space.insert(P("x1"))
    assert space.rank == 2
    assert space.contains(P("y1"))
    assert not space.contains(P("x2"))


def test_polynomial_space_with_columns():
    cols = columns_for([P("x1"), P("y1")])
    space = PolynomialSpace(U, columns=cols)
    space.insert(P("x1 - y1"))
    assert space.contains(P("2*x1 - 2*y1"))
    # monomial outside the declared basis: definitely not in the span
    assert not space.contains(P("x2"))
    # the columns are required: there is no monomial-keyed mode
    with pytest.raises(TypeError):
        PolynomialSpace(U)


def test_mixed_universe_rejected():
    space = PolynomialSpace(U, columns_for([P("x1")]))
    with pytest.raises(ValueError):
        space.insert(parse_polynomial("x1", xy_universe(1)))


def coeffs():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


def vectors():
    # polynomials supported on x1, y1, x2, y2, constant-free analogue:
    # dense 4-vectors of fractions keep the oracle simple
    return st.lists(coeffs(), min_size=4, max_size=4)


def as_poly(vec):
    out = Polynomial.zero(U)
    for v, c in enumerate(vec):
        if c:
            out = out + Polynomial.variable(U, v).scale(c)
    return out


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(), min_size=1, max_size=6))
def test_rank_nullity_and_exact_recombination(vecs):
    polys = [as_poly(v) for v in vecs]
    rels = linear_relations(polys)
    rank = span_dimension(polys)
    assert rank + len(rels) == len(polys)
    for rel in rels:
        total = Polynomial.zero(U)
        for p, c in zip(polys, rel):
            total = total + p.scale(c)
        assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors(), min_size=2, max_size=5), st.data())
def test_planted_relation_is_found(vecs, data):
    # append an exact combination; the relation count must grow by one
    polys = [as_poly(v) for v in vecs]
    weights = data.draw(st.lists(coeffs(), min_size=len(polys),
                                 max_size=len(polys)))
    planted = Polynomial.zero(U)
    for p, w in zip(polys, weights):
        planted = planted + p.scale(w)
    before = len(linear_relations(polys))
    after = len(linear_relations(polys + [planted]))
    assert after == before + 1


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(), min_size=1, max_size=6))
def test_sparse_and_dense_relations_agree(vecs):
    polys = [as_poly(v) for v in vecs]
    sparse = nullspace_combinations(polys)
    dense = linear_relations(polys)
    assert dense == [[rel.get(j, 0) for j in range(len(polys))]
                     for rel in sparse]
    for rel in sparse:
        keys = list(rel)
        assert keys == sorted(keys)
        assert all(type(c) is int and c for c in rel.values())
        assert rel[keys[0]] > 0
        assert reduce(gcd, rel.values()) == 1
        total = Polynomial.zero(U)
        for i, c in rel.items():
            total = total + polys[i].scale(c)
        assert total.is_zero()
