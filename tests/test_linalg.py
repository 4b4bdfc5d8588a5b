"""Exact row reduction, relation extraction, nullspaces."""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv.dihedral import xy_monomials
from dihedralinv.exactpoly import (
    Polynomial,
    PolynomialSpace,
    RowSpace,
    monomial_product,
    nullspace_combinations,
    parse_polynomial,
    rank_up_to,
    scaled_row_from_polynomial,
    xy_universe,
)

U = xy_universe(2)
LINEAR = [((v, 1),) for v in range(U.nvars)]  # x1, y1, x2, y2


def P(text):
    return parse_polynomial(text, U)


def rank(polys):
    return rank_up_to(PolynomialSpace(U).insert, polys)


def test_span_dimension_basics():
    assert rank([]) == 0
    assert rank([Polynomial.zero(U)]) == 0
    assert rank([P("x1"), P("y1"), P("x1 + y1")]) == 2
    assert rank([P("x1*y2 - x2*y1"), P("2*x1*y2 - 2*x2*y1")]) == 1


def test_linear_relations_fixture():
    rels = nullspace_combinations([P("x1"), P("y1"), P("x1 + y1")], LINEAR)
    assert rels == [{0: 1, 1: 1, 2: -1}]


def test_linear_relations_scaling():
    # relations act on the original polynomials, not on normalized rows
    rels = nullspace_combinations([P("x1^2"), P("2*x1^2")],
                                  xy_monomials(2, (2, 0)))
    assert rels == [{0: 2, 1: -1}]


def test_relations_canonical_form():
    # one relation per dependent polynomial, in input order; ascending
    # indices, coprime integers, first entry positive; a zero polynomial is
    # a relation by itself
    polys = [P("x1"), P("2*x1"), P("3*x1"), Polynomial.zero(U), P("y1"),
             P("x1 - y1")]
    assert nullspace_combinations(polys, LINEAR) == [
        {0: 2, 1: -1}, {0: 3, 2: -1}, {3: 1}, {0: 1, 4: -1, 5: -1}]


def test_nullspace_combinations_vanish():
    polys = [P("x1"), P("y1"), P("x1 - y1"), P("x1 + y1")]
    combos = nullspace_combinations(polys, LINEAR)
    assert len(combos) == 2  # rank 2 out of 4
    for combo in combos:
        total = Polynomial.zero(U)
        for i, c in combo.items():
            total = total + polys[i].scale(c)
        assert total.is_zero()


def test_row_space_reduce():
    space = RowSpace()
    assert space.insert_row({0: 2, 1: 2})
    row = {0: 3, 1: 3}
    assert space.reduce(row) == {}
    assert row == {0: 3, 1: 3}
    assert space.reduce({0: 1, 1: 2}) == {1: 1}
    assert not space.insert_row({0: 5, 1: 5})
    assert space.insert_row({1: 4, 2: 1})
    assert space.rank == 2


def test_polynomial_space_incremental():
    space = PolynomialSpace(U)
    assert space.insert(P("x1 + y1"))
    assert not space.insert(P("2*x1 + 2*y1"))
    assert space.insert(P("x1"))
    assert space.space.rank == 2
    # y1 lies in the span, so inserting it leaves the rank as it is; x2 not
    assert not space.insert(P("y1"))
    assert space.space.rank == 2
    assert space.insert(P("x2"))
    assert space.space.rank == 3


def test_polynomial_space_with_columns():
    # a monomial gets its column id the first time an insert holds it, and
    # a dependent insert adds no column
    x1, y1, x2, y2 = LINEAR
    space = PolynomialSpace(U)
    assert space.insert(P("x2"))
    assert space.col_index == {x2: 0}
    assert space.insert(P("y1 - x2"))
    assert space.col_index == {x2: 0, y1: 1}
    assert not space.insert(P("2*x2 - 2*y1"))
    assert space.col_index == {x2: 0, y1: 1}
    assert space.insert(P("x1*y2"))
    assert space.col_index == {x2: 0, y1: 1, monomial_product(x1, y2): 2}
    assert space.space.rank == 3
    # two orders of the same polynomials number the columns differently;
    # either way an insert raises the rank iff it leaves the span so far
    polys = [P("x1 + y1"), P("y2"), P("x1 + y1 + y2"), P("x1 - y1"),
             P("3*y1")]
    gains = []
    for order in (polys, polys[::-1]):
        space = PolynomialSpace(U)
        gains.append([space.insert(p) for p in order])
        assert space.space.rank == 3
    assert gains == [[True, True, False, True, False],
                     [True, True, True, False, False]]
    # the columns are not declared: there is no basis-keyed mode
    with pytest.raises(TypeError):
        PolynomialSpace(U, LINEAR)


class Drawn:
    """An iterator over rows that counts the rows drawn from it."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.count += 1
        return row


def test_rank_up_to_draws_no_row_past_the_ceiling():
    # rank 2 is reached at the third row; a loop that tested the ceiling
    # only once it held the next row would draw a fourth
    rows = Drawn([P("x1"), P("2*x1"), P("y1"), P("x2"), P("y2")])
    assert rank_up_to(PolynomialSpace(U).insert, rows, 2) == 2
    assert rows.count == 3
    # a ceiling the rows never reach draws them all
    rows = Drawn([P("x1"), P("2*x1"), P("y1")])
    assert rank_up_to(PolynomialSpace(U).insert, rows, 3) == 2
    assert rows.count == 3
    # the same holds for integer rows through a RowSpace
    space = RowSpace()
    rows = Drawn([{0: 1}, {1: 1}, {0: 1, 1: 1}, {2: 1}])
    assert rank_up_to(space.insert_row, rows, 1) == 1
    assert (rows.count, space.rank) == (1, 1)


def test_rank_up_to_ceiling_zero_and_none():
    rows = Drawn([P("x1"), P("y1")])
    assert rank_up_to(PolynomialSpace(U).insert, rows, 0) == 0
    assert rows.count == 0
    rows = Drawn([P("x1"), P("y1"), P("x1 + y1"), P("x2")])
    assert rank_up_to(PolynomialSpace(U).insert, rows) == 3
    assert rows.count == 4
    assert rank_up_to(RowSpace().insert_row, []) == 0


def test_monomial_outside_columns_is_named():
    # a row over fixed columns refuses a monomial outside them, not drops it
    col_index = {mono: i for i, mono in enumerate(LINEAR[:2])}
    with pytest.raises(ValueError, match="monomial x1\\*x2 is not in the"):
        scaled_row_from_polynomial(P("x1*x2"), col_index)
    assert scaled_row_from_polynomial(P("2*x1 - 4*y1"), col_index) \
        == {0: 2, 1: -4}
    with pytest.raises(ValueError, match="monomial x2 is not in the"):
        nullspace_combinations([P("x1"), P("x1 + x2")], LINEAR[:2])


def test_fraction_coefficient_is_named():
    # rows are integer rows: a rational coefficient is refused, not cleared
    with pytest.raises(TypeError, match="got 1/3 at x1"):
        PolynomialSpace(U).insert(P("1/3*x1 + y1"))
    with pytest.raises(TypeError, match="got 1/3 at x1"):
        nullspace_combinations([P("y1"), P("1/3*x1")], LINEAR)


def test_mixed_universe_rejected():
    space = PolynomialSpace(U)
    with pytest.raises(ValueError):
        space.insert(parse_polynomial("x1", xy_universe(1)))


def coeffs():
    return st.integers(min_value=-5, max_value=5)


def vectors():
    # polynomials supported on x1, y1, x2, y2, constant-free analogue:
    # dense 4-vectors of ints keep the oracle simple
    return st.lists(coeffs(), min_size=4, max_size=4)


def as_poly(vec):
    out = Polynomial.zero(U)
    for v, c in enumerate(vec):
        if c:
            out = out + Polynomial.variable(U, v).scale(c)
    return out


def solve(columns, rhs):
    """x with sum(x[j] * columns[j]) == rhs, or None, by Gauss-Jordan
    elimination over Fractions; the columns must be independent."""
    k = len(columns)
    rows = [[Fraction(col[r]) for col in columns] + [Fraction(rhs[r])]
            for r in range(len(rhs))]
    for c in range(k):
        p = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[j][k] for j in range(k)]


def reference_relations(vecs):
    """Dense oracle: vector i is dependent iff it lies in the span of the
    independent vectors before it, and its relation writes it in terms of
    them (unique up to scale), as coprime integers with a positive first
    entry."""
    indep = []
    out = []
    for i, vec in enumerate(vecs):
        x = solve([vecs[j] for j in indep], vec)
        if x is None:
            indep.append(i)
            continue
        rel = {j: -c for j, c in zip(indep, x) if c}
        rel[i] = Fraction(1)
        den = lcm(*(c.denominator for c in rel.values()))
        ints = {j: int(c * den) for j, c in rel.items()}
        g = reduce(gcd, ints.values())
        if ints[min(ints)] < 0:
            g = -g
        out.append({j: ints[j] // g for j in sorted(ints)})
    return out


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(), min_size=1, max_size=6))
def test_rank_nullity_and_exact_recombination(vecs):
    polys = [as_poly(v) for v in vecs]
    rels = nullspace_combinations(polys, LINEAR)
    assert rank(polys) + len(rels) == len(polys)
    for rel in rels:
        total = Polynomial.zero(U)
        for i, c in rel.items():
            total = total + polys[i].scale(c)
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
    before = len(nullspace_combinations(polys, LINEAR))
    after = len(nullspace_combinations(polys + [planted], LINEAR))
    assert after == before + 1


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(), min_size=1, max_size=6))
def test_sparse_and_dense_relations_agree(vecs):
    polys = [as_poly(v) for v in vecs]
    sparse = nullspace_combinations(polys, LINEAR)
    assert sparse == reference_relations(vecs)
    for rel in sparse:
        keys = list(rel)
        assert keys == sorted(keys)
        assert all(type(c) is int and c for c in rel.values())
        assert rel[keys[0]] > 0
        assert reduce(gcd, rel.values()) == 1


def fraction_rank(vecs):
    """Rank of dense integer vectors by Gaussian elimination over
    Fractions."""
    rows = [[Fraction(c) for c in vec] for vec in vecs]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(coeffs(), min_size=width, max_size=width), max_size=7)))
def test_rank_up_to_matches_fraction_elimination(vecs):
    want = fraction_rank(vecs)
    rows = [{j: c for j, c in enumerate(vec) if c} for vec in vecs]
    assert rank_up_to(RowSpace().insert_row, rows) == want
    drawn = Drawn(rows)
    assert rank_up_to(RowSpace().insert_row, drawn, want) == want
    # the last row drawn is the one that reached the ceiling
    if want:
        assert fraction_rank(vecs[:drawn.count - 1]) == want - 1
    else:
        assert drawn.count == 0
