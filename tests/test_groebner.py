"""Buchberger, normal forms, staircases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from dihedralinv.exactpoly import (
    MonomialOrder,
    Polynomial,
    buchberger,
    leading_term,
    monomial_text,
    normal_form,
    parse_polynomial,
    s_polynomial,
    staircase_generating_function,
    staircase_monomials,
    xy_universe,
)

U = xy_universe(1)  # variables x1, y1
LEX_Y_FIRST = MonomialOrder([1, 0])  # y1 most significant, i.e. x < y
LEX_X_FIRST = MonomialOrder([0, 1])  # x1 most significant


def P(text):
    return parse_polynomial(text, U)


def fixture_basis(n):
    return buchberger([P("x1*y1"), P("x1^%d + y1^%d" % (n, n))], LEX_Y_FIRST)


def test_leading_terms_under_orders():
    f = P("x1^3 + y1^2")
    assert monomial_text(leading_term(f, LEX_X_FIRST)[0], U) == "x1^3"
    assert monomial_text(leading_term(f, LEX_Y_FIRST)[0], U) == "y1^2"
    with pytest.raises(ValueError):
        leading_term(Polynomial.zero(U), LEX_Y_FIRST)


def test_fixture_groebner_basis():
    basis = fixture_basis(4)
    assert set(map(str, basis)) == {"x1*y1", "x1^4 + y1^4", "x1^5"}
    initials = {monomial_text(leading_term(g, LEX_Y_FIRST)[0], U)
                for g in basis}
    assert initials == {"x1*y1", "y1^4", "x1^5"}


def test_integer_input_stays_exact():
    # integer coefficients divided by integer leading coefficients must give
    # Fractions, never floats; the leading coefficients 2 and 3 force it
    gens = [P("2*x1*y1"), P("x1^4 + 3*y1^4")]
    produced = [s_polynomial(gens[0], gens[1], LEX_Y_FIRST),
                normal_form(P("x1^5*y1 + 5*y1^5"), gens, LEX_Y_FIRST)]
    produced += buchberger(gens, LEX_Y_FIRST)
    for f in produced:
        for c in f.terms.values():
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), c
    assert set(map(str, produced[2:])) == {
        "x1*y1", "1/3*x1^4 + y1^4", "x1^5"}


@pytest.mark.parametrize("n", range(3, 9))
def test_fixture_staircase(n):
    basis = fixture_basis(n)
    stairs = staircase_monomials(basis, LEX_Y_FIRST)
    assert len(stairs) == 2 * n
    genf = staircase_generating_function(stairs)
    assert genf == [1] + [2] * (n - 1) + [1]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_buchberger_criterion_post_hoc(n):
    _assert_criterion(fixture_basis(n), LEX_Y_FIRST)


def test_buchberger_criterion_second_ideal():
    for order in (LEX_X_FIRST, LEX_Y_FIRST):
        _assert_criterion(
            buchberger([P("x1^2 + y1"), P("x1*y1 + x1")], order), order)


def _assert_criterion(basis, order):
    # every S-polynomial of the returned basis reduces to zero
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            assert normal_form(s_polynomial(f, g, order),
                               basis, order).is_zero()


def _reduced_case(case):
    """(basis, order) of a named ideal."""
    if case.startswith("fixture-n"):
        return fixture_basis(int(case[len("fixture-n"):])), LEX_Y_FIRST
    if case.startswith("second-"):
        order = LEX_X_FIRST if case == "second-x-first" else LEX_Y_FIRST
        return buchberger([P("x1^2 + y1"), P("x1*y1 + x1")], order), order
    # over x1, y1, x2, y2: reducing against the other generators changes
    # the basis that Buchberger's pairs leave here
    U2 = xy_universe(2)
    order = MonomialOrder([0, 2, 1, 3])
    return buchberger([parse_polynomial(text, U2) for text in
                       ("x1*x2 - y1", "x1^2 - x2", "x1*y2 - 1")],
                      order), order


@pytest.mark.parametrize("case", ["fixture-n%d" % n for n in range(3, 9)]
                         + ["second-x-first", "second-y-first",
                            "two-vectors"])
def test_buchberger_returns_a_reduced_basis(case):
    # each generator is monic and no term of it reduces by the others
    basis, order = _reduced_case(case)
    for i, g in enumerate(basis):
        assert leading_term(g, order)[1] == 1
        assert normal_form(g, basis[:i] + basis[i + 1:], order) == g


def test_normal_form_idempotent_and_member():
    basis = fixture_basis(4)
    f = P("x1^6 + x1^2*y1^3 + y1^5 + x1 + 1")
    r = normal_form(f, basis, LEX_Y_FIRST)
    assert normal_form(r, basis, LEX_Y_FIRST) == r
    assert normal_form(f - r, basis, LEX_Y_FIRST).is_zero()


def test_zero_generator_rejected():
    with pytest.raises(ValueError):
        buchberger([P("x1"), Polynomial.zero(U)], LEX_Y_FIRST)


def test_mixed_universes_rejected():
    other = parse_polynomial("x1", xy_universe(2))
    with pytest.raises(ValueError):
        buchberger([P("x1*y1"), other], LEX_Y_FIRST)


def test_staircase_cap_on_positive_dimensional_ideal():
    # (x1^2) alone leaves infinitely many standard monomials
    with pytest.raises(ValueError):
        staircase_monomials([P("x1^2")], LEX_Y_FIRST)


def small_polys():
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda e: P("x1^%d*y1^%d" % e) if e != (0, 0)
        else Polynomial.constant(U, 1))
    term = st.tuples(monos, st.integers(-4, 4).filter(bool))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum((mo.scale(c) for mo, c in ts), Polynomial.zero(U)))


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys())
def test_ideal_members_reduce_to_zero(a, b):
    basis = fixture_basis(3)
    member = a * basis[0] + b * basis[1]
    assert normal_form(member, basis, LEX_Y_FIRST).is_zero()
