"""Ring layer: monomials, polynomials, parsing."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv.dihedral import gl_act_xy, xy_monomials
from dihedralinv.exactpoly import (
    Polynomial,
    VariableUniverse,
    compositions,
    divided_monomial,
    grlex_key,
    monomial,
    monomial_degree,
    monomial_multidegree,
    monomial_product,
    pair,
    parse_polynomial,
    renamed_monomial,
    rhopi_universe,
    xy_universe,
)
from dihedralinv.exactpoly.groebner import divides, lcm, quotient
from dihedralinv.exactpoly.rings import _PAIRS
from dihedralinv.freealgebra import FreeElement, free_algebra

U2 = xy_universe(2)


def P(text, universe=U2):
    return parse_polynomial(text, universe)


# ---------------------------------------------------------------------------
# compositions


def test_compositions_descending_lex():
    assert list(compositions(2, 3)) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


@pytest.mark.parametrize("total,parts", [(0, 1), (3, 2), (4, 3), (5, 4)])
def test_compositions_count(total, parts):
    out = list(compositions(total, parts))
    assert len(out) == comb(total + parts - 1, parts - 1)
    assert len(set(out)) == len(out)
    assert all(sum(c) == total and len(c) == parts for c in out)


# ---------------------------------------------------------------------------
# universes


def test_xy_universe_layout():
    assert U2.names() == ("x1", "y1", "x2", "y2")
    assert U2.weight(0) == (1, 0) and U2.weight(1) == (1, 0)
    assert U2.weight(2) == (0, 1) and U2.weight(3) == (0, 1)
    assert all(U2.degree(v) == 1 for v in range(4))
    assert U2.index("y2") == 3


def test_rhopi_universe_layout():
    U = rhopi_universe(3, 2)
    # quadratic symbols first, then the degree-n ones, descending lex
    assert U.names()[:3] == ("rho[2,0]", "rho[1,1]", "rho[0,2]")
    assert U.names()[3:] == ("pi[3,0]", "pi[2,1]", "pi[1,2]", "pi[0,3]")
    assert U.degree(0) == 2 and U.degree(3) == 3
    assert U.weight(U.index("pi[2,1]")) == (2, 1)


def test_universe_caching():
    assert xy_universe(2) is U2
    assert rhopi_universe(4, 3) is rhopi_universe(4, 3)


# ---------------------------------------------------------------------------
# monomials


def test_monomial_arithmetic():
    a = monomial_product(((0, 2),), ((1, 1),))
    b = monomial_product(((1, 1),), ((2, 3),))
    assert dict(monomial_product(a, b))[1] == 2
    assert monomial_degree(a) == 3
    assert not divides(a, b)
    assert quotient(lcm(a, b), a) == ((2, 3),)
    with pytest.raises(ValueError):
        quotient(b, a)


@pytest.mark.parametrize("pairs", [[(0, -1)], [(1, 2), (1, 1)],
                                   [(2, 1), (0, 1), (2, 3)]],
                         ids=["negative", "repeat", "repeat-unsorted"])
def test_monomial_rejects_non_canonical_pairs(pairs):
    with pytest.raises(ValueError):
        monomial(pairs)


def test_monomial_accepts_any_order_and_zero_exponents():
    assert monomial([(3, 1), (0, 0), (1, 2)]) == ((1, 2), (3, 1))


@pytest.mark.parametrize("pairs", [[(0, 2.0)], [(1.0, 2)], [(0, "2")]],
                         ids=["float-exponent", "float-variable", "string"])
def test_monomial_refuses_non_integer_pairs(pairs):
    # a float pair would enter the process-wide pair table and stand for
    # its int value in every later monomial
    with pytest.raises(TypeError):
        monomial(pairs)


def test_monomial_grlex_order():
    monos = [(), ((0, 2),), monomial_product(((1, 1),), ((2, 1),)),
             ((3, 1),)]
    ordered = sorted(monos, key=lambda mo: grlex_key(mo, 4), reverse=True)
    degrees = [monomial_degree(mo) for mo in ordered]
    assert degrees == sorted(degrees, reverse=True)
    assert ordered[-1] == ()


def test_monomial_multidegree():
    mono = monomial_product(((0, 2),), ((3, 1),))  # x1^2 * y2
    assert monomial_multidegree(mono, U2) == (2, 1)


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_basic_identities():
    f = P("x1^2 + 2*x1*y1")
    g = P("y1 - x1")
    assert f + g - g == f
    assert f * Polynomial.zero(U2) == Polynomial.zero(U2)
    assert f * Polynomial.constant(U2, 1) == f
    assert (f * g) * g == f * (g * g)
    assert f.scale(Fraction(1, 2)).scale(2) == f


def test_polynomial_pow():
    f = P("x1 + y2")
    assert f ** 3 == f * f * f
    assert f ** 0 == Polynomial.constant(U2, 1)


def test_degree_and_homogeneity():
    f = P("x1^2*y2 + x2^3")
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert f.multidegree() is None  # mixed multidegree
    g = P("x1*y1 + 2*x1^2")
    assert g.multidegree() == (2, 0)
    assert not P("x1 + x1^2").is_homogeneous()


def test_coefficient_lookup():
    f = P("3*x1^2 - 1/2*y2")
    assert f.coefficient(((0, 2),)) == 3
    assert f.coefficient(((3, 1),)) == Fraction(-1, 2)
    assert f.coefficient(()) == 0


def test_substitute():
    f = P("x1^2 + x2")
    image = f.substitute({0: P("y1 + y2")})
    assert image == P("y1^2 + 2*y1*y2 + y2^2 + x2")


def test_permute_variables_roundtrip():
    f = P("x1^2*y2 + x2*y1")
    swap = {0: 2, 2: 0, 1: 3, 3: 1}
    assert f.permute_variables(swap).permute_variables(swap) == f


def test_mixed_universe_rejected():
    with pytest.raises(ValueError):
        P("x1") + parse_polynomial("x1", xy_universe(1))


X1 = ((0, 1),)


@pytest.mark.parametrize("make", [
    lambda: Polynomial(U2, {X1: 0.1}),
    lambda: Polynomial(U2, {X1: "1/3"}),
    lambda: Polynomial.constant(U2, 0.5),
    lambda: Polynomial.from_monomial(U2, X1, 0.25),
    lambda: P("x1").scale(0.1),
    lambda: P("x1") * 0.5,
    lambda: 0.5 * P("x1"),
], ids=["init-float", "init-str", "constant", "from_monomial", "scale",
        "mul", "rmul"])
def test_non_exact_coefficients_rejected(make):
    # a float would silently become a nearby binary rational
    with pytest.raises(TypeError):
        make()


# ---------------------------------------------------------------------------
# parsing / printing


def test_parse_fixtures():
    assert str(P("1/2*x1*y2 + 1/2*y1*x2")) == "1/2*x1*y2 + 1/2*y1*x2"
    assert str(P("x1 - y1")) == "x1 - y1"
    assert str(Polynomial.zero(U2)) == "0"
    assert P("-x1 + -2*y1") == P("-1*x1 - 2*y1")
    assert P("x1^4 + -1*y1^4") == P("x1^4 - y1^4")


@pytest.mark.parametrize("bad", ["x3", "x1^", "x1 -", "2x1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        P(bad)


def coeffs():
    return st.fractions(min_value=-8, max_value=8,
                        max_denominator=6).filter(bool)


def monomials(nvars=4, max_exp=3):
    return st.lists(
        st.tuples(st.integers(0, nvars - 1), st.integers(1, max_exp)),
        max_size=3,
    ).map(lambda pairs: monomial({v: e for v, e in pairs}.items()))


def polys(universe=U2):
    return st.lists(st.tuples(monomials(universe.nvars), coeffs()),
                    max_size=5).map(
        lambda terms: sum(
            (Polynomial.from_monomial(universe, mo, c) for mo, c in terms),
            Polynomial.zero(universe)))


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == Polynomial.zero(U2)


@settings(max_examples=150, deadline=None)
@given(polys())
def test_parse_print_roundtrip(f):
    assert parse_polynomial(str(f), U2) == f


# ---------------------------------------------------------------------------
# stored forms: canonical monomials, integer-first coefficients


def assert_canonical(mono):
    """A monomial built without validation must be a tuple of pair tuples
    (so it hashes) equal to its validated copy: variables strictly
    increasing, exponents positive."""
    assert type(mono) is tuple
    assert all(type(pair) is tuple and len(pair) == 2 for pair in mono)
    assert monomial(mono) == mono
    variables = [v for v, _ in mono]
    assert all(a < b for a, b in zip(variables, variables[1:]))
    assert all(type(e) is int and e > 0 for _, e in mono)


@settings(max_examples=150, deadline=None)
@given(monomials(), monomials())
def test_monomial_arithmetic_stays_canonical(a, b):
    product = monomial_product(a, b)
    for mono in (product, lcm(a, b), quotient(product, b),
                 quotient(product, a), quotient(a, a)):
        assert_canonical(mono)
    assert quotient(a, a) == ()
    assert quotient(product, b) == a


raw_pairs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     max_size=4, unique_by=lambda p: p[0])


@settings(max_examples=150, deadline=None)
@given(raw_pairs, raw_pairs, st.permutations(range(4)))
def test_monomial_operations_build_table_pairs(raw_a, raw_b, perm):
    # each result equals its value-level reference, and each pair in it is
    # the pair table's object, whatever objects the input pairs were
    a, b = monomial(raw_a), monomial(raw_b)
    assert a == tuple(sorted((v, e) for v, e in raw_a if e))
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    product = monomial_product(a, b)
    assert product == tuple(sorted(exps.items()))
    var_map = dict(enumerate(perm))
    fresh = tuple((v, e + 0) for v, e in a)
    renamed = renamed_monomial(fresh, var_map)
    assert renamed == tuple(sorted((var_map[v], e) for v, e in a))
    for mono in (a, b, product, renamed, lcm(a, b), quotient(product, b)):
        assert all(_PAIRS.get(p) is p for p in mono)
    assert all(pair(*p) is p for p in a)


@settings(max_examples=100, deadline=None)
@given(raw_pairs)
def test_divided_monomial_drops_one_factor(raw):
    # the quotient by the variable of each pair is canonical, built from
    # the pair table's objects, and gives the monomial back times it
    mono = monomial(raw)
    for i, (v, _) in enumerate(mono):
        divided = divided_monomial(mono, i)
        assert_canonical(divided)
        assert all(_PAIRS.get(p) is p for p in divided)
        assert monomial_product(divided, monomial([(v, 1)])) == mono


@settings(max_examples=100, deadline=None)
@given(polys(), st.permutations(range(4)))
def test_permute_variables_stays_canonical(f, perm):
    var_map = dict(enumerate(perm))
    inverse = {w: v for v, w in var_map.items()}
    image = f.permute_variables(var_map)
    for mono in image.terms:
        assert_canonical(mono)
    assert image.permute_variables(inverse) == f


@st.composite
def small_algebra_weights(draw):
    """(n, m, alpha) with n in 3..5, m in 1..3 and |alpha| <= 8."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(1, 3))
    alpha = tuple(draw(st.integers(0, 8 // m)) for _ in range(m))
    return n, m, alpha


@settings(max_examples=60, deadline=None)
@given(small_algebra_weights())
def test_enumerated_and_shifted_monomials_are_canonical(nm_alpha):
    n, m, alpha = nm_alpha
    A = free_algebra(n, m)
    monos = A.monomials_of_weight(alpha)
    for mono in monos:
        assert_canonical(mono)
    if not monos:
        return
    e = FreeElement(A, Polynomial(A.universe, {mono: 1 for mono in monos}))
    for u in range(1, m + 1):
        for v in range(1, m + 1):
            for mono in A.gl_act((u, v), e).poly.terms:
                assert_canonical(mono)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_coordinate_monomials_are_canonical(alpha):
    m = len(alpha)
    monos = xy_monomials(m, alpha)
    for mono in monos:
        assert_canonical(mono)
    f = Polynomial(xy_universe(m), {mono: 1 for mono in monos})
    for u in range(1, m + 1):
        for v in range(1, m + 1):
            for mono in gl_act_xy(f, u, v).terms:
                assert_canonical(mono)


def assert_stored_coefficients(f):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), coeffs())
def test_coefficients_are_int_unless_fractional(f, g, c):
    half = f.scale(Fraction(1, 2))
    for p in (f, g, f + g, f - g, -f, f * g, f.scale(c), f ** 2, half,
              half + half, half * Polynomial.constant(U2, 2), c * g,
              parse_polynomial(str(f), U2)):
        assert_stored_coefficients(p)
    assert half + half == f
    assert type(f.coefficient(((3, 7),))) is int


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(monomials(), st.integers(-6, 6), max_size=5))
def test_int_and_fraction_input_agree(terms):
    a = Polynomial(U2, terms)
    b = Polynomial(U2, {mono: Fraction(c) for mono, c in terms.items()})
    assert a == b
    assert a.text() == b.text()
    assert [type(c) for c in a.terms.values()] \
        == [type(c) for c in b.terms.values()]
    assert a.scale(3) == b.scale(Fraction(3))
