"""Dihedral group action, polarized generators, invariance oracles."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv import kernelcalc
from dihedralinv.dihedral import (
    DihedralParams,
    all_multidegrees,
    cyclic_invariant_basis,
    cyclic_invariant_dimension,
    decreasing_multidegrees,
    gl_act_xy,
    invariant_basis,
    invariant_dimension,
    is_invariant,
    is_rotation_invariant,
    multinomial,
    p_pol,
    polarize,
    q_pol,
    rotation_weight,
    s_act_xy,
    swap_xy,
    x_index,
    xy_monomials,
    y_index,
)
from dihedralinv.exactpoly import (
    Polynomial,
    PolynomialSpace,
    grlex_key,
    monomial,
    monomial_multidegree,
    parse_polynomial,
    xy_universe,
)
from dihedralinv.exactpoly.rings import _PAIRS
from dihedralinv.freealgebra import free_algebra, make_R222
from dihedralinv.gltheory import hilbert_h


def parse(m, text):
    return parse_polynomial(text, xy_universe(m))


def from_y_vectors(alpha, element):
    """A basis element given as the y-exponent vectors of its monomials
    (coefficient 1 each), as a polynomial of multidegree alpha."""
    return Polynomial(xy_universe(len(alpha)), {
        monomial([(x_index(i), a - b) for i, (a, b)
                  in enumerate(zip(alpha, ys), start=1)]
                 + [(y_index(i), b) for i, b in enumerate(ys, start=1)]): 1
        for ys in element})


def test_params_validation():
    DihedralParams(3, 1)
    with pytest.raises(ValueError):
        DihedralParams(2, 2)
    with pytest.raises(ValueError):
        DihedralParams(4, 0)


def test_params_refuse_non_integers():
    # a float n would count rotation residues modulo 4.5; neither field is
    # truncated
    for n, m in [(4.5, 2), (4, 2.0), (4.0, 3)]:
        with pytest.raises(TypeError):
            DihedralParams(n, m)


def test_multidegree_enumeration():
    assert list(all_multidegrees(2, 3)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(decreasing_multidegrees(3, 4)) == [
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    assert multinomial(4, (2, 1, 1)) == 12


def test_multidegree_enumeration_needs_a_slot():
    # with no slot the recursions would never reach their one-slot base
    # case, so the slot count is checked before anything is enumerated
    for enumeration in (all_multidegrees, decreasing_multidegrees):
        with pytest.raises(ValueError, match="need m >= 1"):
            enumeration(0, 3)
    with pytest.raises(ValueError, match="need m >= 1"):
        kernelcalc.minimal_generators_by_degree(4, 0, 4)


def test_xy_monomials_order_and_count():
    monos = list(xy_monomials(2, (2, 1)))
    # each slot splits its share between x and y: 3 * 2 choices
    assert len(monos) == 6
    assert len(set(monos)) == 6
    U = xy_universe(2)
    assert all(monomial_multidegree(mono, U) == (2, 1) for mono in monos)
    # descending lex in the x-exponent vector: x1^2*x2 first, y1^2*y2 last
    x1, y1, x2, y2 = range(4)
    assert monos[0] == monomial([(x1, 2), (x2, 1)])
    assert monos[1] == monomial([(x1, 2), (y2, 1)])
    assert monos[-1] == monomial([(y1, 2), (y2, 1)])


def test_xy_monomials_are_in_stored_form():
    # the columns are joined from per-slot pair tables: no zero exponent
    # and no pair out of variable order, empty slots included
    for m in range(1, 5):
        for total in range(11):
            for alpha in all_multidegrees(m, total):
                for mono in xy_monomials(m, alpha):
                    assert monomial(mono) == mono, (alpha, mono)
    assert xy_monomials(2, (0, 0)) == [()]
    assert xy_monomials(2, (3, -1)) == []


def test_coordinate_ring_pairs_are_the_pair_tables_objects():
    # the columns, the polarized generators and the polarization operators
    # store each (variable, exponent) pair as the pair table's object
    monos = []
    for m in range(1, 4):
        for alpha in all_multidegrees(m, 6):
            columns = xy_monomials(m, alpha)
            f = Polynomial(xy_universe(m), {mono: 1 for mono in columns})
            monos += columns
            monos += [mono for u in range(1, m + 1) for v in range(1, m + 1)
                      for mono in gl_act_xy(f, u, v).terms]
        for alpha in all_multidegrees(m, 2):
            monos += q_pol(alpha).terms
        for beta in all_multidegrees(m, 5):
            monos += p_pol(beta).terms
    pairs = [p for mono in monos for p in mono]
    assert all(_PAIRS.get(p) is p for p in pairs)


def test_xy_monomials_are_in_descending_grlex():
    # the kernel and Hironaka code use this order as the column order: all
    # monomials of one multidegree share a degree and y_i = alpha_i - x_i,
    # so descending grlex is descending lex on the x-exponents.  The
    # Hironaka verifier codes a column by its y-exponents alone, in a radix
    # above every exponent; the codes must strictly increase along this
    # list, which is what fixes the pivots
    for m in range(1, 5):
        universe = xy_universe(m)
        for total in range(11):
            places = kernelcalc._places(m, total + 1)
            for alpha in all_multidegrees(m, total):
                monos = xy_monomials(m, alpha)
                assert monos == sorted(
                    monos, key=lambda mo: grlex_key(mo, 2 * m),
                    reverse=True), alpha
                codes = []
                for mo in monos:
                    [(code, c)] = kernelcalc._coded(kernelcalc._y_terms(
                        Polynomial.from_monomial(universe, mo)), places)
                    assert c == 1
                    codes.append(code)
                assert all(a < b for a, b in zip(codes, codes[1:])), alpha


# ---------------------------------------------------------------------------
# polarized generators


def test_q_pol_fixtures():
    assert str(q_pol((2, 0))) == "x1*y1"
    assert str(q_pol((0, 2))) == "x2*y2"
    assert q_pol((1, 1)) == parse(2, "1/2*x1*y2 + 1/2*x2*y1")
    with pytest.raises(ValueError):
        q_pol((2, 1))
    with pytest.raises(ValueError):
        q_pol((1, 1, 1))


def test_p_pol_fixtures():
    assert p_pol((4,)) == parse(1, "x1^4 + y1^4")
    assert p_pol((3, 1)) == parse(2, "x1^3*x2 + y1^3*y2")
    assert p_pol((2, 2)) == parse(2, "x1^2*x2^2 + y1^2*y2^2")
    assert p_pol((1, 1, 1)) == parse(3, "x1*x2*x3 + y1*y2*y3")
    assert p_pol((1, 0)) == parse(2, "x1 + y1")
    with pytest.raises(ValueError):
        p_pol(())


def test_generators_are_invariant():
    for n, m in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        params = DihedralParams(n, m)
        for alpha in all_multidegrees(m, 2):
            assert is_invariant(q_pol(alpha), params)
        for beta in all_multidegrees(m, n):
            assert is_invariant(p_pol(beta), params)


def test_polarize_recovers_q_and_p():
    # the named generator polarizations against the generic polarization
    # of the degree-2 and degree-n binary forms
    q = parse(1, "x1*y1")
    pieces = polarize(q, 3)
    assert set(pieces) == set(all_multidegrees(3, 2))
    for alpha, piece in pieces.items():
        assert piece == q_pol(alpha), alpha
    for n in (3, 4, 5):
        p = parse(1, "x1^%d + y1^%d" % (n, n))
        pieces = polarize(p, 2)
        for beta, piece in pieces.items():
            assert piece == p_pol(beta), beta


def test_polarize_validation():
    with pytest.raises(ValueError):
        polarize(parse(1, "x1^2 + y1"), 2)
    with pytest.raises(ValueError):
        polarize(parse(2, "x1*x2"), 2)
    assert polarize(Polynomial.zero(xy_universe(1)), 2) == {}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 4)),
                min_size=1, max_size=4),
       st.integers(1, 3))
def test_polarize_reassembles(pairs, m):
    # summing binom(d, alpha) * g_alpha over alpha recovers g evaluated at
    # the variable sums
    d = 5
    U1 = xy_universe(1)
    g = Polynomial.zero(U1)
    for k, c in pairs:
        g = g + parse(1, "x1^%d*y1^%d" % (k, d - k)).scale(c)
    pieces = polarize(g, m)
    Um = xy_universe(m)
    sx = sum((Polynomial.variable(Um, 2 * i) for i in range(m)),
             Polynomial.zero(Um))
    sy = sum((Polynomial.variable(Um, 2 * i + 1) for i in range(m)),
             Polynomial.zero(Um))
    expanded = g.substitute({0: sx, 1: sy})
    total = Polynomial.zero(Um)
    for alpha, piece in pieces.items():
        total = total + piece.scale(multinomial(d, alpha))
    assert total == expanded


# ---------------------------------------------------------------------------
# invariance oracles


def test_rotation_weight_and_swap():
    U = xy_universe(2)
    f = parse(2, "x1^3*y2")
    (mono,) = f.terms
    assert rotation_weight(mono) == 2
    assert swap_xy(f) == parse(2, "y1^3*x2")
    assert swap_xy(swap_xy(f)) == f


def test_is_invariant_fixtures():
    params = DihedralParams(4, 2)
    assert is_invariant(parse(2, "x1*y1"), params)
    assert is_invariant(parse(2, "x1^4 + y1^4"), params)
    assert not is_invariant(parse(2, "x1^4"), params)        # swap fails
    assert not is_invariant(parse(2, "x1^2 + y1^2"), params)  # rotation fails
    assert is_rotation_invariant(parse(2, "x1^4"), params)
    assert not is_rotation_invariant(parse(2, "x1^3*y2"), params)


def test_invariant_dimension_needs_full_multidegree():
    with pytest.raises(ValueError):
        invariant_dimension(DihedralParams(4, 3), (2, 2))
    with pytest.raises(ValueError):
        cyclic_invariant_dimension(DihedralParams(4, 3), (2,))


@pytest.mark.parametrize("query", [
    lambda: invariant_basis(DihedralParams(4, 3), (2, 2)),
    lambda: cyclic_invariant_basis(DihedralParams(4, 3), (2, 2)),
    lambda: xy_monomials(3, (2, 2)),
    lambda: kernelcalc.TruncatedIdeal([make_R222(4, 3)]).spanning_polys(
        (2, 2, 2, 5)),
], ids=["invariant_basis", "cyclic_invariant_basis", "xy_monomials",
        "spanning_polys"])
def test_multidegree_length_must_be_m(query):
    # a short multidegree would answer for a two-slot one, and a long one
    # for its first m entries
    with pytest.raises(ValueError, match="multidegree length"):
        query()


@pytest.mark.parametrize("alpha, two", [((2.9, 2.2, 2.5), (1.9, 1.2, 0)),
                                        ("222", "110")])
def test_multidegree_entries_must_be_integers(alpha, two):
    # int() would truncate the floats and parse the digits, so each query
    # would answer for (2, 2, 2), or (1, 1, 0) where the total must be 2
    A = free_algebra(4, 3)
    queries = [lambda: kernelcalc.kernel_basis_at(4, 3, alpha),
               lambda: A.count_of_weight(alpha),
               lambda: A.monomials_of_weight(alpha),
               lambda: invariant_dimension(DihedralParams(4, 3), alpha),
               lambda: q_pol(two)]
    for query in queries:
        with pytest.raises(TypeError, match="as an integer"):
            query()


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 2), (5, 2), (4, 3)])
def test_invariant_basis_matches_dimension(n, m):
    params = DihedralParams(n, m)
    for total in range(0, 2 * n + 1):
        for alpha in all_multidegrees(m, total):
            basis = [from_y_vectors(alpha, b)
                     for b in invariant_basis(params, alpha)]
            assert len(basis) == invariant_dimension(params, alpha)
            for f in basis:
                assert is_invariant(f, params)
                assert f.multidegree() == alpha
            space = PolynomialSpace(xy_universe(m))
            for f in basis:
                assert space.insert(f)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_vector_dimensions_match_series(n):
    # single plane vector: multigraded dimensions against the rational
    # series 1/((1-t^2)(1-t^n))
    params = DihedralParams(n, 1)
    for d in range(0, 3 * n):
        assert invariant_dimension(params, (d,)) == hilbert_h(n, d)


def test_cyclic_dimension_brute_force():
    params = DihedralParams(4, 2)
    for total in range(0, 9):
        for alpha in all_multidegrees(2, total):
            monos = [mono for mono in xy_monomials(2, alpha)
                     if rotation_weight(mono) % 4 == 0]
            assert cyclic_invariant_dimension(params, alpha) == len(monos)
            basis = [from_y_vectors(alpha, b)
                     for b in cyclic_invariant_basis(params, alpha)]
            assert basis == [Polynomial.from_monomial(xy_universe(2), mono)
                             for mono in monos]
            for f in basis:
                assert is_rotation_invariant(f, params)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dimensions_are_symmetric_under_slot_permutations(n):
    # the Hironaka series check reads every multidegree's dimension off its
    # weakly decreasing rearrangement
    for m in range(1, 5):
        params = DihedralParams(n, m)
        for total in range(11):
            for alpha in all_multidegrees(m, total):
                rep = tuple(sorted(alpha, reverse=True))
                assert invariant_dimension(params, alpha) \
                    == invariant_dimension(params, rep)
                assert cyclic_invariant_dimension(params, alpha) \
                    == cyclic_invariant_dimension(params, rep)


def test_dihedral_dimension_halves_cyclic_pairs():
    # swap pairs up the rotation-invariant monomials; only the all-even
    # diagonal monomial is fixed
    params = DihedralParams(4, 3)
    for alpha in all_multidegrees(3, 8):
        cyc = cyclic_invariant_dimension(params, alpha)
        fixed = 1 if all(a % 2 == 0 for a in alpha) else 0
        assert invariant_dimension(params, alpha) == (cyc + fixed) // 2


# ---------------------------------------------------------------------------
# actions on the coordinate ring


def test_s_act_composition():
    f = parse(3, "x1^2*y2 + x3*y3")
    ab = s_act_xy((2, 3, 1), s_act_xy((2, 1, 3), f))
    # composite sends 1 -> 3, 2 -> 2, 3 -> 1
    assert ab == s_act_xy((3, 2, 1), f)
    assert s_act_xy((1, 2, 3), f) == f


def test_s_act_permutes_polarizations():
    assert s_act_xy((2, 1), q_pol((2, 0))) == q_pol((0, 2))
    assert s_act_xy((2, 1, 3), p_pol((3, 1, 0))) == p_pol((1, 3, 0))


def test_gl_act_leibniz():
    f = parse(2, "x1^2*y1")
    g = parse(2, "x2*y1 + y2^2")
    lhs = gl_act_xy(f * g, 1, 2)
    rhs = gl_act_xy(f, 1, 2) * g + f * gl_act_xy(g, 1, 2)
    assert lhs == rhs


def test_gl_act_on_generators():
    # E_{1,2} applied to x2*y2 gives x1*y2 + x2*y1 = 2 * q_{(1,1)}
    assert gl_act_xy(q_pol((0, 2)), 1, 2) == q_pol((1, 1)).scale(2)
    assert gl_act_xy(p_pol((0, 4)), 1, 2) == p_pol((1, 3)).scale(4)
    assert gl_act_xy(q_pol((2, 0)), 1, 2).is_zero()


def test_gl_act_diagonal_scales_by_multidegree():
    f = parse(2, "x1^2*x2*y2^2")
    assert gl_act_xy(f, 1, 1) == f.scale(2)
    assert gl_act_xy(f, 2, 2) == f.scale(3)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6), st.integers(1, 3), st.data())
def test_random_invariants_pass_oracle(n, m, data):
    # symmetrized monomial bases stay invariant under random recombination
    params = DihedralParams(n, m)
    total = data.draw(st.integers(0, n + 2))
    alpha = data.draw(st.sampled_from(list(all_multidegrees(m, total))))
    basis = [from_y_vectors(alpha, b) for b in invariant_basis(params, alpha)]
    if not basis:
        return
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                max_size=len(basis)))
    f = Polynomial.zero(xy_universe(m))
    for c, b in zip(coeffs, basis):
        f = f + b.scale(c)
    assert is_invariant(f, params)
