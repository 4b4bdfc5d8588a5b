"""The free presentation ring, its gl_m action, and the named relations."""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv import freealgebra, kernelcalc
from dihedralinv.cli import named_relations
from dihedralinv.exactpoly import (
    Polynomial,
    PolynomialSpace,
    monomial,
    parse_polynomial,
    renamed_monomial,
)
from dihedralinv.exactpoly.rings import _PAIRS
from dihedralinv.dihedral import (
    DihedralParams,
    all_multidegrees,
    apply_perm,
    decreasing_multidegrees,
    gl_act_xy,
    is_invariant,
    p_pol,
    q_pol,
    s_act_xy,
)
from dihedralinv.freealgebra import (
    FreeAlgebra,
    FreeElement,
    free_algebra,
    is_highest_weight,
    make_R222,
    make_R_2n2k,
    make_R_n2,
    phi,
    submodule_basis,
)
from dihedralinv.gltheory import kostka, schur_dim, weyl_dim


def test_symbol_constructors():
    A = free_algebra(4, 2)
    assert A.rho((2, 0)).weight() == (2, 0)
    assert A.rho((1, 1)).degree() == 2
    assert A.pi((3, 1)).degree() == 4
    assert A.pi((4,)).weight() == (4, 0)
    with pytest.raises(ValueError):
        A.rho((2, 1))
    with pytest.raises(ValueError):
        A.pi((3, 2))
    with pytest.raises(ValueError):
        A.rho((1, 1, 0))
    with pytest.raises(KeyError):
        # negative entries miss the symbol table
        A.pi((5, -1))


def test_algebra_cache():
    assert free_algebra(4, 3) is free_algebra(4, 3)
    assert free_algebra(4, 3) is not free_algebra(4, 2)


def test_element_arithmetic_guard():
    A, B = free_algebra(4, 2), free_algebra(5, 2)
    with pytest.raises(ValueError):
        A.rho((2, 0)) + B.rho((2, 0))
    assert (3 * A.one()).poly.coefficient(()) == 3
    assert (A.pi((4, 0)) ** 2).degree() == 8


def test_elements_of_different_algebras_do_not_mix():
    # F(4, 2) and F(4, 3) have different symbols, and a private F(4, 2)
    # has the same ones; none of them mixes with the shared F(4, 2), and
    # neither does a bare polynomial
    A = free_algebra(4, 2)
    a = A.rho((2, 0))
    others = [free_algebra(4, 3).rho((2, 0, 0)),
              FreeAlgebra(4, 2).rho((2, 0))]
    for b in others:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="different algebras$"):
                op(a, b)
    with pytest.raises(ValueError, match="different algebras$"):
        a + a.poly


def test_element_rejects_non_exact_scalar():
    rho = free_algebra(4, 2).rho((2, 0))
    with pytest.raises(TypeError):
        rho * 0.1
    with pytest.raises(TypeError):
        0.1 * rho


def test_graded_dimensions_fixture():
    # dimensions of F(4,3) by total degree
    A = free_algebra(4, 3)
    dims = []
    for t in range(11):
        dims.append(sum(len(A.monomials_of_weight(alpha))
                        for alpha in all_multidegrees(3, t)))
    assert dims == [1, 0, 6, 0, 36, 0, 146, 0, 561, 0, 1812]


def test_monomials_of_weight_validation():
    with pytest.raises(ValueError):
        free_algebra(4, 2).monomials_of_weight((2,))
    with pytest.raises(ValueError):
        free_algebra(4, 2).count_of_weight((2,))
    assert free_algebra(4, 2).monomials_of_weight((6, -2)) == []
    assert free_algebra(4, 2).count_of_weight((6, -2)) == 0


def reference_monomials(A, alpha):
    """The enumeration without count pruning or memo: the same recursion,
    trying every exponent of every variable."""
    nvars = A.universe.nvars
    out = []
    acc = []

    def rec(idx, remaining):
        if not any(remaining):
            out.append(monomial(acc))
            return
        if idx == nvars:
            return
        w = A.universe.weight(idx)
        cap = min(r // wi for r, wi in zip(remaining, w) if wi)
        for e in range(cap, 0, -1):
            acc.append((idx, e))
            rec(idx + 1, tuple(r - e * wi for r, wi in zip(remaining, w)))
            acc.pop()
        rec(idx + 1, remaining)

    rec(0, tuple(alpha))
    return out


@st.composite
def small_weights(draw):
    """(n, m, alpha) with n in 3..6, m in 1..4 and |alpha| <= 12."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 4))
    left = draw(st.integers(0, 12))
    alpha = []
    for _ in range(m - 1):
        alpha.append(draw(st.integers(0, left)))
        left -= alpha[-1]
    alpha.append(left)
    return n, m, tuple(alpha)


@settings(max_examples=80, deadline=None)
@given(small_weights())
def test_pruned_enumeration_matches_reference(nm_alpha):
    n, m, alpha = nm_alpha
    A = free_algebra(n, m)
    want = reference_monomials(A, alpha)
    assert A.monomials_of_weight(alpha) == want
    assert A.count_of_weight(alpha) == len(want)


def test_enumeration_memo_changes_no_list():
    # an algebra keeps the enumeration branches of every multidegree it has
    # met: the lists of a fresh algebra, and of one warmed by the same
    # queries in reverse order, are the unmemoised reference's
    alphas = [alpha for total in range(9)
              for alpha in all_multidegrees(3, total)]
    warmed = FreeAlgebra(4, 3)
    for alpha in reversed(alphas):
        warmed.monomials_of_weight(alpha)
    for alpha in alphas:
        want = reference_monomials(warmed, alpha)
        assert FreeAlgebra(4, 3).monomials_of_weight(alpha) == want
        assert warmed.monomials_of_weight(alpha) == want


def test_enumeration_of_a_negative_multidegree_is_empty():
    A = FreeAlgebra(4, 2)
    assert A.monomials_of_weight((6, -2)) == []
    A.monomials_of_weight((6, 2))
    assert A.monomials_of_weight((6, -2)) == []
    assert A.monomials_of_weight((-1, 0)) == []


def test_phi_monomial_deep_power():
    # a fresh algebra, so the image of a high power is built from nothing;
    # it must not recurse once per factor, and it caches every power
    A = FreeAlgebra(3, 1)
    (mono,) = (A.rho((2,)) ** 1500).poly.terms
    image, k = A.phi_monomial(mono)
    assert k == 0
    assert image == q_pol((2,)) ** 1500
    assert len(A._phi_cache) == 1501


def test_phi_monomial_deep_mixed_power():
    # a mixed rho carries the 1/2 of its q: the image is 2^k phi(mono)
    A = FreeAlgebra(3, 2)
    (mono,) = (A.rho((1, 1)) ** 300).poly.terms
    image, k = A.phi_monomial(mono)
    assert k == 300
    assert image == parse_polynomial("x1*y2 + x2*y1", A.xy_universe) ** 300
    assert all(type(c) is int for c in image.terms.values())


def test_count_of_weight_deep_single_slot():
    # a fresh algebra, so one large weight fills the count memo from
    # nothing; the count must not recurse once per unit of weight
    A = FreeAlgebra(3, 1)
    top = 2100
    ways = [1] + [0] * top  # coefficients of prod_v 1/(1 - t^{w_v})
    for v in range(A.universe.nvars):
        (w,) = A.universe.weight(v)
        for k in range(w, top + 1):
            ways[k] += ways[k - w]
    assert A.count_of_weight((top,)) == ways[top] > 0
    assert len(A.monomials_of_weight((top,))) == ways[top]


# ---------------------------------------------------------------------------
# the presentation map


def test_phi_on_symbols():
    A = free_algebra(4, 3)
    assert phi(A.rho((1, 1, 0))) == q_pol((1, 1, 0))
    assert phi(A.rho((0, 0, 2))) == q_pol((0, 0, 2))
    assert phi(A.pi((2, 1, 1))) == p_pol((2, 1, 1))
    assert phi(A.one()).coefficient(()) == 1
    assert phi(A.zero()).is_zero()


def test_phi_multiplicative_fixture():
    A = free_algebra(3, 2)
    e = A.rho((2, 0)) * A.pi((2, 1))
    assert phi(e) == q_pol((2, 0)) * p_pol((2, 1))


elements = st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(2, 3)))


def _monomial_elements(A, weight):
    return [FreeElement(A, Polynomial.from_monomial(A.universe, mo))
            for mo in A.monomials_of_weight(weight)]


@settings(max_examples=60, deadline=None)
@given(elements, st.data())
def test_phi_is_a_ring_map(nm, data):
    n, m = nm
    A = free_algebra(n, m)

    def random_element():
        total = A.zero()
        for _ in range(data.draw(st.integers(1, 2))):
            c = data.draw(st.integers(-2, 2))
            factors = data.draw(st.integers(1, 2))
            term = A.one()
            for _ in range(factors):
                if data.draw(st.booleans()):
                    alpha = data.draw(st.sampled_from(
                        list(all_multidegrees(m, 2))))
                    term = term * A.rho(alpha)
                else:
                    beta = data.draw(st.sampled_from(
                        list(all_multidegrees(m, n))))
                    term = term * A.pi(beta)
            total = total + c * term
        return total

    a, b = random_element(), random_element()
    assert phi(a + b) == phi(a) + phi(b)
    assert phi(a * b) == phi(a) * phi(b)


@settings(max_examples=60, deadline=None)
@given(elements, st.data())
def test_phi_image_is_invariant(nm, data):
    n, m = nm
    A = free_algebra(n, m)
    params = DihedralParams(n, m)
    weight = data.draw(st.sampled_from(
        list(all_multidegrees(m, data.draw(st.sampled_from([2, n, n + 2]))))))
    monos = _monomial_elements(A, weight)
    if not monos:
        return
    e = A.zero()
    for mono in monos:
        e = e + data.draw(st.integers(-2, 2)) * mono
    assert is_invariant(phi(e), params)


# ---------------------------------------------------------------------------
# integer phi images


algebras = st.tuples(st.integers(3, 6), st.integers(1, 4)).map(
    lambda nm: free_algebra(*nm))


def _draw_monomial(draw, A):
    """At most three symbols of A, each to a power in 1..4; half the draws
    come from the rho symbols, so mixed rho powers are common."""
    u = A.universe
    rhos = [v for v in range(u.nvars) if u.degree(v) == 2]
    exps = {}
    for _ in range(draw(st.integers(0, 3))):
        pool = rhos if draw(st.booleans()) else range(u.nvars)
        v = draw(st.sampled_from(pool))
        exps[v] = exps.get(v, 0) + draw(st.integers(1, 4))
    return monomial(exps.items())


@st.composite
def free_monomials(draw):
    A = draw(algebras)
    return A, _draw_monomial(draw, A)


@st.composite
def free_elements(draw):
    """Elements with up to three terms and Fraction coefficients (zero
    included)."""
    A = draw(algebras)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[_draw_monomial(draw, A)] = Fraction(
            draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return FreeElement(A, Polynomial(A.universe, terms))


def _exact_polarizations(A):
    """phi on the symbols, straight from q_pol and p_pol."""
    u = A.universe
    return {v: q_pol(u.weight(v)) if u.degree(v) == 2 else p_pol(u.weight(v))
            for v in range(u.nvars)}


def _is_mixed(A, v):
    u = A.universe
    return u.degree(v) == 2 and 2 not in u.weight(v)


@settings(max_examples=80, deadline=None)
@given(free_monomials())
def test_phi_monomial_is_integral(A_mono):
    # P = 2^k phi(mono), with k the total exponent of mixed rho symbols
    A, mono = A_mono
    image, k = A.phi_monomial(mono)
    assert all(type(c) is int for c in image.terms.values())
    assert k == sum(e for v, e in mono if _is_mixed(A, v))
    oracle = _exact_polarizations(A)
    exact = Polynomial.constant(A.xy_universe, 1)
    for v, e in mono:
        exact = exact * oracle[v] ** e
    assert image == exact.scale(2 ** k)


@settings(max_examples=60, deadline=None)
@given(free_elements())
def test_phi_matches_substitution(e):
    A = e.algebra
    oracle = _exact_polarizations(A)
    assert phi(e) == e.poly.substitute(oracle)
    assert phi(A.zero()) == A.zero().poly.substitute(oracle)
    assert phi(A.zero()).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(1, 3), st.data())
def test_phi_images_in_any_request_order(n, m, data):
    # a fresh algebra asked for the monomials of one multidegree and of
    # every quotient of it by one symbol, in a random order, so a walk may
    # end at any cached quotient: each image is still the product of the
    # symbols' integer polarizations, and k the mixed rho exponent
    A = FreeAlgebra(n, m)
    alpha = data.draw(st.sampled_from(
        list(all_multidegrees(m, data.draw(st.integers(2, 8))))))
    pool = A.monomials_of_weight(alpha)
    for w in dict.fromkeys(A.universe.weight(v)
                           for v in range(A.universe.nvars)):
        pool += A.monomials_of_weight(tuple(map(int.__sub__, alpha, w)))
    oracle = _exact_polarizations(A)
    for mono in data.draw(st.permutations(pool)):
        image, k = A.phi_monomial(mono)
        assert k == sum(e for v, e in mono if _is_mixed(A, v))
        exact = Polynomial.constant(A.xy_universe, 1)
        for v, e in mono:
            exact = exact * oracle[v] ** e
        assert image == exact.scale(2 ** k)


def _walk_sorted_components(A):
    """phi of every monomial of every weakly decreasing multidegree of
    degree <= 10 in A = F(4, 3), in the order `kernel dim` meets them."""
    for d in range(11):
        for alpha in decreasing_multidegrees(3, d):
            for mono in A.monomials_of_weight(alpha):
                A.phi_monomial(mono)


def _counted_products(monkeypatch):
    """A one-item list that counts every Polynomial product from now on."""
    calls = [0]
    mul = Polynomial.__mul__

    def counted(f, g):
        calls[0] += 1
        return mul(f, g)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


def test_phi_walk_ends_at_a_cached_quotient(monkeypatch):
    # only phi_monomial multiplies polynomials in this walk; ending at a
    # cached quotient makes 608 products and caches 609 images, where a
    # walk that only strips the first variable makes 797 and caches 798
    A = FreeAlgebra(4, 3)
    products = _counted_products(monkeypatch)
    _walk_sorted_components(A)
    assert products == [608]
    assert len(A._phi_cache) == 609


def test_a_cached_quotient_costs_one_product(monkeypatch):
    # the quotient of rho[2,0,0] rho[0,2,0] by its second symbol is cached:
    # one product, where stripping the first symbol would cost two
    A = FreeAlgebra(4, 3)
    first, second = A.rho((2, 0, 0)), A.rho((0, 2, 0))
    (quotient,) = first.poly.terms
    (mono,) = (first * second).poly.terms
    A.phi_monomial(quotient)
    products = _counted_products(monkeypatch)
    image, k = A.phi_monomial(mono)
    assert products == [1]
    assert (image, k) == (q_pol((2, 0, 0)) * q_pol((0, 2, 0)), 0)
    assert len(A._phi_cache) == 3


def test_phi_walk_at_m1_caches_no_extra_images():
    # every monomial of F(3, 1) at degree 300 leaves 3 926 cached images, no
    # more than a walk that only strips the first variable leaves
    A = FreeAlgebra(3, 1)
    for mono in A.monomials_of_weight((300,)):
        A.phi_monomial(mono)
    assert len(A._phi_cache) == 3926


def test_branch_rests_are_the_count_memos_keys():
    # each enumeration branch holds the count memo's own key for its rest,
    # so equal rests across the branches are one object
    A = FreeAlgebra(4, 3)
    _walk_sorted_components(A)
    keys = {key: key for key in A._counts}
    rests = [rest for branches in A._children.values()
             for _, _, rest in branches]
    assert len(rests) > len(set(rests))
    assert len({id(rest) for rest in rests}) == len(set(rests))
    assert all(keys[rest] is rest for rest in rests)


def _walked_algebra(monkeypatch):
    """A fresh algebra, with no phi image or kernel basis yet, behind every
    component of degree <= 10, as `kernel dim` walks them."""
    A = FreeAlgebra(4, 3)
    monkeypatch.setattr(kernelcalc, "free_algebra", lambda n, m: A)
    for d in range(11):
        for alpha in all_multidegrees(3, d):
            kernelcalc.kernel_basis_at(4, 3, alpha)
    return A


def test_phi_cache_stays_integral_over_a_kernel_walk(monkeypatch):
    A = _walked_algebra(monkeypatch)
    assert len(A._phi_cache) > 1
    assert all(type(c) is int for image in A._phi_cache.values()
               for c in image.terms.values())


def test_phi_cache_shares_one_monomial_per_value(monkeypatch):
    # equal xy-monomials across the cached images are one object, and the
    # sharing table holds only monomials the images use
    A = _walked_algebra(monkeypatch)
    monos = [mono for image in A._phi_cache.values() for mono in image.terms]
    ids = {id(mono) for mono in monos}
    assert len(monos) > len(ids)
    assert len(ids) == len(set(monos))
    assert {id(mono) for mono in A._phi_monomials.values()} <= ids


def test_stored_pairs_are_the_pair_tables_objects(monkeypatch):
    # a kernel walk (sorted and transported components), the GL-modules of
    # the named relations at m = 3 with phi of each element, and every
    # matrix unit on the relations store each (variable, exponent) pair as
    # the one object the pair table holds for its value
    A = _walked_algebra(monkeypatch)
    monkeypatch.setattr(freealgebra, "free_algebra", lambda n, m: A)
    transported = [e for d in range(11) for alpha in all_multidegrees(3, d)
                   if list(alpha) != sorted(alpha, reverse=True)
                   for e in kernelcalc.kernel_basis_at(4, 3, alpha)]
    elements = [e for basis in A.kernels.values() for e in basis]
    assert transported and elements
    for _, rel, _ in named_relations(4, 3):
        for e in submodule_basis(rel):
            assert phi(e).is_zero()
            elements.append(e)
        elements += [A.gl_act((u, v), rel)
                     for u in range(1, 4) for v in range(1, 4)]
    polys = [e.poly for e in transported + elements]
    polys += A._phi_cache.values()
    monos = list(A._phi_cache) + [mono for f in polys for mono in f.terms]
    pairs = [p for mono in monos for p in mono]
    assert len({id(p) for p in pairs}) == len(set(pairs)) < len(pairs)
    assert all(_PAIRS.get(p) is p for p in pairs)


# ---------------------------------------------------------------------------
# named relations


def test_R222_shape():
    r = make_R222(4, 3)
    assert r.weight() == (2, 2, 2)
    assert r.degree() == 6
    coeffs = sorted(r.poly.terms.values())
    assert coeffs == [-1, -1, -1, 1, 2]
    assert phi(r).is_zero()
    with pytest.raises(ValueError):
        make_R222(4, 2)


def test_R222_any_n():
    # the symmetric determinant only involves the quadratic symbols
    for n in (3, 5, 7):
        assert phi(make_R222(n, 3)).is_zero()


def test_Rn2_explicit():
    A = free_algebra(4, 2)
    expected = (A.pi((4, 0)) * A.rho((0, 2))
                - 2 * A.pi((3, 1)) * A.rho((1, 1))
                + A.pi((2, 2)) * A.rho((2, 0)))
    assert make_R_n2(4, 2) == expected
    assert make_R_n2(4, 2).weight() == (4, 2)
    with pytest.raises(ValueError):
        make_R_n2(4, 1)


def test_R_2n2k_explicit_n4():
    A = free_algebra(4, 2)
    r20, r11, r02 = A.rho((2, 0)), A.rho((1, 1)), A.rho((0, 2))
    expected_k1 = (A.pi((4, 0)) * A.pi((2, 2)) - A.pi((3, 1)) ** 2
                   - 4 * r20 ** 2 * r11 ** 2 + 4 * r20 ** 3 * r02)
    assert make_R_2n2k(4, 1, 2) == expected_k1
    disc = r11 * r11 - r20 * r02
    expected_k2 = (3 * A.pi((2, 2)) ** 2
                   + A.pi((4, 0)) * A.pi((0, 4))
                   - 4 * A.pi((3, 1)) * A.pi((1, 3))
                   - 16 * disc * disc)
    assert make_R_2n2k(4, 2, 2) == expected_k2
    with pytest.raises(ValueError):
        make_R_2n2k(4, 3, 2)
    with pytest.raises(ValueError):
        make_R_2n2k(4, 0, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_relations_vanish(n, m):
    assert phi(make_R_n2(n, m)).is_zero()
    for k in range(1, n // 2 + 1):
        assert phi(make_R_2n2k(n, k, m)).is_zero()


def test_relation_weights():
    assert make_R_n2(5, 3).weight() == (5, 2, 0)
    assert make_R_2n2k(5, 2, 2).weight() == (6, 4)
    assert make_R_2n2k(6, 3, 2).weight() == (6, 6)


# ---------------------------------------------------------------------------
# gl action


def test_gl_act_on_symbols():
    A = free_algebra(4, 2)
    assert A.gl_act((1, 2), A.rho((0, 2))) == 2 * A.rho((1, 1))
    assert A.gl_act((1, 2), A.rho((1, 1))) == A.rho((2, 0))
    assert A.gl_act((1, 2), A.rho((2, 0))).is_zero()
    assert A.gl_act((2, 1), A.pi((3, 1))) == 3 * A.pi((2, 2))


def test_gl_act_diagonal():
    A = free_algebra(4, 2)
    e = A.pi((3, 1)) * A.rho((1, 1))
    assert A.gl_act((1, 1), e) == 4 * e
    assert A.gl_act((2, 2), e) == 2 * e


def test_gl_act_leibniz():
    A = free_algebra(4, 3)
    a = A.pi((2, 1, 1)) + A.rho((2, 0, 0)) * A.rho((0, 1, 1))
    b = A.rho((1, 1, 0))
    lhs = A.gl_act((1, 3), a * b)
    rhs = A.gl_act((1, 3), a) * b + a * A.gl_act((1, 3), b)
    assert lhs == rhs


def test_gl_act_bracket():
    # [E_{1,2}, E_{2,1}] acts as the difference of the two diagonal units
    A = free_algebra(4, 3)
    e = A.pi((2, 2, 0)) * A.rho((1, 0, 1))
    lhs = (A.gl_act((1, 2), A.gl_act((2, 1), e))
           - A.gl_act((2, 1), A.gl_act((1, 2), e)))
    rhs = A.gl_act((1, 1), e) - A.gl_act((2, 2), e)
    assert lhs == rhs


def test_gl_act_range_check():
    A = free_algebra(4, 2)
    with pytest.raises(ValueError):
        A.gl_act((1, 3), A.rho((2, 0)))


def _symbol(A, index):
    return A.rho(index) if sum(index) == 2 else A.pi(index)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 5), st.integers(2, 5), st.data())
def test_gl_act_is_the_leibniz_sum_on_repeated_symbols(n, m, data):
    # a monomial holding a symbol x to a power >= 2 next to the symbol that
    # E moves x to, and perhaps a third symbol: gl_act must equal the
    # derivation sum of exp * E.y * (mono / y) over its symbols y, formed by
    # products of elements.  Through phi an error that lands in ker phi
    # would go unseen from degree n + 2 up; this compares in F(n, m) itself
    A = free_algebra(n, m)
    u, v = data.draw(st.permutations(range(1, m + 1)))[:2]
    indices = list(all_multidegrees(m, 2)) + list(all_multidegrees(m, n))
    x = data.draw(st.sampled_from([w for w in indices if w[v - 1]]))
    target = list(x)
    target[v - 1] -= 1
    target[u - 1] += 1
    exps = Counter({x: data.draw(st.integers(2, 4)),
                    tuple(target): data.draw(st.integers(1, 3))})
    if data.draw(st.booleans()):
        exps[data.draw(st.sampled_from(indices))] += data.draw(
            st.integers(1, 2))

    def product(exponents):
        out = A.one()
        for w, e in exponents.items():
            for _ in range(e):
                out = out * _symbol(A, w)
        return out

    leibniz = A.zero()
    for w, e in exps.items():
        rest = exps.copy()
        rest[w] -= 1
        leibniz = leibniz + e * A.gl_act((u, v), _symbol(A, w)) \
            * product(rest)
    assert A.gl_act((u, v), product(exps)) == leibniz


@settings(max_examples=80, deadline=None)
@given(elements, st.data())
def test_phi_intertwines_gl_action(nm, data):
    n, m = nm
    A = free_algebra(n, m)
    weight = data.draw(st.sampled_from(
        list(all_multidegrees(m, data.draw(st.sampled_from([n, n + 2]))))))
    monos = _monomial_elements(A, weight)
    if not monos:
        return
    e = data.draw(st.sampled_from(monos))
    u = data.draw(st.integers(1, m))
    v = data.draw(st.integers(1, m))
    if u == v:
        return
    assert phi(A.gl_act((u, v), e)) == gl_act_xy(phi(e), u, v)


def test_phi_intertwines_s_action():
    A = free_algebra(4, 3)
    e = A.pi((2, 1, 1)) * A.rho((0, 1, 1)) - 2 * A.rho((2, 0, 0)) ** 3
    for perm in [(2, 1, 3), (3, 1, 2), (2, 3, 1)]:
        assert phi(A.s_act(perm, e)) == s_act_xy(perm, phi(e))


@pytest.mark.parametrize("perm", [(1, 1, 2), (1, 2), (0, 1, 2),
                                  (1, 2, 3, 4)])
def test_s_act_rejects_a_non_permutation(perm):
    A = FreeAlgebra(4, 3)
    e = A.pi((2, 1, 1)) * A.rho((0, 1, 1))
    A.s_act((2, 1, 3), e)
    moved = A._moved
    with pytest.raises(ValueError, match="permutation of 1..3"):
        A.s_act(perm, e)
    # the check comes first: the table kept is still that of (2, 1, 3)
    assert A._moved is moved


def test_s_act_keeps_the_table_of_the_last_permutation_only():
    # moving by one permutation, again, by others and back gives the term
    # by term renaming each time; the table kept is the last permutation's
    A = FreeAlgebra(4, 3)
    e = A.pi((2, 1, 1)) * A.rho((0, 1, 1)) - 2 * A.rho((2, 0, 0)) ** 3
    f = A.pi((4, 0, 0)) - A.rho((1, 1, 0)) * A.rho((2, 0, 0))
    for perm, x in [((2, 1, 3), e), ((2, 1, 3), f), ((3, 1, 2), f),
                    ((1, 2, 3), e), ((2, 1, 3), e)]:
        var_map = {v: A._vars[apply_perm(perm, w)]
                   for v, w in enumerate(A._weights)}
        assert A.s_act(perm, x).poly.terms \
            == x.poly.permute_variables(var_map).terms
        moved, _, table = A._moved
        assert moved == perm
        assert table == {mono: renamed_monomial(mono, var_map)
                         for mono in table}
    # (2, 1, 3) came back after (1, 2, 3): only e's monomials are held
    assert set(table) == set(e.poly.terms)


def test_s_act_composition():
    A = free_algebra(4, 3)
    e = A.pi((3, 1, 0)) * A.rho((0, 0, 2))
    inner = A.s_act((2, 1, 3), e)
    assert A.s_act((2, 3, 1), inner) == A.s_act((3, 2, 1), e)


# ---------------------------------------------------------------------------
# highest-weight structure


def test_named_relations_are_highest_weight():
    assert is_highest_weight(make_R222(4, 3)) == (2, 2, 2)
    assert is_highest_weight(make_R_n2(4, 3)) == (4, 2, 0)
    assert is_highest_weight(make_R_2n2k(4, 2, 2)) == (4, 4)
    assert is_highest_weight(make_R_2n2k(5, 1, 3)) == (8, 2, 0)


def test_non_highest_weight_cases():
    A = free_algebra(4, 2)
    assert is_highest_weight(A.pi((3, 1))) is None        # raised to pi(4,0)
    mixed = A.rho((2, 0)) + A.pi((4, 0))                  # not homogeneous
    assert is_highest_weight(mixed) is None
    with pytest.raises(ValueError):
        is_highest_weight(A.zero())


def _lowering_ladder(n, m):
    """The weight ladder under E_{2,1} from the (n,2) relation: element j
    has weight (n-j, 2+j), j = 0..n-2, and element j+1 is E_{2,1} applied
    to element j, divided by n-2-j (which runs over n-2..1)."""
    A = free_algebra(n, m)
    family = [make_R_n2(n, m)]
    for j in range(n - 2):
        family.append(A.gl_act((2, 1), family[-1])
                      .scale(Fraction(1, n - 2 - j)))
    return family


def test_lowering_family():
    for n, m in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        A = free_algebra(n, m)
        family = _lowering_ladder(n, m)
        assert len(family) == n - 1
        for j, e in enumerate(family):
            expected = (n - j, 2 + j) + (0,) * (m - 2)
            assert e.weight() == expected
            assert phi(e).is_zero()
        # each step is the lowering image of the one before, rescaled
        for j in range(n - 2):
            assert A.gl_act((2, 1), family[j]) \
                == (n - 2 - j) * family[j + 1]


def test_lowering_fixture_n4_m3():
    # first lowering step of the weight-(4,2) relation, three vector slots
    A = free_algebra(4, 3)
    image = A.gl_act((2, 1), make_R_n2(4, 3))
    expected = (2 * A.pi((3, 1, 0)) * A.rho((0, 2, 0))
                - 4 * A.pi((2, 2, 0)) * A.rho((1, 1, 0))
                + 2 * A.pi((1, 3, 0)) * A.rho((2, 0, 0)))
    assert image == expected


def test_lowering_fixture_weight44():
    # one lowering step into the third slot from the weight-(4,4) relation
    A = free_algebra(4, 3)
    image = A.gl_act((3, 2), make_R_2n2k(4, 2, 3)).scale(Fraction(1, 4))
    r = A.rho
    bracket1 = r((2, 0, 0)) * r((0, 2, 0)) - r((1, 1, 0)) ** 2
    bracket2 = r((2, 0, 0)) * r((0, 1, 1)) - r((1, 1, 0)) * r((1, 0, 1))
    expected = (A.pi((4, 0, 0)) * A.pi((0, 3, 1))
                - A.pi((3, 0, 1)) * A.pi((1, 3, 0))
                - 3 * A.pi((3, 1, 0)) * A.pi((1, 2, 1))
                + 3 * A.pi((2, 2, 0)) * A.pi((2, 1, 1))
                - 16 * bracket1 * bracket2)
    assert image == expected


def test_submodule_sizes_two_slots():
    # matching the binary-form picture: S^(a,b)(C^2) has dimension a-b+1
    assert len(submodule_basis(make_R_n2(4, 2))) == 3
    assert len(submodule_basis(make_R_2n2k(4, 1, 2))) == 5
    assert len(submodule_basis(make_R_2n2k(4, 2, 2))) == 1
    with pytest.raises(ValueError):
        submodule_basis(free_algebra(4, 2).zero())


def test_submodule_basis_rejects_mixed_weights():
    A = free_algebra(4, 2)
    with pytest.raises(ValueError, match="multihomogeneous"):
        submodule_basis(make_R_n2(4, 2) + A.rho((2, 0)) ** 3)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_submodule_sizes_match_weyl_dimension(m):
    # the saturation against the Weyl product formula, for every named
    # relation at n = 4
    named = [((4, 2), make_R_n2(4, m)), ((6, 2), make_R_2n2k(4, 1, m)),
             ((4, 4), make_R_2n2k(4, 2, m))]
    if m >= 3:
        named.append(((2, 2, 2), make_R222(4, m)))
    for weight, rel in named:
        assert len(submodule_basis(rel)) == weyl_dim(weight, m), weight


def _per_weight_saturation(e, units):
    """Breadth-first saturation under the matrix units `units`, keeping an
    element whenever it enlarges the rank of its weight space, with one
    rank space per weight."""
    A = e.algebra
    spaces = {}
    basis = []

    def keep(x):
        space = spaces.setdefault(x.weight(), PolynomialSpace(A.universe))
        if space.insert(x.poly):
            basis.append(x)

    keep(e)
    for x in basis:
        for unit in units:
            child = A.gl_act(unit, x)
            if not child.is_zero():
                keep(child)
    return basis


def _full_unit_saturation(e):
    """The per-weight saturation under every matrix unit E_{u,v}
    (u != v)."""
    m = e.algebra.m
    return _per_weight_saturation(e, [(u, v) for u in range(1, m + 1)
                                      for v in range(1, m + 1) if u != v])


def assert_per_weight_ranks_keep(basis, e):
    """Rows of different weights share no monomial, so the one rank space
    of submodule_basis keeps the elements that a space per weight keeps
    under the same simple lowering units, in the same order and with the
    same coefficients."""
    lowering = [(i + 1, i) for i in range(1, e.algebra.m)]
    assert basis == _per_weight_saturation(e, lowering)


def assert_kostka_weights(basis, lam, m):
    """Each weight alpha holds kostka(lam, alpha) elements of the basis and
    the whole basis has schur_dim(lam, m) of them, so a weight the basis
    misses has Kostka number zero: the weight multiplicities of the
    irreducible module, counted by gltheory, which shares no code with the
    saturation."""
    counts = Counter(e.weight() for e in basis)
    assert {alpha: kostka(lam, alpha) for alpha in counts} == dict(counts)
    assert len(basis) == schur_dim(lam, m)


@pytest.mark.parametrize("n,m", [(n, m) for n in (4, 5) for m in (2, 3, 4)])
def test_lowering_saturation_matches_full_units(n, m):
    # the lowering span lies in the full one, so equal dimensions in every
    # weight mean equal spans; the ideal slices insert these elements as
    # integer rows, so every coefficient must be an int
    for _, rel, lam in named_relations(n, m):
        lowering = submodule_basis(rel)
        assert_per_weight_ranks_keep(lowering, rel)
        for e in [rel] + lowering:
            assert all(type(c) is int for c in e.poly.terms.values())
        full = _full_unit_saturation(rel)
        assert len(lowering) == len(full)
        assert Counter(e.weight() for e in lowering) \
            == Counter(e.weight() for e in full)
        assert_kostka_weights(lowering, lam, m)


def test_saturation_at_five_slots_has_kostka_weights():
    # m = 5 without the full-unit reference, which is too slow there
    for _, rel, lam in named_relations(4, 5):
        basis = submodule_basis(rel)
        assert_per_weight_ranks_keep(basis, rel)
        assert_kostka_weights(basis, lam, 5)


def test_submodule_basis_requires_highest_weight():
    lowered = free_algebra(4, 3).gl_act((2, 1), make_R_n2(4, 3))
    assert is_highest_weight(lowered) is None
    with pytest.raises(ValueError, match="highest weight vector, "
                                         "got FreeElement\\(4,3; "):
        submodule_basis(lowered)


def test_submodule_basis_applies_lowering_units_only(monkeypatch):
    # the (4,2) module at three slots has dimension 27; the highest weight
    # check costs m - 1 = 2 raising units and the saturation 27 * 2 simple
    # lowering units, where all six units took 162 calls
    calls = []
    real = FreeAlgebra.gl_act

    def spy(self, E, e):
        calls.append(E)
        return real(self, E, e)

    monkeypatch.setattr(FreeAlgebra, "gl_act", spy)
    assert len(submodule_basis(make_R_n2(4, 3))) == 27
    assert len(calls) == 56
    assert calls[:2] == [(1, 2), (2, 3)]
    assert all(u == v + 1 for u, v in calls[2:])


def test_submodule_spans_lowering_family():
    # the (n,2) ladder sits inside the submodule generated by its top
    family = _lowering_ladder(4, 2)
    basis = submodule_basis(family[0])
    space = PolynomialSpace(free_algebra(4, 2).universe)
    for e in basis:
        space.insert(e.poly)
    for e in family:
        assert not space.insert(e.poly)
