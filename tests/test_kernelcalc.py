"""Kernel components, minimal generators, truncated ideals, decomposition
verifiers.

These are the exact-linear-algebra routes; the representation-theoretic
counterparts live in the gl tests and the two are reconciled in the
acceptance suite.
"""

import hashlib
import math
from itertools import permutations

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv import dihedral, kernelcalc
from dihedralinv.cli import main, named_relations
from dihedralinv.dihedral import (
    DihedralParams,
    all_multidegrees,
    apply_perm,
    decreasing_multidegrees,
    x_index,
    xy_monomials,
    y_index,
)
from dihedralinv.exactpoly import (
    Polynomial,
    PolynomialSpace,
    RowSpace,
    monomial,
    parse_polynomial,
    rank_up_to,
    xy_universe,
)
from dihedralinv.freealgebra import (
    FreeAlgebra,
    FreeElement,
    free_algebra,
    make_R222,
    make_R_2n2k,
    make_R_n2,
    phi,
    submodule_basis,
)
from dihedralinv.gltheory import schur_dim
from dihedralinv.kernelcalc import (
    ResourceCapError,
    TruncatedIdeal,
    cyclic_table_n4_m3,
    gl_generation_report,
    kernel_basis_at,
    minimal_generators_by_degree,
    orbit_size,
    primary_elements,
    resolve_resource_cap,
    secondary_table_m2,
    secondary_table_n4_m3,
    sort_permutation,
    verify_hironaka_xy,
)


def _kernel_in_degree(n, m, d, resource_cap=None):
    """The kernel basis in total degree d, multidegree by multidegree."""
    return [e for alpha in all_multidegrees(m, d)
            for e in kernel_basis_at(n, m, alpha, resource_cap)]


def test_permutation_helpers():
    assert apply_perm((2, 1, 3), (5, 7, 9)) == (7, 5, 9)
    s, p = sort_permutation((1, 3, 2))
    assert s == (3, 2, 1)
    assert apply_perm(p, s) == (1, 3, 2)
    assert orbit_size((4, 2, 2)) == 3
    assert orbit_size((3, 2, 1)) == 6
    assert orbit_size((2, 2, 2)) == 1
    # the slot action on the symbols moves their index vectors the same way
    for m in (2, 3, 4):
        A = free_algebra(4, m)
        for perm in permutations(range(1, m + 1)):
            for v in range(A.universe.nvars):
                x = FreeElement(A, Polynomial.variable(A.universe, v))
                assert A.s_act(perm, x).weight() \
                    == apply_perm(perm, A.universe.weight(v))


def test_resource_cap_resolution(monkeypatch):
    monkeypatch.delenv("DIHEDRALINV_RESOURCE_CAP", raising=False)
    assert resolve_resource_cap() == 20000
    assert resolve_resource_cap(77) == 77
    monkeypatch.setenv("DIHEDRALINV_RESOURCE_CAP", "123")
    assert resolve_resource_cap() == 123
    assert resolve_resource_cap(77) == 77
    for bad in (0, -5):
        with pytest.raises(ValueError, match="must be positive"):
            resolve_resource_cap(bad)
    monkeypatch.setenv("DIHEDRALINV_RESOURCE_CAP", "abc")
    with pytest.raises(ValueError, match="is not an integer"):
        resolve_resource_cap()
    assert resolve_resource_cap(77) == 77


def test_explicit_cap_is_neither_truncated_nor_parsed(monkeypatch):
    # 13.99 once read as a cap of 13; the environment's string is parsed,
    # an explicit one is not
    monkeypatch.setenv("DIHEDRALINV_RESOURCE_CAP", "123")
    for bad in (77.9, 13.99, "50"):
        with pytest.raises(TypeError):
            resolve_resource_cap(bad)
    with pytest.raises(TypeError):
        kernel_basis_at(4, 3, (4, 2, 2), resource_cap=13.99)


def test_resource_cap_enforced():
    with pytest.raises(ResourceCapError):
        _kernel_in_degree(6, 3, 10, resource_cap=50)


def test_resource_cap_stops_before_enumeration(monkeypatch):
    # a private algebra; the spy records the size of every enumerated
    # component
    A = FreeAlgebra(4, 3)
    monkeypatch.setattr(kernelcalc, "free_algebra", lambda n, m: A)
    enumerated = []
    real = A.monomials_of_weight

    def spy(alpha):
        monos = real(alpha)
        enumerated.append(len(monos))
        return monos

    monkeypatch.setattr(A, "monomials_of_weight", spy)
    with pytest.raises(ResourceCapError, match="kernel component"):
        kernel_basis_at(4, 3, (4, 2, 2), resource_cap=5)
    assert enumerated == []
    ideal = TruncatedIdeal([A.rho((2, 0, 0))], resource_cap=5)
    with pytest.raises(ResourceCapError, match="ideal slice"):
        ideal.component_dimension((4, 2, 2), A.count_of_weight((4, 2, 2)))
    assert enumerated == []


def test_resource_cap_applies_to_cached_components():
    assert len(kernel_basis_at(4, 3, (4, 2, 2))) == 14
    with pytest.raises(ResourceCapError, match="kernel component"):
        kernel_basis_at(4, 3, (4, 2, 2), resource_cap=5)
    # the transported copies share the sorted component's guard
    with pytest.raises(ResourceCapError, match="kernel component"):
        kernel_basis_at(4, 3, (2, 4, 2), resource_cap=5)


def test_invariant_cap_stops_before_enumeration(monkeypatch):
    # F(6,3) is empty at (5,2,2), but the coordinate-ring component has
    # 6 * 3 * 3 = 54 monomials: the cap must fire before they are listed,
    # cold or cached.  A fresh F(6,3) holds no kernel basis yet; the
    # Hironaka half below keeps the shared n = 4 algebras
    A = FreeAlgebra(6, 3)
    shared = kernelcalc.free_algebra
    monkeypatch.setattr(kernelcalc, "free_algebra",
                        lambda n, m: A if (n, m) == (6, 3) else shared(n, m))
    seen = []
    real = kernelcalc.xy_monomials

    def spy(m, alpha):
        seen.append(tuple(alpha))
        return real(m, alpha)

    monkeypatch.setattr(kernelcalc, "xy_monomials", spy)
    needs_54 = r"invariant component \(5, 2, 2\) needs 54"
    with pytest.raises(ResourceCapError, match=needs_54):
        kernel_basis_at(6, 3, (5, 2, 2), resource_cap=50)
    assert seen == []
    assert kernel_basis_at(6, 3, (5, 2, 2), resource_cap=54) == []
    assert seen == [(5, 2, 2)]
    with pytest.raises(ResourceCapError, match=needs_54):
        kernel_basis_at(6, 3, (5, 2, 2), resource_cap=50)
    # the decomposition check guards its components the same way: with
    # two slots, (6, 2) is the first weight over a cap of 20.  It lists no
    # monomials itself; it enumerates the invariant bases at alpha - w(h)
    seen.clear()
    real_basis = kernelcalc.invariant_basis

    def basis_spy(params, beta):
        seen.append(tuple(beta))
        return real_basis(params, beta)

    monkeypatch.setattr(kernelcalc, "invariant_basis", basis_spy)
    with pytest.raises(ResourceCapError,
                       match=r"invariant component \(6, 2\) needs 21"):
        verify_hironaka_xy(*secondary_table_m2(4), DihedralParams(4, 2), 10,
                           resource_cap=20)
    assert seen
    assert (6, 2) not in seen
    assert all((a + 1) * (b + 1) <= 20 for a, b in seen)


def test_returned_basis_does_not_alias_the_cache():
    kernel_basis_at(4, 3, (2, 2, 2)).clear()
    assert len(_kernel_in_degree(4, 3, 6)) == 28


# ---------------------------------------------------------------------------
# kernel components


def test_kernel_dimensions_low_degrees():
    for d in (0, 1, 2, 3, 4, 5, 7):
        assert _kernel_in_degree(4, 2, d) == []
    for d, want in ((6, 3), (8, 15)):
        basis = _kernel_in_degree(4, 2, d)
        assert len(basis) == want
        assert all(phi(e).is_zero() for e in basis)
        assert all(e.degree() == d for e in basis)


def test_kernel_first_component_three_slots():
    basis = _kernel_in_degree(4, 3, 6)
    assert len(basis) == 28
    assert all(phi(e).is_zero() for e in basis)


def test_kernel_multidegree_form():
    basis = kernel_basis_at(4, 2, (4, 2))
    assert len(basis) == 1
    assert basis[0].weight() == (4, 2)


def test_kernel_transport_to_unsorted_weight():
    basis = kernel_basis_at(4, 2, (2, 4))
    assert len(basis) == 1
    assert basis[0].weight() == (2, 4)
    assert phi(basis[0]).is_zero()


def test_kernel_odd_degrees_empty():
    assert _kernel_in_degree(4, 3, 7) == []
    assert kernel_basis_at(4, 3, (3, 3, 1)) == []


# ---------------------------------------------------------------------------
# minimal generators


def test_minimal_generators_two_slots():
    assert minimal_generators_by_degree(4, 2, 10) == {6: 3, 8: 6}


def test_minimal_generators_vanish_below_bound():
    for n in (3, 5):
        assert minimal_generators_by_degree(n, 2, n + 1) == {}


def _kernel_bases(n, m, degrees):
    return [[e.poly for e in kernel_basis_at(n, m, alpha)]
            for d in degrees for alpha in decreasing_multidegrees(m, d)]


def test_minimal_generators_order_robust(monkeypatch):
    # the same counts from a private algebra, holding its own kernel bases,
    # whose enumeration lists every component backwards, so the kernel
    # bases and the Nakayama columns come out in another order
    forward = _kernel_bases(4, 2, (6, 8))
    A = FreeAlgebra(4, 2)
    monkeypatch.setattr(kernelcalc, "free_algebra", lambda n, m: A)
    enumerate_forward = A.monomials_of_weight
    monkeypatch.setattr(A, "monomials_of_weight",
                        lambda alpha: enumerate_forward(alpha)[::-1])
    assert minimal_generators_by_degree(4, 2, 8) == {6: 3, 8: 6}
    backward = _kernel_bases(4, 2, (6, 8))
    assert [len(b) for b in backward] == [len(b) for b in forward]
    assert backward != forward


# ---------------------------------------------------------------------------
# truncated ideals


def _in_ideal(gens, f):
    """Whether a multihomogeneous f lies in the ideal of gens: adding f as a
    generator leaves the rank of the slice at its weight as it is.  The
    slice lies in the weight space, whose size is a ceiling of its rank."""
    alpha = f.weight()
    ceiling = f.algebra.count_of_weight(alpha)
    return (TruncatedIdeal(gens + [f]).component_dimension(alpha, ceiling)
            == TruncatedIdeal(gens).component_dimension(alpha, ceiling))


def test_truncated_membership_positive():
    A = free_algebra(4, 2)
    R42 = make_R_n2(4, 2)
    assert _in_ideal([R42], A.rho((1, 1)) * R42)


def test_truncated_membership_negative():
    # the weight-(6,2) relation is not in the submodule ideal of the
    # weight-(4,2) one at degree 8
    assert not _in_ideal(submodule_basis(make_R_n2(4, 2)),
                         make_R_2n2k(4, 1, 2))


def test_truncated_ideal_validation():
    A = free_algebra(4, 2)
    with pytest.raises(ValueError, match="at least one generator"):
        TruncatedIdeal([])
    with pytest.raises(ValueError):
        TruncatedIdeal([A.zero()])
    with pytest.raises(ValueError):
        TruncatedIdeal([A.rho((2, 0)) + A.rho((1, 1)) ** 2])
    with pytest.raises(ValueError):
        TruncatedIdeal([make_R_n2(4, 2), make_R_n2(4, 3)])


def test_ideal_component_dimension_matches_kernel():
    # at degree 6 and three slots the four-symbol determinant plus the
    # lowered (4,2) ladder generate the whole kernel component
    gens = submodule_basis(make_R222(4, 3)) \
        + submodule_basis(make_R_n2(4, 3))
    ideal = TruncatedIdeal(gens)
    A = free_algebra(4, 3)
    total = sum(ideal.component_dimension(alpha, A.count_of_weight(alpha))
                for alpha in all_multidegrees(3, 6))
    assert total == 28


@pytest.mark.parametrize("m", [2, 3])
def test_spanning_polys_are_the_generator_products(m):
    # every slice of the GL-generation check is the list of products g * mu
    # over generators g and cofactor monomials mu, in that order, with the
    # coefficients in stored form
    gens = [e for _, g, _ in named_relations(4, m)
            for e in submodule_basis(g)]
    ideal = TruncatedIdeal(gens)
    A = free_algebra(4, m)
    rows = 0
    for t in range(11):
        for alpha in decreasing_multidegrees(m, t):
            want = []
            for g in gens:
                delta = tuple(a - w for a, w in zip(alpha, g.weight()))
                if min(delta) >= 0:
                    want.extend(g.poly * Polynomial.from_monomial(A.universe,
                                                                  mono)
                                for mono in A.monomials_of_weight(delta))
            got = ideal.spanning_polys(alpha)
            assert got == want, alpha
            assert all(type(c) is int for p in got for c in p.terms.values())
            rows += len(got)
    assert rows == {2: 43, 3: 411}[m]


def test_spanning_polys_cap_counts_products_first(monkeypatch):
    # the (4, 3, 3) slice of the m = 3 GL-generation check has 72 monomials
    # but 79 generator products: a cap of 78 lets the slice through and
    # stops the products before any cofactor is enumerated
    A = free_algebra(4, 3)
    gens = [e for _, g, _ in named_relations(4, 3)
            for e in submodule_basis(g)]
    enumerated = []
    real = A.monomials_of_weight

    def spy(delta):
        enumerated.append(delta)
        return real(delta)

    monkeypatch.setattr(A, "monomials_of_weight", spy)
    alpha = (4, 3, 3)
    assert A.count_of_weight(alpha) == 72
    ideal = TruncatedIdeal(gens, resource_cap=78)
    with pytest.raises(ResourceCapError,
                       match=r"ideal slice \(4, 3, 3\) needs 79 generator "
                             r"products, above the cap of 78"):
        ideal.component_dimension(alpha, 72)
    assert enumerated == []
    assert len(TruncatedIdeal(gens, resource_cap=79)
               .spanning_polys(alpha)) == 79
    assert enumerated


def test_mixed_generator_membership():
    # pi(2,1,1)*rho(1,1,0) lies in the relation ideal plus the primary ideal
    A = free_algebra(4, 3)
    gens = (submodule_basis(make_R222(4, 3))
            + submodule_basis(make_R_n2(4, 3))
            + primary_elements(4, 3))
    assert _in_ideal(gens, A.pi((2, 1, 1)) * A.rho((1, 1, 0)))


# ---------------------------------------------------------------------------
# Hironaka decompositions


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hironaka_two_slots(n):
    rep = verify_hironaka_xy(*secondary_table_m2(n), DihedralParams(n, 2),
                             2 * n + 2)
    assert rep.ok, rep.failures[:3]
    assert rep.lstar_size == 2 * n
    assert rep.independence and rep.hilbert_match and rep.spanning


def test_hironaka_broken_table_detected():
    primaries, rows = secondary_table_m2(4)
    broken = [row for row in rows if row[0] != (4, 4)]
    rep = verify_hironaka_xy(primaries, broken, DihedralParams(4, 2), 10)
    assert rep.independence
    assert not rep.hilbert_match
    assert not rep.ok
    assert any("(4, 4)" in f for f in rep.failures)


def test_hironaka_wrong_dimension_fails_the_series(monkeypatch):
    # the rows stop at the invariant dimension where no secondary sits, so
    # a dimension one short there no longer fails `spanning`; the series
    # identity still reads the true count off the table, and (2, 4) reads
    # its dimension at (4, 2)
    true_dim = kernelcalc.invariant_dimension

    def short(params, alpha):
        return true_dim(params, alpha) - (tuple(alpha) == (4, 2))

    monkeypatch.setattr(kernelcalc, "invariant_dimension", short)
    rep = verify_hironaka_xy(*secondary_table_m2(4), DihedralParams(4, 2),
                             10)
    assert rep.spanning
    assert not rep.hilbert_match
    assert not rep.ok
    assert rep.failures == [
        "series coefficient at (4, 2) is 4, invariant dimension is 3",
        "series coefficient at (2, 4) is 4, invariant dimension is 3"]


def test_hironaka_counts_each_dimension_once(monkeypatch):
    # one dimension per weakly decreasing multidegree checked: the series
    # check reads the table the main loop filled
    calls = []
    real = dihedral._rotation_count

    def spy(params, alpha):
        calls[-1] += 1
        return real(params, alpha)

    monkeypatch.setattr(dihedral, "_rotation_count", spy)
    params2, params3 = DihedralParams(4, 2), DihedralParams(4, 3)
    checked = []
    for table, params, model in [
            (secondary_table_m2(4), params2, "dihedral"),
            (secondary_table_n4_m3(), params3, "dihedral"),
            (cyclic_table_n4_m3(), params3, "cyclic")]:
        calls.append(0)
        rep = verify_hironaka_xy(*table, params, 16, model=model)
        assert rep.ok
        checked.append(rep.components_checked)
    assert checked == [81, 204, 204]
    assert calls == checked


def test_hironaka_rows_stop_at_the_component_dimension(monkeypatch):
    # the three report-paper tables at D = 16 have 801 / 5320 / 10492
    # product rows in all; the lead-term certificate settles most
    # components before a row is built.  Each secondary at a weakly
    # decreasing multidegree adds one insert
    built = []
    inserted = []
    real_product, real_insert = kernelcalc._product_row, RowSpace.insert_row

    def product(left, right):
        built[-1] += 1
        return real_product(left, right)

    def insert(self, row):
        inserted[-1] += 1
        return real_insert(self, row)

    monkeypatch.setattr(kernelcalc, "_product_row", product)
    monkeypatch.setattr(RowSpace, "insert_row", insert)
    params2, params3 = DihedralParams(4, 2), DihedralParams(4, 3)
    for table, params, model in [
            (secondary_table_m2(4), params2, "dihedral"),
            (secondary_table_n4_m3(), params3, "dihedral"),
            (cyclic_table_n4_m3(), params3, "cyclic")]:
        built.append(0)
        inserted.append(0)
        assert verify_hironaka_xy(*table, params, 16, model=model).ok
    assert built == [19, 172, 4637]
    assert inserted == [26, 190, 4673]
    assert [i - b for i, b in zip(inserted, built)] == [7, 18, 36]


def _component_spaces(monkeypatch, table, params, D, model):
    """Run the verifier and return (report, dims, spaces): the invariant
    dimension it read at each alpha, and the exact RowSpace it made at each
    alpha the lead-term certificate did not settle."""
    name = {"dihedral": "invariant_dimension",
            "cyclic": "cyclic_invariant_dimension"}[model]
    true_dim = getattr(kernelcalc, name)
    dims, spaces = {}, {}

    def dim(params, alpha):
        dims[tuple(alpha)] = true_dim(params, alpha)
        return dims[tuple(alpha)]

    def space():
        spaces[list(dims)[-1]] = made = RowSpace()
        return made

    with monkeypatch.context() as mp:
        mp.setattr(kernelcalc, name, dim)
        mp.setattr(kernelcalc, "RowSpace", space)
        rep = verify_hironaka_xy(*table, params, D, model=model)
    return rep, dims, spaces


def _product_rank(primaries, params, alpha, model):
    """The exact rank of every product h * b at alpha, from polynomial
    products: h a primary, b an invariant basis element."""
    basis_fn = {"dihedral": dihedral.invariant_basis,
                "cyclic": dihedral.cyclic_invariant_basis}[model]
    U = xy_universe(params.m)

    def products():
        for h in primaries:
            beta = tuple(a - w for a, w in zip(alpha, h.multidegree()))
            if min(beta) < 0:
                continue
            for elem in basis_fn(params, beta):
                b = Polynomial(U, {monomial(
                    [(x_index(i), a - y) for i, (a, y)
                     in enumerate(zip(beta, ys), start=1)]
                    + [(y_index(i), y) for i, y in enumerate(ys, start=1)]):
                    1 for ys in elem})
                yield h * b

    return rank_up_to(PolynomialSpace(U).insert, products())


@pytest.mark.parametrize("table,params,D,model,short", [
    (secondary_table_m2(4), DihedralParams(4, 2), 16, "dihedral", []),
    (secondary_table_n4_m3(), DihedralParams(4, 3), 16, "dihedral", []),
    (cyclic_table_n4_m3(), DihedralParams(4, 3), 16, "cyclic", []),
    ((cyclic_table_n4_m3()[0], cyclic_table_n4_m3()[1][:-3]),
     DihedralParams(4, 3), 12, "cyclic", [(4, 4, 0), (4, 3, 3), (4, 4, 4)]),
], ids=["m2", "m3", "cyclic-m3", "cyclic-rows-dropped"])
def test_hironaka_lead_certificate_is_sound(monkeypatch, table, params, D,
                                            model, short):
    # wherever distinct lead sums settle a component, the exact rank of all
    # of its product rows is the invariant dimension; the last table is
    # broken, and the components where its rows fall short are not settled
    rep, dims, spaces = _component_spaces(monkeypatch, table, params, D,
                                          model)
    assert len(dims) == rep.components_checked
    settled = [alpha for alpha in dims if alpha not in spaces]
    assert settled
    for alpha in settled:
        assert (_product_rank(table[0], params, alpha, model)
                == dims[alpha]), alpha
    assert [alpha for alpha in short
            if spaces[alpha].rank < dims[alpha]] == short
    assert rep.ok == (not short)


def test_hironaka_fallback_where_lead_sums_collide(monkeypatch):
    # at cyclic (5, 1, 0) the six products have five distinct lead sums,
    # one short of the dimension, so the exact rows go in and reach the
    # full rank
    table = cyclic_table_n4_m3()
    params = DihedralParams(4, 3)
    rep, dims, spaces = _component_spaces(monkeypatch, table, params, 6,
                                          "cyclic")
    assert rep.ok
    alpha = (5, 1, 0)
    assert spaces[alpha].rank == dims[alpha] == 6
    assert _product_rank(table[0], params, alpha, "cyclic") == 6


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (4, 2), (5, 2), (4, 3)]), st.data())
def test_hironaka_product_pivot_is_the_lead_sum(nm, data):
    # the pivot of a product row is its least code, and it sits at
    # lead(h) + lead(b), the least codes of the factors
    n, m = nm
    params = DihedralParams(n, m)

    def invariant(total):
        alpha = data.draw(st.sampled_from(list(all_multidegrees(m, total))))
        basis = dihedral.invariant_basis(params, alpha)
        if not basis:
            return None
        elems = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                                   max_size=4, unique=True))
        coeffs = data.draw(st.lists(st.integers(-9, 9).filter(bool),
                                    min_size=len(elems),
                                    max_size=len(elems)))
        return [(ys, c) for elem, c in zip(elems, coeffs) for ys in elem]

    h = invariant(data.draw(st.integers(1, 6)))
    b = invariant(data.draw(st.integers(0, 6)))
    if h is None or b is None:
        return
    places = kernelcalc._places(m, 13)
    h, b = kernelcalc._coded(h, places), kernelcalc._coded(b, places)
    row = kernelcalc._product_row(h, b)
    assert min(row) == min(k for k, _ in h) + min(k for k, _ in b)


def test_hironaka_three_slots():
    rep = verify_hironaka_xy(*secondary_table_n4_m3(), DihedralParams(4, 3),
                             8)
    assert rep.ok, rep.failures[:5]
    assert rep.lstar_size == 64


def test_hironaka_cyclic_model():
    primaries, rows = cyclic_table_n4_m3()
    rep = verify_hironaka_xy(primaries, rows, DihedralParams(4, 3), 8,
                             model="cyclic")
    assert rep.ok, rep.failures[:5]
    assert rep.lstar_size == 128


def test_hironaka_weight_mismatch_rejected():
    primaries, _ = secondary_table_m2(4)
    q11 = phi(free_algebra(4, 2).rho((1, 1)))
    with pytest.raises(ValueError, match="declared at"):
        verify_hironaka_xy(primaries, [((2, 2), [q11])],
                           DihedralParams(4, 2), 8)


def test_hironaka_constant_primary_rejected():
    # a parameter has positive degree: a constant has no geometric series
    # in the Hilbert series identity
    primaries, rows = secondary_table_m2(4)
    one = parse_polynomial("1", xy_universe(2))
    with pytest.raises(ValueError, match="of positive degree"):
        verify_hironaka_xy(primaries + [one], rows, DihedralParams(4, 2), 8)


@pytest.mark.parametrize("left,right", [
    ("x1*y2 + y1*x2", "x1*y2 - y1*x2"),  # the cross terms cancel
    ("3*x1^2 - 1/2*y1^2", "2*x1*x2 + 5*y1*y2"),
    ("1/2*x1*y2 + 1/2*y1*x2", "x1^2*x2 + 7/3*x1*y1*y2"),
], ids=["cancelling", "integer", "fractional"])
def test_hironaka_product_rows_match_polynomial_products(left, right):
    # the verifier's row of h * b, built from coded terms, is the row of
    # the polynomial product over the codes of xy_monomials, times the
    # factors that cleared the denominators of h and b
    U = xy_universe(2)
    h, b = parse_polynomial(left, U), parse_polynomial(right, U)
    alpha = tuple(x + y for x, y in zip(h.multidegree(), b.multidegree()))
    places = kernelcalc._places(2, sum(alpha) + 1)
    row = kernelcalc._product_row(
        kernelcalc._coded(kernelcalc._y_terms(h), places),
        kernelcalc._coded(kernelcalc._y_terms(b), places))
    scale = math.prod(math.lcm(*(c.denominator for c in f.terms.values()))
                      for f in (h, b))
    index = {}
    for mo in xy_monomials(2, alpha):
        [(index[mo], _)] = kernelcalc._coded(
            kernelcalc._y_terms(Polynomial.from_monomial(U, mo)), places)
    assert row == {index[mo]: c * scale for mo, c in (h * b).terms.items()}


@pytest.mark.parametrize("text", [
    "x1^2*x2^2 + x1^2*x2*y2 + y1^2*y2^2",
    "x1^2*x2^2 + x1*y1*x2^2 + y1^2*y2^2",
], ids=["x1^2*x2*y2", "x1*y1*x2^2"])
def test_hironaka_rejects_non_dihedral_secondary(text):
    # the added term is not rotation invariant, but it lies outside every
    # invariant component and so leaves every rank as it was: the check
    # would pass without reading the table's claim
    primaries, rows = secondary_table_m2(4)
    p22 = parse_polynomial("x1^2*x2^2 + y1^2*y2^2", xy_universe(2))
    bad = parse_polynomial(text, xy_universe(2))
    rows = [(alpha, [bad if f == p22 else f for f in elems])
            for alpha, elems in rows]
    assert sum(f == bad for _, elems in rows for f in elems) == 1
    with pytest.raises(ValueError, match=r"secondary .* not invariant in "
                                         r"the dihedral model"):
        verify_hironaka_xy(primaries, rows, DihedralParams(4, 2), 10)


def test_hironaka_rejects_non_rotation_invariant_secondary():
    primaries, rows = cyclic_table_n4_m3()
    bad = parse_polynomial("x1*y2 + x1*x2", xy_universe(3))
    rows[1] = ((1, 1, 0), [bad, rows[1][1][1]])
    with pytest.raises(ValueError, match=r"secondary .* not invariant in "
                                         r"the cyclic model"):
        verify_hironaka_xy(primaries, rows, DihedralParams(4, 3), 8,
                           model="cyclic")


def test_hironaka_dependent_secondary_detected():
    # a multiple of a secondary, listed as a row of its own
    primaries, rows = secondary_table_n4_m3()
    r110 = free_algebra(4, 3).rho((1, 1, 0))
    rows = rows + [((2, 2, 0), [phi(r110 * r110).scale(2)])]
    rep = verify_hironaka_xy(primaries, rows, DihedralParams(4, 3), 10)
    assert not rep.independence
    assert not rep.hilbert_match
    assert rep.spanning
    assert rep.lstar_size == 67
    assert rep.failures[0] == ("secondary at (2, 2, 0) depends on the "
                               "primary ideal and earlier secondaries")
    assert sum("depends on" in f for f in rep.failures) == 1


def test_hironaka_repeated_secondary_detected():
    # the same element listed twice at the same multidegree is two
    # secondaries: the repeat must fail independence and the series
    # identity, not be merged into one
    primaries, rows = secondary_table_n4_m3()
    r110 = free_algebra(4, 3).rho((1, 1, 0))
    rows = rows + [((2, 2, 0), [phi(r110 * r110)])]
    rep = verify_hironaka_xy(primaries, rows, DihedralParams(4, 3), 10)
    assert not rep.independence
    assert not rep.hilbert_match
    assert rep.spanning
    # the repeat's transported copies meet the first copy's and are dropped
    assert rep.lstar_size == 65
    assert [f for f in rep.failures if "depends on" in f] == [
        "secondary at (2, 2, 0) depends on the primary ideal and earlier "
        "secondaries"]


def test_hironaka_transported_copies_meet_listed_rows():
    # the m = 2 tables list both (n-i, i) and (i, n-i): the swap carries
    # each onto the other, and those copies are the listed elements again
    primaries, rows = secondary_table_m2(4)
    assert sum(len(elems) for _, elems in rows) == 8
    assert sum(1 for alpha, _ in rows if alpha[0] != alpha[1]) == 2
    rep = verify_hironaka_xy(primaries, rows, DihedralParams(4, 2), 10)
    assert rep.ok, rep.failures[:3]
    assert rep.lstar_size == 8


def test_hironaka_cyclic_rows_dropped_failures():
    primaries, rows = cyclic_table_n4_m3()
    rep = verify_hironaka_xy(primaries, rows[:-3], DihedralParams(4, 3), 12,
                             model="cyclic")
    assert rep.independence
    assert not rep.spanning and not rep.hilbert_match
    assert (rep.lstar_size, rep.components_checked) == (118, 102)
    assert rep.failures[:4] == [
        "component (4, 4, 0): primaries+secondaries span 12 of 13",
        "component (4, 3, 3): primaries+secondaries span 38 of 40",
        "component (4, 4, 4): primaries+secondaries span 62 of 63",
        "series coefficient at (4, 4, 0) is 12, invariant dimension is 13",
    ]
    # the whole list, byte for byte: 3 components and 40 series entries
    assert len(rep.failures) == 43
    digest = hashlib.sha256("\n".join(rep.failures).encode()).hexdigest()
    assert digest == ("c896f05b52dc06db2be080379d2d4eba"
                      "d4a801a9aaaaa8398b29aad0c26d5772")


def test_secondary_table_shapes():
    primaries, rows = secondary_table_m2(5)
    assert len(primaries) == 4
    assert len(rows) == 5 + 1 + 4
    primaries3, rows3 = secondary_table_n4_m3()
    assert len(primaries3) == 6
    assert sum(len(elems) for _, elems in rows3) == 18


# ---------------------------------------------------------------------------
# module generation


def test_gl_generation_two_slots():
    gens = [make_R_n2(4, 2), make_R_2n2k(4, 1, 2), make_R_2n2k(4, 2, 2)]
    assert gl_generation_report(gens, 10)[0]


def test_gl_generation_missing_generator_witness():
    ok, rows = gl_generation_report([make_R_n2(4, 3)], 6)
    assert not ok
    (row,) = [r for r in rows if r["degree"] == 6]
    assert row["ideal_dim"] == 27
    assert row["kernel_dim"] == 28


def test_gl_generation_small_cases():
    assert gl_generation_report([make_R222(3, 3), make_R_n2(3, 3),
                                 make_R_2n2k(3, 1, 3)], 8)[0]


def test_negative_degree_bounds_rejected():
    # a negative bound checks no component, and must not read as a pass
    calls = [
        lambda: verify_hironaka_xy(*secondary_table_m2(4),
                                   DihedralParams(4, 2), -1),
        lambda: gl_generation_report([make_R_n2(4, 2)], -3),
        lambda: minimal_generators_by_degree(4, 2, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degree bound must be "
                                             "nonnegative"):
            call()
    assert gl_generation_report([make_R_n2(4, 2)], 0) \
        == (True, [{"degree": 0, "ideal_dim": 0, "kernel_dim": 0}])


def test_gl_generation_reads_the_algebra_from_its_generators():
    # F(5, 3)'s relations are compared with F(5, 3)'s kernel: each row's
    # kernel dimension is the kernel counted over every multidegree
    gens = [g for _, g, _ in named_relations(5, 3)]
    _, rows = gl_generation_report(gens, 8)
    assert [r["kernel_dim"] for r in rows] == [
        sum(len(kernel_basis_at(5, 3, alpha))
            for alpha in all_multidegrees(3, d)) for d in range(9)]
    assert rows[6]["kernel_dim"] > 0


def test_gl_generation_four_vectors_by_three_vector_relations():
    # the paper's named relations use at most three vector variables, and
    # generate the kernel GL-ideal of F(4, 4) through degree 10 as well
    ok, rows = gl_generation_report(
        [g for _, g, _ in named_relations(4, 4)], 10)
    assert ok
    assert all(r["ideal_dim"] == r["kernel_dim"] for r in rows)
    # degree 6 holds the GL_4 modules of R(4)_{4,2} and R_{2,2,2}
    expected = schur_dim((4, 2), 4) + schur_dim((2, 2, 2), 4)
    assert rows[6]["kernel_dim"] == expected == 136


def test_gl_generation_needs_generators_of_one_algebra():
    # no generator fixes no algebra, and used to read as a failed check
    with pytest.raises(ValueError, match="at least one generator"):
        gl_generation_report([], 6)
    with pytest.raises(ValueError, match="different algebras"):
        gl_generation_report([make_R222(4, 3), make_R222(5, 3)], 6)


def test_gl_generation_rejects_non_kernel_generator():
    A = free_algebra(4, 2)
    ok, rows = gl_generation_report([A.rho((2, 0))], 6)
    assert not ok
    assert rows[0]["note"] == "generator not in the kernel"


def test_kernel_basis_is_checked_against_its_count(monkeypatch):
    # an elimination that loses one relation at (4, 2, 0) gives a basis
    # one short of count_of_weight - invariant_dimension; the check where
    # the basis is built stops every caller, GL-generation and the CLI too
    lost = xy_monomials(3, (4, 2, 0))
    real = kernelcalc.nullspace_combinations

    def short(polys, columns):
        relations = real(polys, columns)
        return relations[1:] if columns == lost else relations

    monkeypatch.setattr(kernelcalc, "nullspace_combinations", short)
    monkeypatch.setattr(free_algebra(4, 3), "kernels", {})
    with pytest.raises(ArithmeticError, match=r"\(4, 2, 0\) has 0 .* is 1$"):
        kernel_basis_at(4, 3, (2, 4, 0))
    gens = [make_R222(4, 3), make_R_n2(4, 3)]
    with pytest.raises(ArithmeticError):
        gl_generation_report(gens, 6)
    result = CliRunner().invoke(main, ["kernel", "dim", "--n", "4",
                                       "--m", "3", "--max-degree", "6"])
    assert result.exit_code != 0
    assert isinstance(result.exception, ArithmeticError)
    monkeypatch.setattr(kernelcalc, "nullspace_combinations", real)
    assert len(kernel_basis_at(4, 3, (2, 4, 0))) == 1


def test_nakayama_and_ideal_slice_insert_counts():
    # PolynomialSpace inserts of the Nakayama span, and of the ideal slices
    # alone (not the saturation) in GL-generation; each rank stops at its
    # ceiling, so a row that goes in past one shows here
    real_insert = PolynomialSpace.insert
    real_dim = TruncatedIdeal.component_dimension
    counts = {"nakayama": 0, "slices": 0}
    counting = ["nakayama"]  # the count an insert goes to, or None

    def insert(space, poly):
        if counting[0]:
            counts[counting[0]] += 1
        return real_insert(space, poly)

    def dim(ideal, alpha, ceiling):
        counting[0] = "slices"
        try:
            return real_dim(ideal, alpha, ceiling)
        finally:
            counting[0] = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolynomialSpace, "insert", insert)
        mp.setattr(TruncatedIdeal, "component_dimension", dim)
        assert minimal_generators_by_degree(4, 3, 10) == {6: 28, 8: 75}
        counting[0] = None
        ok, _ = gl_generation_report(
            [g for _, g, _ in named_relations(4, 3)], 10)
    assert ok
    assert counts == {"nakayama": 395, "slices": 345}


@pytest.mark.parametrize("m,left_out,want", [
    (3, "R_{2,2,2}", [(6, 27, 28), (8, 222, 228), (10, 1056, 1056)]),
    (3, "R(4)_{4,4}", [(6, 28, 28), (8, 213, 228), (10, 1056, 1056)]),
    (2, "R(4)_{6,2}", [(6, 3, 3), (8, 10, 15), (10, 36, 43)]),
], ids=["m3-no-R222", "m3-no-R44", "m2-no-R62"])
def test_gl_generation_without_one_generator(m, left_out, want):
    # the rows of every generator set short of one named relation, as
    # computed with every ideal row inserted: the ceilings change no
    # verdict and no dimension
    gens = [g for name, g, _ in named_relations(4, m) if name != left_out]
    ok, rows = gl_generation_report(gens, 10)
    assert not ok
    assert [(r["degree"], r["ideal_dim"], r["kernel_dim"]) for r in rows
            if r["kernel_dim"]] == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 2), (4, 2), (5, 2), (4, 3)]), st.data())
def test_rank_rows_have_the_weight_of_their_space(nm, data):
    # a rank space numbers every monomial it meets, so only its callers keep
    # a row of another weight out: every row of the Nakayama span and of an
    # ideal slice has weight alpha, and each weight space of a saturation
    # gets rows of its own weight alone
    n, m = nm
    A = free_algebra(n, m)
    relations = [g for _, g, _ in named_relations(n, m)]
    degree = data.draw(st.integers(0, 10))
    alpha = data.draw(st.sampled_from(
        list(decreasing_multidegrees(m, degree))))
    seen = []
    real = PolynomialSpace.insert

    def spy(space, poly):
        seen.append((space, poly.multidegree()))
        return real(space, poly)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolynomialSpace, "insert", spy)
        kernelcalc._new_generator_count_at(n, m, alpha,
                                           resolve_resource_cap())
        assert {w for _, w in seen} <= {alpha}
        seen.clear()
        gens = data.draw(st.lists(
            st.sampled_from(relations + primary_elements(n, m)),
            min_size=1, max_size=3))
        TruncatedIdeal(gens).component_dimension(alpha,
                                                 A.count_of_weight(alpha))
        assert {w for _, w in seen} <= {alpha}
        seen.clear()
        submodule_basis(data.draw(st.sampled_from(relations)))
        weight_of = {}
        for space, w in seen:
            assert weight_of.setdefault(id(space), w) == w
        assert len(set(weight_of.values())) == len(weight_of)
