"""Acceptance suite: thirteen checks, one test (and one pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines,
add `-s` for timing detail.  Everything is exact rational arithmetic; every
expected value is either a frozen golden or recomputed through a second,
independent route inside the test.
"""

import random
import time
from fractions import Fraction
from math import comb

from dihedralinv.dihedral import (
    DihedralParams,
    all_multidegrees,
    gl_act_xy,
    multinomial,
    polarize,
    q_pol,
    xy_universe,
)
from dihedralinv.exactpoly import (
    MonomialOrder,
    Polynomial,
    buchberger,
    compositions,
    leading_term,
    monomial_text,
    parse_polynomial,
    staircase_generating_function,
    staircase_monomials,
)
from dihedralinv.freealgebra import (
    FreeElement,
    free_algebra,
    is_highest_weight,
    make_R222,
    make_R_2n2k,
    make_R_n2,
    phi,
    submodule_basis,
)
from dihedralinv.gltheory import (
    ambient_truncated,
    cauchy_dim,
    invariants_truncated,
    kernel_decomposition,
    kostka,
    partitions,
    schur_dim,
)
from dihedralinv.kernelcalc import (
    cyclic_table_n4_m3,
    gl_generation_report,
    kernel_basis_at,
    minimal_generators_by_degree,
    secondary_table_m2,
    secondary_table_n4_m3,
    verify_hironaka_xy,
)

# frozen golden multiplicity tables for n=4 through total degree 10
# (cumulative: each partition lambda belongs to the component of degree
# |lambda|); the m=2 tables are the height <= 2 restrictions

AMBIENT_GOLDEN = {
    (): 1, (2,): 1, (4,): 2, (2, 2): 1, (6,): 2, (5, 1): 1, (4, 2): 2,
    (8,): 3, (7, 1): 1, (6, 2): 4, (5, 3): 1, (4, 4): 3, (10,): 3,
    (9, 1): 2, (8, 2): 5, (7, 3): 3, (6, 4): 5, (5, 2, 1): 1,
    (4, 2, 2): 1, (7, 2, 1): 2, (6, 3, 1): 2, (5, 4, 1): 2, (6, 2, 2): 2,
    (5, 3, 2): 1, (4, 4, 2): 2,
}
INVARIANTS_GOLDEN = {
    (): 1, (2,): 1, (4,): 2, (2, 2): 1, (6,): 2, (5, 1): 1, (4, 2): 1,
    (8,): 3, (7, 1): 1, (6, 2): 2, (4, 4): 1, (10,): 3, (9, 1): 2,
    (8, 2): 2, (7, 3): 1, (6, 4): 1,
}
KERNEL_GOLDEN = {
    (4, 2): 1, (6, 2): 2, (4, 4): 2, (8, 2): 3, (6, 4): 4, (5, 3): 1,
    (7, 3): 2, (5, 2, 1): 1, (4, 2, 2): 1, (7, 2, 1): 2, (6, 3, 1): 2,
    (6, 2, 2): 2, (5, 4, 1): 2, (4, 4, 2): 2, (5, 3, 2): 1,
}

KOSTKA_GOLDEN_CONTENTS = [(6, 1, 1), (5, 2, 1), (4, 3, 1), (4, 2, 2),
                          (3, 3, 2)]
KOSTKA_GOLDEN_ROWS = {(6, 2): [1, 2, 2, 3, 3], (4, 4): [0, 0, 1, 1, 1]}


def _named_relations(n, m):
    """The named kernel generators available at (n, m), weight-labelled."""
    out = []
    if m >= 3:
        out.append(((2, 2, 2), make_R222(n, m)))
    out.append(((n, 2), make_R_n2(n, m)))
    for k in range(1, n // 2 + 1):
        out.append(((2 * n - 2 * k, 2 * k), make_R_2n2k(n, k, m)))
    return out


def _pad(weight, m):
    return tuple(weight) + (0,) * (m - len(weight))


def _stopwatch(budget):
    start = time.perf_counter()

    def done(label):
        elapsed = time.perf_counter() - start
        print("  %s: PASS in %.2fs (budget %ds)" % (label, elapsed, budget))
        assert elapsed < budget, "%s exceeded %ds (%.1fs)" \
            % (label, budget, elapsed)

    return done


def test_criterion_01_relations_vanish():
    done = _stopwatch(10)
    for n in range(3, 9):
        for m in (3, 4):
            assert phi(make_R222(n, m)).is_zero(), (n, m)
        for m in (2, 3):
            assert phi(make_R_n2(n, m)).is_zero(), (n, m)
            for k in range(1, n // 2 + 1):
                assert phi(make_R_2n2k(n, k, m)).is_zero(), (n, k, m)
    done("criterion 01, relation containment")


def test_criterion_02_highest_weights():
    done = _stopwatch(5)
    for n in range(3, 9):
        for m in (2, 3):
            for weight, rel in _named_relations(n, m):
                assert is_highest_weight(rel) == _pad(weight, m), \
                    (n, m, weight)
    done("criterion 02, highest weights")


def test_criterion_03_submodule_dimensions():
    done = _stopwatch(60)
    for n in range(3, 9):
        for m in (2, 3):
            for weight, rel in _named_relations(n, m):
                expected = schur_dim(weight, m)
                assert len(submodule_basis(rel)) == expected, \
                    (n, m, weight, expected)
    # the spotlighted four at n=4, m=3
    assert len(submodule_basis(make_R_n2(4, 3))) == 27
    assert len(submodule_basis(make_R_2n2k(4, 1, 3))) == 60
    assert len(submodule_basis(make_R_2n2k(4, 2, 3))) == 15
    assert len(submodule_basis(make_R222(4, 3))) == 1
    done("criterion 03, submodule dimensions")


def test_criterion_04_minimal_generator_counts():
    done = _stopwatch(600)
    split3 = minimal_generators_by_degree(4, 3, 10)
    assert split3 == {6: 28, 8: 75}, split3
    assert sum(split3.values()) == 103
    split2 = minimal_generators_by_degree(4, 2, 10)
    assert split2 == {6: 3, 8: 6}, split2
    assert sum(split2.values()) == 9
    done("criterion 04, minimal generator counts")


def test_criterion_05_lowest_kernel_degree():
    done = _stopwatch(60)
    for n in range(3, 7):
        for d in range(n + 2):
            basis = [e for alpha in all_multidegrees(2, d)
                     for e in kernel_basis_at(n, 2, alpha)]
            assert basis == [], (n, d, len(basis))
    done("criterion 05, kernel vanishes below degree n+2")


def _flatten(table):
    out = {}
    for rep in table.values():
        for lam, mult in rep.items():
            out[lam] = mult
    return out


def test_criterion_06_decomposition_tables():
    done = _stopwatch(5)
    for m in (2, 3):
        def restrict(golden):
            return {lam: mult for lam, mult in golden.items()
                    if len(lam) <= m}

        assert _flatten(kernel_decomposition(4, m, 10)) \
            == restrict(KERNEL_GOLDEN), ("kernel", m)
        assert _flatten(ambient_truncated(4, m, 10)) \
            == restrict(AMBIENT_GOLDEN), ("ambient", m)
        assert _flatten(invariants_truncated(4, m, 10)) \
            == restrict(INVARIANTS_GOLDEN), ("invariants", m)
    done("criterion 06, decomposition tables")


def test_criterion_07_kostka_golden_table():
    done = _stopwatch(1)
    for lam, row in KOSTKA_GOLDEN_ROWS.items():
        got = [kostka(lam, content) for content in KOSTKA_GOLDEN_CONTENTS]
        assert got == row, (lam, got)
    done("criterion 07, weight-space dimension table")


def test_criterion_08_two_route_kernel_dimensions():
    done = _stopwatch(600)
    A = free_algebra(4, 3)

    def schur_dim_by_kostka(lam):
        return sum(kostka(lam, alpha)
                   for alpha in compositions(sum(lam), 3))

    for d in (6, 8, 10):
        # route 1: exact nullspace computation
        computed = sum(len(kernel_basis_at(4, 3, alpha))
                       for alpha in all_multidegrees(3, d))
        # route 2: golden multiplicities weighted by Kostka dimension sums,
        # plus the degree-shifted copy of the whole ring accounting for the
        # multiples of the determinant relation
        reduced = sum(mult * schur_dim_by_kostka(lam)
                      for lam, mult in KERNEL_GOLDEN.items()
                      if sum(lam) == d)
        shifted = sum(len(A.monomials_of_weight(alpha))
                      for alpha in compositions(d - 6, 3))
        assert computed == reduced + shifted, (d, computed, reduced, shifted)
    done("criterion 08, kernel dimensions via two routes")


def test_criterion_09_hironaka_two_slots():
    done = _stopwatch(120)
    for n in range(3, 7):
        rep = verify_hironaka_xy(*secondary_table_m2(n),
                                 DihedralParams(n, 2), 4 * n)
        assert rep.ok, (n, rep.failures[:3])
        assert rep.lstar_size == 2 * n
    done("criterion 09, free-module decomposition for two vectors")


def test_criterion_10_hironaka_three_slots():
    done = _stopwatch(600)
    rep = verify_hironaka_xy(*secondary_table_n4_m3(), DihedralParams(4, 3),
                             16)
    assert rep.ok, rep.failures[:5]
    assert rep.lstar_size == 64
    primaries, rows = cyclic_table_n4_m3()
    cyc = verify_hironaka_xy(primaries, rows, DihedralParams(4, 3), 16,
                             model="cyclic")
    assert cyc.independence, cyc.failures[:5]
    assert cyc.hilbert_match, cyc.failures[:5]
    assert cyc.lstar_size == 128
    done("criterion 10, free-module decompositions for three vectors")


def test_criterion_11_groebner_fixture():
    done = _stopwatch(1)
    U = xy_universe(1)
    order = MonomialOrder([1, 0])  # y > x
    gens = [parse_polynomial("x1*y1", U),
            parse_polynomial("x1^4 + y1^4", U)]
    basis = buchberger(gens, order)
    texts = sorted(str(f) for f in basis)
    assert texts == sorted(["x1*y1", "x1^4 + y1^4", "x1^5"]), texts
    initials = {monomial_text(leading_term(f, order)[0], U) for f in basis}
    assert initials == {"x1*y1", "y1^4", "x1^5"}
    genf = staircase_generating_function(staircase_monomials(basis, order))
    assert genf == [1, 2, 2, 2, 1]  # (1+t)(1+t+t^2+t^3)
    done("criterion 11, Groebner fixture")


def test_criterion_12_gl_generation():
    done = _stopwatch(1800)
    assert gl_generation_report(
        [make_R_n2(4, 2), make_R_2n2k(4, 1, 2), make_R_2n2k(4, 2, 2)], 10)[0]
    assert gl_generation_report(
        [make_R222(4, 3), make_R_n2(4, 3), make_R_2n2k(4, 1, 3),
         make_R_2n2k(4, 2, 3)], 10)[0]
    assert gl_generation_report(
        [make_R222(3, 3), make_R_n2(3, 3), make_R_2n2k(3, 1, 3)], 8)[0]
    assert gl_generation_report(
        [make_R222(3, 4), make_R_n2(3, 4), make_R_2n2k(3, 1, 4)], 8)[0]
    done("criterion 12, GL-ideal generation")


# ---------------------------------------------------------------------------
# criterion 13: five randomized exact property suites, >= 100 instances each


def _random_monomial_element(A, rng, total_choices):
    weight = rng.choice(list(all_multidegrees(
        A.m, rng.choice(total_choices))))
    monos = A.monomials_of_weight(weight)
    if not monos:
        return None
    mono = rng.choice(monos)
    return FreeElement(A, Polynomial.from_monomial(A.universe, mono))


def _suite_equivariance(rng, instances):
    for _ in range(instances):
        n, m = rng.choice([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
        A = free_algebra(n, m)
        e = _random_monomial_element(A, rng, [2, n, n + 2])
        if e is None:
            continue
        u = rng.randrange(1, m + 1)
        v = rng.randrange(1, m + 1)
        assert phi(A.gl_act((u, v), e)) == gl_act_xy(phi(e), u, v), \
            (n, m, u, v, str(e))
    return instances


def _suite_leibniz_bracket(rng, instances):
    for _ in range(instances):
        n, m = rng.choice([(3, 2), (4, 3), (5, 3)])
        A = free_algebra(n, m)
        a = _random_monomial_element(A, rng, [2, n])
        b = _random_monomial_element(A, rng, [2, n])
        if a is None or b is None:
            continue
        u = rng.randrange(1, m + 1)
        v = rng.randrange(1, m + 1)
        if u == v:
            v = (v % m) + 1
        if u == v:
            continue
        E = (u, v)
        assert A.gl_act(E, a * b) == A.gl_act(E, a) * b + a * A.gl_act(E, b)
        commutator = (A.gl_act((u, v), A.gl_act((v, u), a))
                      - A.gl_act((v, u), A.gl_act((u, v), a)))
        assert commutator == A.gl_act((u, u), a) - A.gl_act((v, v), a)
    return instances


def _suite_polarization(rng, instances):
    U1 = xy_universe(1)
    for _ in range(instances):
        d = rng.randrange(1, 7)
        m = rng.randrange(1, 4)
        g = Polynomial.zero(U1)
        for k in range(d + 1):
            c = rng.randrange(-3, 4)
            if c:
                g = g + parse_polynomial(
                    "x1^%d*y1^%d" % (k, d - k), U1).scale(c)
        if g.is_zero():
            continue
        pieces = polarize(g, m)
        Um = xy_universe(m)
        sx = sum((Polynomial.variable(Um, 2 * i) for i in range(m)),
                 Polynomial.zero(Um))
        sy = sum((Polynomial.variable(Um, 2 * i + 1) for i in range(m)),
                 Polynomial.zero(Um))
        expanded = g.substitute({0: sx, 1: sy})
        total = Polynomial.zero(Um)
        for alpha, piece in pieces.items():
            assert piece.multidegree() == alpha
            total = total + piece.scale(multinomial(d, alpha))
        assert total == expanded
    return instances


def _suite_binomial_identity(rng, instances):
    for _ in range(instances):
        k = rng.randrange(1, 7)
        partial = sum(Fraction((-1) ** j * comb(2 * k, j))
                      for j in range(k))
        assert partial + Fraction((-1) ** k * comb(2 * k, k), 2) == 0, k
        # independent route: the alternating partial-sum identity
        # sum_{j<=r} (-1)^j C(N,j) = (-1)^r C(N-1,r) at (N,r) = (2k, k-1)
        assert sum((-1) ** j * comb(2 * k, j) for j in range(k)) \
            == (-1) ** (k - 1) * comb(2 * k - 1, k - 1), k
    return instances


def _suite_cauchy(rng, instances):
    for _ in range(instances):
        m = rng.randrange(1, 6)
        d = rng.randrange(0, 13)
        lams = list(partitions(d)) if d else [()]
        total = sum(schur_dim(lam, 2) * schur_dim(lam, m) for lam in lams)
        assert total == cauchy_dim(m, d) == comb(2 * m + d - 1, d), (m, d)
    return instances


def test_criterion_13_property_suites():
    done = _stopwatch(120)
    rng = random.Random(20260817)
    suites = [
        ("equivariance of the presentation map", _suite_equivariance),
        ("Leibniz and bracket identities", _suite_leibniz_bracket),
        ("polarization reassembly", _suite_polarization),
        ("alternating binomial identity", _suite_binomial_identity),
        ("tensor-square dimension consistency", _suite_cauchy),
    ]
    for name, suite in suites:
        count = suite(rng, 120)
        assert count >= 100, name
    done("criterion 13, five property suites (120 instances each)")
