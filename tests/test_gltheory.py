"""Partitions, Kostka numbers, Schur dimensions, decomposition tables.

Everything here is representation theory computed by tableau combinatorics;
the linear-algebra route lives in the kernel tests, and the acceptance suite
cross-checks the two against each other.
"""

import re
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralinv import gltheory
from dihedralinv.dihedral import DihedralParams, invariant_dimension
from dihedralinv.exactpoly import compositions
from dihedralinv.gltheory import (
    DecompositionReport,
    ambient_truncated,
    cauchy_dim,
    dbar_truncated,
    hilbert_h,
    invariant_multiplicity,
    invariants_truncated,
    kernel_decomposition,
    kostka,
    normalize_partition,
    partitions,
    pieri_row,
    schur_dim,
    sym2_of_symn,
    weyl_dim,
)


def test_normalize_partition():
    assert normalize_partition((3, 2, 0, 0)) == (3, 2)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition((1, 2))
    with pytest.raises(ValueError):
        normalize_partition((2, -1))


@pytest.mark.parametrize("call,error,message", [
    (lambda: normalize_partition((2.7, 1)), TypeError,
     "partition part must be an integer, got 2.7"),
    (lambda: kostka((2,), (1.9, 1.2)), TypeError,
     "content entry must be an integer, got 1.9"),
    (lambda: schur_dim((1,), 2.5), TypeError, "m must be an integer"),
    (lambda: pieri_row((2,), 1.5, 3), TypeError,
     "strip size must be an integer"),
    (lambda: schur_dim((1,), -1), ValueError, "m must be at least 0, got -1"),
    (lambda: weyl_dim((1,), -1), ValueError, "m must be at least 0, got -1"),
    (lambda: hilbert_h(0, 4), ValueError, "n must be at least 1, got 0"),
    (lambda: invariant_multiplicity((2,), 0), ValueError,
     "n must be at least 1, got 0"),
], ids=["partition-float", "kostka-float", "schur-float-m", "pieri-float",
        "schur-negative-m", "weyl-negative-m",
        "hilbert-n0", "invariant-n0"])
def test_non_integer_and_out_of_range_input_rejected(call, error, message):
    # the exactness contract: no float is truncated, and no bad size
    # silently gives 0 or a ZeroDivisionError
    with pytest.raises(error, match=message):
        call()


def test_partitions_enumeration():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    assert list(partitions(4, max_height=2)) == [(4,), (3, 1), (2, 2)]


def test_bounded_partitions_are_the_short_ones_in_order():
    # a first part too small to leave room for the rest is never tried,
    # which drops no partition and moves none
    for d in range(13):
        for height in range(d + 2):
            assert list(partitions(d, height)) == [
                lam for lam in partitions(d) if len(lam) <= height]


def test_partitions_refuse_a_negative_height():
    # only None means unbounded: a negative height is refused when called,
    # and height 0 leaves only the empty partition of 0
    with pytest.raises(ValueError,
                       match="max_height must be at least 0, got -1"):
        partitions(4, -1)
    with pytest.raises(TypeError, match="max_height must be an integer"):
        partitions(4, 1.5)
    assert list(partitions(4, 0)) == []
    assert list(partitions(0, 0)) == [()]
    assert list(partitions(4, None)) == list(partitions(4, 4))


# ---------------------------------------------------------------------------
# Kostka numbers


def _kostka_backtrack(lam, alpha):
    """Reference count: fill the cells of lam row by row with symbols
    0..len(alpha)-1, rows weakly and columns strictly increasing."""
    lam = normalize_partition(lam)
    rows, nsym = len(lam), len(alpha)
    remaining = list(alpha)
    tableau = [[] for _ in range(rows)]

    def fill(r, c):
        if r == rows:
            return 1
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = r  # column-strictness forces symbol >= row
        if c > 0:
            lo = max(lo, tableau[r][c - 1])
        if r > 0:
            lo = max(lo, tableau[r - 1][c] + 1)
        total = 0
        for v in range(lo, nsym):
            if remaining[v]:
                remaining[v] -= 1
                tableau[r].append(v)
                total += fill(nr, nc)
                tableau[r].pop()
                remaining[v] += 1
        return total

    return fill(0, 0)


def test_kostka_matches_backtracker():
    # every shape of size <= 8 against every content of up to 4 entries,
    # zeros and all orders included
    for d in range(9):
        for lam in partitions(d):
            for parts in range(1, 5):
                for alpha in compositions(d, parts):
                    assert kostka(lam, alpha) \
                        == _kostka_backtrack(lam, alpha), (lam, alpha)


def test_kostka_depth_does_not_grow_with_content():
    # more content entries than the recursion limit, on a fresh memo
    gltheory._kostka_cache.clear()
    assert kostka((1100,), (1,) * 1100) == 1
    assert kostka((1,) * 1100, (1,) * 1100) == 1


def test_kostka_memo_filled_in_reverse_order():
    # the shared memo holds sub-counts reached from other contents; filling
    # it from the last content to the first must not change any count
    gltheory._kostka_cache.clear()
    cases = [(lam, alpha) for d in range(8) for lam in partitions(d)
             for parts in range(1, 5) for alpha in compositions(d, parts)]
    got = {case: kostka(*case) for case in reversed(cases)}
    assert all(got[lam, alpha] == _kostka_backtrack(lam, alpha)
               for lam, alpha in cases)


def test_kostka_golden_table():
    # weight-space dimensions of S(6,2) and S(4,4) at five contents
    contents = [(6, 1, 1), (5, 2, 1), (4, 3, 1), (4, 2, 2), (3, 3, 2)]
    assert [kostka((6, 2), c) for c in contents] == [1, 2, 2, 3, 3]
    assert [kostka((4, 4), c) for c in contents] == [0, 0, 1, 1, 1]


def test_kostka_diagonal_is_one():
    for lam in partitions(6):
        assert kostka(lam, lam) == 1


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((3, 1), (2, 1))


small_partitions = st.integers(1, 6).flatmap(
    lambda d: st.sampled_from(list(partitions(d))))


@settings(max_examples=100, deadline=None)
@given(small_partitions, st.data())
def test_kostka_content_permutation_invariance(lam, data):
    content = data.draw(st.sampled_from(list(compositions(sum(lam), 3))))
    base = kostka(lam, content)
    for perm in permutations(content):
        assert kostka(lam, perm) == base


def _dominates(lam, mu):
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(small_partitions, st.data())
def test_kostka_positive_iff_dominance(lam, data):
    content = data.draw(st.sampled_from(list(compositions(sum(lam), 3))))
    k = kostka(lam, content)
    sorted_content = tuple(sorted(content, reverse=True))
    assert (k > 0) == _dominates(lam, sorted_content)


# ---------------------------------------------------------------------------
# Schur / Weyl dimensions


def test_schur_dim_goldens():
    assert schur_dim((4, 2), 2) == 3
    assert schur_dim((4, 2), 3) == 27
    assert schur_dim((6, 2), 3) == 60
    assert schur_dim((4, 4), 3) == 15
    assert schur_dim((2, 2, 2), 3) == 1
    assert schur_dim((4, 2, 2), 3) == 6
    assert schur_dim((8, 2), 3) == 105
    assert schur_dim((2, 1, 1), 3) == 3
    assert schur_dim((3, 1), 4) == 45


def test_schur_dim_calls_kostka_by_module_name(monkeypatch):
    # the benchmark traces gltheory.kostka under schur_dim; an inlined call
    # would leave that layer empty.  K(lam, mu) = 0 unless lam dominates mu,
    # so the sum asks for exactly the dominated partitions mu of height
    # <= m, and still equals the Weyl dimension
    calls = []

    def counting(lam, alpha):
        calls.append(alpha)
        return real(lam, alpha)

    real = gltheory.kostka
    monkeypatch.setattr(gltheory, "kostka", counting)
    gltheory._schur_dim_cached.cache_clear()
    assert schur_dim((4, 2), 3) == 27
    assert calls
    gltheory._schur_dim_cached.cache_clear()
    for d in range(13):
        for lam in partitions(d):
            for m in range(7):
                calls.clear()
                assert schur_dim(lam, m) == weyl_dim(lam, m), (lam, m)
                assert calls == [mu for mu in partitions(d, m)
                                 if _dominates(lam, mu)], (lam, m)


def test_schur_dim_vanishes_above_height():
    assert schur_dim((2, 2, 2), 2) == 0
    assert weyl_dim((1, 1, 1, 1), 3) == 0


def test_schur_equals_weyl():
    # Kostka sum against the Weyl dimension product
    for d in range(0, 15):
        for m in range(1, 7):
            for lam in partitions(d, max_height=m) if d else [()]:
                assert schur_dim(lam, m) == weyl_dim(lam, m), (lam, m)


def test_empty_partition():
    assert schur_dim((), 3) == 1
    assert kostka((), ()) == 1


# ---------------------------------------------------------------------------
# decomposition reports


def test_report_basics():
    rep = DecompositionReport(3, {(2, 2): 2, (4,): 1})
    assert rep.multiplicity((2, 2)) == 2
    assert rep.multiplicity((6,)) == 0
    assert rep.total_dim() == 2 * schur_dim((2, 2), 3) + schur_dim((4,), 3)
    assert str(rep) == "S(4) + 2*S(2,2)"
    assert rep.to_rows() == [{"partition": [4], "multiplicity": 1},
                             {"partition": [2, 2], "multiplicity": 2}]


# ---------------------------------------------------------------------------
# Pieri and plethysms


@pytest.mark.parametrize("lam,k,m", [
    ((2,), 2, 2), ((2, 1), 3, 3), ((4, 2), 4, 3), ((3, 3), 2, 3),
    ((2, 2), 3, 2), ((5,), 5, 3),
])
def test_pieri_dimension_identity(lam, k, m):
    total = pieri_row(lam, k, m).total_dim()
    assert total == schur_dim(lam, m) * schur_dim((k,), m)


def test_pieri_row_fixture():
    # one box along a two-row shape: horizontal strips only
    rep = pieri_row((2, 1), 2, 3)
    assert dict(rep.items()) == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1,
                                 (2, 2, 1): 1}


@pytest.mark.parametrize("d,m", [(d, m) for d in range(6) for m in (1, 2, 3)])
def test_symmetric_powers_of_quadratics(d, m):
    # dim S^d(S^2 C^m) = multiset coefficient on binom(m+1,2) symbols, and
    # S^d(S^2) holds one S^(2 lam) for every partition lam of d, height <= m
    total = sum(schur_dim(tuple(2 * p for p in lam), m)
                for lam in partitions(d, m))
    assert total == comb(comb(m + 1, 2) + d - 1, d)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3),
                                 (6, 3)])
def test_symmetric_square_of_power(n, m):
    dim_symn = comb(n + m - 1, n)
    assert sym2_of_symn(n, m).total_dim() == comb(dim_symn + 1, 2)


def test_dbar_matches_sym_powers_for_two_slots():
    # with two vector variables, S^(2 lam) is zero for lam of height > 2
    table = dbar_truncated(2, 8)
    for t in range(0, 9, 2):
        assert table[t].m == 2
        assert table[t].entries == {
            tuple(2 * p for p in lam): 1 for lam in partitions(t // 2)
            if len(lam) <= 2}
    for t in range(1, 9, 2):
        assert not table[t]


# ---------------------------------------------------------------------------
# series and invariant multiplicities


def test_hilbert_coefficients_n4():
    assert [hilbert_h(4, d) for d in range(9)] == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_hilbert_closed_form_matches_the_count():
    # hilbert_h counts the solutions of 2a + n*b = d in closed form
    for n in range(1, 15):
        for d in range(-3, 400):
            want = sum(1 for b in range(d // n + 1) if (d - n * b) % 2 == 0)
            assert hilbert_h(n, d) == want, (n, d)


@pytest.mark.parametrize("n", range(3, 9))
def test_hilbert_matches_convolution(n):
    # independent expansion of 1/((1-t^2)(1-t^n))
    D = 25
    series = [0] * (D + 1)
    for a in range(0, D + 1, 2):
        for b in range(0, D + 1 - a, n):
            series[a + b] += 1
    assert [hilbert_h(n, d) for d in range(D + 1)] == series


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_invariant_multiplicities_against_monomial_count(n, m):
    # representation theory vs direct counting: the weight-alpha dimension
    # of the invariant ring equals the Kostka-weighted multiplicity sum
    params = DihedralParams(n, m)
    for t in range(0, 9):
        reps = [(lam, invariant_multiplicity(lam, n))
                for lam in partitions(t, max_height=m)] if t else [((), 1)]
        for alpha in compositions(t, m):
            expected = sum(mult * kostka(lam, alpha) for lam, mult in reps)
            assert invariant_dimension(params, alpha) == expected, alpha


def test_invariants_truncated_layout():
    table = invariants_truncated(4, 3, 6)
    assert table[0].multiplicity(()) == 1
    assert table[2].multiplicity((2,)) == 1
    assert table[4].multiplicity((4,)) == 2
    assert table[4].multiplicity((2, 2)) == 1
    assert table[6].multiplicity((4, 2)) == 1
    assert not table[3]


def test_ambient_rejects_degrees_beyond_bound():
    with pytest.raises(ValueError):
        ambient_truncated(4, 3, 12)


@pytest.mark.parametrize("build, n", [
    (lambda n: ambient_truncated(n, 2, 2), 0),
    (lambda n: kernel_decomposition(n, 1, 6), 2),
    (lambda n: kernel_decomposition(n, 2, 4), 1),
], ids=["ambient-n0", "kernel-n2", "kernel-n1"])
def test_ambient_tables_refuse_n_below_3(build, n):
    # the formula holds for n >= 3 only: below it the ambient table came
    # out wrong, or the kernel difference blamed the tables for the argument
    with pytest.raises(ValueError, match="n must be at least 3, got %d" % n):
        build(n)


@pytest.mark.parametrize("build", [
    lambda D: invariants_truncated(4, 3, D),
    lambda D: ambient_truncated(4, 3, D),
    lambda D: dbar_truncated(3, D),
    lambda D: kernel_decomposition(4, 3, D),
], ids=["invariants", "ambient", "dbar", "kernel"])
def test_table_builders_reject_bad_degree_bound(build):
    # a negative bound is not an empty table, and a float is named
    for D in (-1, -2):
        with pytest.raises(ValueError,
                           match="degree bound must be at least 0, got %d"
                           % D):
            build(D)
    with pytest.raises(TypeError,
                       match="degree bound must be an integer, got 6.0"):
        build(6.0)


def test_kernel_decomposition_low_degrees():
    table = kernel_decomposition(4, 3, 8)
    assert not table[2] and not table[4]
    assert dict(table[6].items()) == {(4, 2): 1}
    assert dict(table[8].items()) == {(6, 2): 2, (5, 3): 1, (4, 4): 2,
                                      (5, 2, 1): 1, (4, 2, 2): 1}


@pytest.mark.parametrize("lam", [(4,), (3, 1)])
def test_kernel_decomposition_refuses_a_negative_multiplicity(
        monkeypatch, lam):
    # one extra copy of S^lam in degree 4 of the invariant table, where the
    # ambient table holds (4) as often and (3, 1) not at all: a table that
    # holds more than the ambient one is wrong, and the difference names
    # the partition instead of dropping it
    real = gltheory.invariants_truncated

    def one_copy_too_many(n, m, D):
        table = real(n, m, D)
        entries = dict(table[4].entries)
        entries[lam] = entries.get(lam, 0) + 1
        table[4] = DecompositionReport(m, entries)
        return table

    monkeypatch.setattr(gltheory, "invariants_truncated", one_copy_too_many)
    with pytest.raises(ValueError, match=r"negative multiplicity -1 for %s"
                       % re.escape(repr(lam))):
        kernel_decomposition(4, 3, 8)


def test_cauchy_identity():
    for m in (1, 2, 3, 4):
        for d in range(7):
            total = sum(schur_dim(lam, 2) * schur_dim(lam, m)
                        for lam in (partitions(d) if d else [()]))
            assert total == cauchy_dim(m, d)


def test_weyl_dim_is_integral():
    for lam in [(5, 3, 1), (6, 2), (4, 4, 4), (7,)]:
        value = weyl_dim(lam, 3)
        assert isinstance(value, int)
        assert value == schur_dim(lam, 3)
