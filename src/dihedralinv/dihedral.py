"""The dihedral group acting on tuples of plane vectors.

The group of order 2n sits inside GL_2 as the rotation diag(w, w^-1) (w a
primitive n-th root of unity) plus the coordinate swap, acting diagonally on
m copies of the plane.  Rotation invariance of a monomial only depends on
(sum of x-exponents - sum of y-exponents) mod n, so every computation here
stays in exact rational arithmetic and the root of unity never appears.

Provides the polarized generators q (degree 2) and p (degree n) of the
invariant ring, general polarization of binary forms, exact invariance and
dimension oracles per multidegree, symmetrized monomial bases written as
y-exponent vectors, and the permutation and polarization actions on the
coordinate ring.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .exactpoly import (
    Polynomial,
    compositions,
    monomial,
    monomial_multidegree,
    xy_universe,
)


@dataclass(frozen=True)
class DihedralParams:
    """n: half the group order (n >= 3); m: number of plane vectors."""

    n: int
    m: int

    def __post_init__(self):
        # operator.index: a float n would count rotation residues modulo it
        if operator.index(self.n) < 3:
            raise ValueError("need n >= 3, got %d" % self.n)
        _check_slots(self.m)


def _check_slots(m):
    if operator.index(m) < 1:
        raise ValueError("need m >= 1, got %d" % m)


def x_index(i):
    """0-based variable index of x_i (i is 1-based)."""
    return 2 * (i - 1)


def y_index(i):
    return 2 * (i - 1) + 1


# ---------------------------------------------------------------------------
# multidegrees


def as_multidegree(alpha, m=None):
    """alpha as a tuple of ints, of length m if m is given (else a
    ValueError).  A float or string entry is a TypeError, neither truncated
    nor parsed.  Negative entries pass: callers read them as empty."""
    alpha = tuple(map(operator.index, alpha))
    if m is not None and len(alpha) != m:
        raise ValueError("multidegree length %d != m=%d" % (len(alpha), m))
    return alpha


def apply_perm(perm, alpha):
    """The multidegree with entry i moved to slot perm[i] (1-based perm)."""
    out = [0] * len(alpha)
    for i, a in enumerate(alpha):
        out[perm[i] - 1] = a
    return tuple(out)


def all_multidegrees(m, total):
    """Every vector of m non-negative integers with the given sum,
    descending lex."""
    _check_slots(m)
    return compositions(total, m)


def decreasing_multidegrees(m, total):
    """Multidegrees with weakly decreasing entries — one representative per
    orbit of the coordinate permutations."""
    _check_slots(m)

    def rec(remaining, biggest, slots):
        if slots == 1:
            if remaining <= biggest:
                yield (remaining,)
            return
        for first in range(min(remaining, biggest), -1, -1):
            if first == 0 and remaining > 0:
                return
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return rec(total, total, m)


def xy_monomials(m, alpha):
    """All monomials of multidegree alpha in the coordinate ring of m plane
    vectors: choose the x-exponent a_i <= alpha_i in each slot, y picks up
    the rest.  Enumerated in descending lex order of the x-exponent vector."""
    alpha = as_multidegree(alpha, m)
    out = []
    for xs in product(*[range(a, -1, -1) for a in alpha]):
        pairs = []
        for i, (a, total) in enumerate(zip(xs, alpha), start=1):
            if a:
                pairs.append((x_index(i), a))
            if total - a:
                pairs.append((y_index(i), total - a))
        # x_i < y_i < x_{i+1}: the pairs are in variable order already
        out.append(tuple(pairs))
    return out


# ---------------------------------------------------------------------------
# polarization


def multinomial(total, alpha):
    value = 1
    rest = total
    for a in alpha:
        value *= comb(rest, a)
        rest -= a
    return value


def polarize(g, m):
    """Full polarization of a homogeneous binary form: substitute
    x -> x_1+...+x_m, y -> y_1+...+y_m, split into multihomogeneous pieces,
    and divide the alpha-piece by the multinomial binom(d, alpha).

    Returns {alpha: g_alpha}; the pieces satisfy
    g(x_1+...+x_m, y_1+...+y_m) = sum_alpha binom(d, alpha) * g_alpha."""
    if g.universe != xy_universe(1):
        raise ValueError("polarization input must be a binary form")
    if g.is_zero():
        return {}
    if not g.is_homogeneous():
        raise ValueError("polarization input must be homogeneous")
    d = g.degree()
    target = xy_universe(m)
    sx = Polynomial.zero(target)
    sy = Polynomial.zero(target)
    for i in range(1, m + 1):
        sx = sx + Polynomial.variable(target, x_index(i))
        sy = sy + Polynomial.variable(target, y_index(i))
    expanded = g.substitute({0: sx, 1: sy})
    pieces = {}
    for mono, c in expanded.terms.items():
        alpha = monomial_multidegree(mono, target)
        pieces.setdefault(alpha, {})[mono] = c
    return {
        alpha: Polynomial(target, terms).scale(Fraction(1, multinomial(d, alpha)))
        for alpha, terms in pieces.items()
    }


def _multidegree(alpha):
    alpha = as_multidegree(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("negative multidegree entry in %r" % (alpha,))
    return alpha


def q_pol(alpha):
    """Polarization of q = xy at multidegree alpha (sum 2): x_iy_i when
    alpha = 2e_i, and (x_iy_j + x_jy_i)/2 when alpha = e_i + e_j."""
    alpha = _multidegree(alpha)
    if sum(alpha) != 2:
        raise ValueError("q polarization needs total degree 2, got %r"
                         % (alpha,))
    universe = xy_universe(len(alpha))
    support = [i + 1 for i, a in enumerate(alpha) if a]
    if len(support) == 1:
        i = support[0]
        return Polynomial.from_monomial(
            universe, ((x_index(i), 1), (y_index(i), 1)))
    i, j = support
    half = Fraction(1, 2)
    return Polynomial(universe, {
        ((x_index(i), 1), (y_index(j), 1)): half,
        # x_j comes after y_i in variable order
        monomial([(x_index(j), 1), (y_index(i), 1)]): half,
    })


def p_pol(beta):
    """Polarization of p = x^n + y^n at multidegree beta, where n is the
    sum of beta: x_1^{b_1}...x_m^{b_m} + y_1^{b_1}...y_m^{b_m}."""
    beta = _multidegree(beta)
    if sum(beta) < 1:
        raise ValueError("empty multidegree for p polarization")
    universe = xy_universe(len(beta))
    xs = tuple((x_index(i + 1), b) for i, b in enumerate(beta) if b)
    ys = tuple((y_index(i + 1), b) for i, b in enumerate(beta) if b)
    return Polynomial(universe, {xs: 1, ys: 1})


# ---------------------------------------------------------------------------
# invariance oracles


def rotation_weight(mono):
    """Sum of x-exponents minus sum of y-exponents."""
    w = 0
    for v, e in mono:
        w += e if v % 2 == 0 else -e
    return w


def swap_map(m):
    return {v: v + 1 if v % 2 == 0 else v - 1 for v in range(2 * m)}


def swap_xy(f):
    """Image under the simultaneous coordinate swap x_i <-> y_i."""
    return f.permute_variables(swap_map(f.universe.m))


def is_invariant(f, params):
    """True iff every monomial has rotation weight divisible by n and the
    polynomial equals its coordinate swap."""
    for mono in f.terms:
        if rotation_weight(mono) % params.n:
            return False
    return swap_xy(f) == f


def is_rotation_invariant(f, params):
    """Invariance under the index-2 rotation subgroup only."""
    return all(rotation_weight(mono) % params.n == 0 for mono in f.terms)


def _rotation_count(params, alpha):
    """Number of monomials of multidegree alpha fixed by the rotation:
    vectors a <= alpha with 2*sum(a) = sum(alpha) mod n, counted by a small
    residue DP."""
    n = params.n
    total = sum(alpha)
    counts = {0: 1}
    for cap in alpha:
        nxt = {}
        for r, c in counts.items():
            for a in range(cap + 1):
                key = (r + 2 * a) % n
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts.get(total % n, 0)


def invariant_dimension(params, alpha):
    """Dimension of the multidegree-alpha component of the dihedral
    invariant ring: pair the rotation-invariant monomials under the swap;
    the swap-fixed one (all alpha_i even, x and y exponents equal) counts
    once, every 2-cycle contributes one symmetrized invariant."""
    alpha = as_multidegree(alpha, params.m)
    rot = _rotation_count(params, alpha)
    fixed = 1 if all(a % 2 == 0 for a in alpha) else 0
    return (rot + fixed) // 2


def cyclic_invariant_dimension(params, alpha):
    """Same for the rotation subgroup alone (no swap)."""
    return _rotation_count(params, as_multidegree(alpha, params.m))


def _rotation_invariant_ys(params, alpha):
    """The y-exponent vectors of the rotation-invariant monomials of
    multidegree alpha, in ascending lex order, which is the order of
    `xy_monomials`: the rotation weight of y-vector b is
    (|alpha| - |b|) - |b| = |alpha| - 2|b|."""
    total = sum(alpha)
    n = params.n
    return [ys for ys in product(*[range(a + 1) for a in alpha])
            if (total - 2 * sum(ys)) % n == 0]


def cyclic_invariant_basis(params, alpha):
    """The rotation-invariant monomials of multidegree alpha in the shared
    enumeration order, each as the one-tuple of its y-exponent vector."""
    alpha = as_multidegree(alpha, params.m)
    return [(ys,) for ys in _rotation_invariant_ys(params, alpha)]


def invariant_basis(params, alpha):
    """Basis of the multidegree-alpha component of the dihedral invariant
    ring: mu + swap(mu) over swap-orbits of rotation-invariant monomials
    (just mu for the swap-fixed monomial).  Each element is the tuple of
    the y-exponent vectors of its monomials, every coefficient 1.  The swap
    exchanges the x- and y-exponents, so the partner of y-vector b is
    alpha - b."""
    alpha = as_multidegree(alpha, params.m)
    seen = set()
    out = []
    for ys in _rotation_invariant_ys(params, alpha):
        if ys in seen:
            continue
        partner = tuple(total - b for b, total in zip(ys, alpha))
        if partner == ys:
            out.append((ys,))
        else:
            seen.add(partner)
            out.append((ys, partner))
    return out


# ---------------------------------------------------------------------------
# actions


def s_act_xy(perm, f):
    """Permutation action on the vector slots: x_i -> x_{perm(i)} (perm is a
    tuple with perm[i-1] = image of i, 1-based values)."""
    var_map = {}
    for i in range(1, f.universe.m + 1):
        var_map[x_index(i)] = x_index(perm[i - 1])
        var_map[y_index(i)] = y_index(perm[i - 1])
    return f.permute_variables(var_map)


def gl_act_xy(f, u, v):
    """The polarization operator E_{u,v} = x_u d/dx_v + y_u d/dy_v acting on
    the coordinate ring (u, v are 1-based slot indices)."""
    universe = f.universe
    out = {}
    for mono, c in f.terms.items():
        for src, dst in ((x_index(v), x_index(u)), (y_index(v), y_index(u))):
            d = dict(mono)
            e = d.get(src)
            if not e:
                continue
            d[src] -= 1
            if not d[src]:
                del d[src]
            d[dst] = d.get(dst, 0) + 1
            key = tuple(sorted(d.items()))
            val = out.get(key, 0) + c * e
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return Polynomial(universe, out)
