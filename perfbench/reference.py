"""Reference answers for the benchmark, computed without the package.

Nothing here imports dihedralinv.  Every number the benchmark checks comes
from one of four independent routes:

- the number of monomials of F(n, m) in each multidegree, as a coefficient
  of the generating function prod_v 1 / (1 - t^{w_v}) over the symbols
  rho_a (|a| = 2) and pi_b (|b| = n);
- the dimension of each multidegree component of the dihedral invariant
  ring, as the number of swap orbits of rotation-invariant xy-monomials;
- the Weyl product formula for the dimension of a Schur module;
- the paper's published constants for n = 4.

The kernel dimension in multidegree alpha is #F-monomials_alpha minus the
invariant dimension, because phi(n, m) maps onto the invariant ring in every
multidegree.  The minimal generators in each degree span the GL_m-modules of
the named relations' highest weights, so their count is a sum of Weyl
dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# n = 4 constants from the paper: minimal generators for two and three
# vectors, and the symmetrised secondary counts of the two-vector,
# three-vector and rotation-subgroup free-module tables.
PAPER_MINGENS = {2: {6: 3, 8: 6}, 3: {6: 28, 8: 75}}
PAPER_SECONDARIES = (8, 64, 128)


def compositions(total, parts):
    """All vectors of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest
            for first in range(total, -1, -1)
            for rest in compositions(total - first, parts - 1)]


def partitions_count(total, parts):
    """Number of weakly decreasing vectors of `parts` entries summing to
    `total`: one representative per orbit of the coordinate permutations."""
    return sum(1 for a in compositions(total, parts)
               if all(x >= y for x, y in zip(a, a[1:])))


@lru_cache(maxsize=None)
def free_monomial_counts(n, m, D):
    """{alpha: number of F(n, m) monomials of multidegree alpha} for every
    alpha with |alpha| <= D, as generating-function coefficients."""
    weights = compositions(2, m) + compositions(n, m)
    grid = [a for t in range(D + 1) for a in compositions(t, m)]
    count = {a: 0 for a in grid}
    count[(0,) * m] = 1
    for w in weights:
        # one factor 1/(1 - t^w): visit alpha in increasing total degree so
        # alpha - w is already updated for this factor
        for a in grid:
            prev = tuple(x - y for x, y in zip(a, w))
            if min(prev) >= 0:
                count[a] += count[prev]
    return count


def invariant_dimension(n, alpha):
    """Swap orbits of rotation-invariant monomials of multidegree alpha.

    A monomial is prod x_i^{a_i} y_i^{alpha_i - a_i}; the rotation scales it
    by omega^(2|a| - |alpha|) and the swap sends a to alpha - a."""
    total = sum(alpha)
    orbits = set()
    for a in _boxes(alpha):
        if (2 * sum(a) - total) % n == 0:
            b = tuple(x - y for x, y in zip(alpha, a))
            orbits.add(min(a, b))
    return len(orbits)


def _boxes(alpha):
    out = [()]
    for cap in alpha:
        out = [prefix + (x,) for prefix in out for x in range(cap + 1)]
    return out


def kernel_dimensions(n, m, D):
    """{degree: dim ker phi(n, m) in that total degree} for 0..D."""
    free = free_monomial_counts(n, m, D)
    return {t: sum(free[a] - invariant_dimension(n, a)
                   for a in compositions(t, m))
            for t in range(D + 1)}


def invariant_dimensions(n, m, D):
    """{degree: dim of the invariant ring in that total degree} for 0..D."""
    return {t: sum(invariant_dimension(n, a) for a in compositions(t, m))
            for t in range(D + 1)}


def weyl_dim(lam, m):
    """dim S_lam(C^m) = prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    lam = [p for p in lam if p]
    if len(lam) > m:
        return 0
    full = lam + [0] * (m - len(lam))
    value = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            value *= Fraction(full[i] - full[j] + j - i, j - i)
    return int(value)


def minimal_generator_counts(n, m, D):
    """{degree: count} of minimal kernel generators through degree D: the
    Weyl dimensions of S(2,2,2) in degree 6, S(n,2) in degree n + 2, and
    S(2n-2k, 2k) for k = 1..n//2 in degree 2n."""
    weights = [(6, (2, 2, 2)), (n + 2, (n, 2))]
    weights += [(2 * n, (2 * n - 2 * k, 2 * k)) for k in range(1, n // 2 + 1)]
    out = {}
    for degree, lam in weights:
        dim = weyl_dim(lam, m)
        if degree <= D and dim:
            out[degree] = out.get(degree, 0) + dim
    return out
