"""Partition combinatorics and GL_m-module bookkeeping.

Everything here is exact integer combinatorics: Kostka numbers by
horizontal-strip removal, Schur module dimensions, Pieri products, the
plethysm identities for symmetric powers of the quadratic and degree-n
generator spaces, and the graded multiplicity table of the dihedral invariant
ring.  The linear-algebra modules verify their kernels against these tables,
so this module deliberately shares no code with them, and importing it loads
no other module of the package.

Kostka numbers live in one module-level memo on (shape, sorted content),
sub-counts included, so a session of table queries counts each strip once.
A Schur dimension sums them over the dominated contents alone: K(lam, mu)
is zero unless lam dominates mu (Macdonald, I.6).  Public functions
validate their arguments; the table builders hand the partitions they
generate straight to `DecompositionReport`, which trusts its table.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, prod


def _whole(value, what, least=None):
    """operator.index(value), at least `least` if given; floats are refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError("%s must be an integer, got %r"
                        % (what, value)) from None
    if least is not None and value < least:
        raise ValueError("%s must be at least %d, got %d"
                         % (what, least, value))
    return value


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(lam):
    """Canonical form: tuple of weakly decreasing positive parts (trailing
    zeros stripped).  Errors on non-integer, negative or increasing data."""
    lam = tuple(_whole(p, "partition part") for p in lam)
    for p in lam:
        if p < 0:
            raise ValueError("negative part in partition %r" % (lam,))
    for a, b in zip(lam, lam[1:]):
        if b > a:
            raise ValueError("parts not weakly decreasing: %r" % (lam,))
    return tuple(p for p in lam if p)


def partitions(d, max_height=None):
    """All partitions of d (optionally with at most max_height parts), in
    descending lexicographic order.  A first part below remaining/slots
    would leave the rest more than slots - 1 parts can hold, so it is not
    tried, and every branch yields.  A negative max_height is a ValueError
    when called, not at the first item."""
    if max_height is None:
        max_height = d
    else:
        max_height = _whole(max_height, "max_height", 0)

    def rec(remaining, biggest, slots):
        if not remaining:
            yield ()
            return
        if not slots:
            return
        top = min(remaining, biggest)
        low = max(1, -(-remaining // slots))
        for first in range(top, low - 1, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return rec(d, d, max_height)


# ---------------------------------------------------------------------------
# horizontal strips, Kostka numbers and Schur dimensions


def _spread(room, cells):
    """Every way to put `cells` cells into slots of the given room, as tuples
    of per-slot counts; no slot leaves more cells than the rest can take."""
    ways = [((), cells)]
    spare = sum(room)
    for r in room:
        spare -= r
        ways = [(way + (x,), left - x) for way, left in ways
                for x in range(max(0, left - spare), min(r, left) + 1)]
    return [way for way, left in ways if not left]


# K(shape, content) for every shape and sorted content any kostka call has
# reached, sub-counts included: K(mu, content[:-1]) recurs across contents
_kostka_cache = {}


def _strips_off(nu, cells, rows_left):
    """The shapes mu of at most rows_left rows with nu/mu a horizontal strip
    of `cells` cells; only the last row of a run of equal parts can lose
    cells (mu[i] >= nu[i+1])."""
    below = nu[1:] + (0,)
    rows = [nu.index(p) + nu.count(p) - 1 for p in set(nu)]
    shapes = []
    for way in _spread([nu[i] - below[i] for i in rows], cells):
        mu = list(nu)
        for i, x in zip(rows, way):
            mu[i] -= x
        mu = tuple(mu) if mu[-1] else tuple(mu[:-1])
        if len(mu) <= rows_left:
            shapes.append(mu)
    return shapes


def _kostka_sorted(lam, content):
    # the cells holding the last symbol form a horizontal strip nu/mu, so
    # K(nu, c) is the sum of K(mu, c[:-1]) over the strips of c[-1] cells;
    # a shape left for k symbols has at most k rows.  An explicit stack
    # keeps the depth off Python's recursion limit.
    memo = _kostka_cache
    stack = [((lam, content), None)]
    while stack:
        key, parts = stack.pop()
        if key in memo:
            continue
        nu, c = key
        if not c:
            memo[key] = 0 if nu else 1
        elif parts is None:
            rest = c[:-1]
            parts = [(mu, rest) for mu in _strips_off(nu, c[-1], len(rest))]
            stack.append((key, parts))
            stack.extend((part, None) for part in parts if part not in memo)
        else:
            memo[key] = sum(memo[part] for part in parts)
    return memo[(lam, content)]


def kostka(lam, alpha):
    """Number of semistandard tableaux of shape lam and content alpha,
    by horizontal-strip removal (Fulton, Young Tableaux, section 2;
    Macdonald, Symmetric Functions, I.6).  K(lam, alpha) does not depend on
    the order of alpha, so every count, sub-counts K(mu, content[:-1])
    included, is kept in one module-level memo on lam and sorted content
    that all calls share."""
    lam = normalize_partition(lam)
    alpha = tuple(_whole(a, "content entry") for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("negative content entry in %r" % (alpha,))
    if sum(lam) != sum(alpha):
        raise ValueError("shape size %d != content size %d"
                         % (sum(lam), sum(alpha)))
    return _kostka_sorted(lam, tuple(sorted(a for a in alpha if a)))


@lru_cache(maxsize=None)
def _dominant_weights(d, m):
    # each partition mu of d of height <= m, with the number m! / prod(mult!)
    # of its rearrangements padded with zeros to length m
    return [(mu, factorial(m) // factorial(m - len(mu))
             // prod(map(factorial, Counter(mu).values())))
            for mu in partitions(d, m)]


@lru_cache(maxsize=None)
def _schur_dim_cached(lam, m):
    # mu's rearrangements have K(lam, mu), zero unless lam dominates mu
    bounds = tuple(accumulate(lam))
    return sum(orbit * kostka(lam, mu)
               for mu, orbit in _dominant_weights(sum(lam), m)
               if all(map(operator.le, accumulate(mu), bounds)))


def schur_dim(lam, m):
    """Dimension of the irreducible polynomial GL_m module labeled by the
    partition lam: zero when the height exceeds m, else the sum of Kostka
    numbers over the contents of length m that lam dominates."""
    return _schur_dim_cached(normalize_partition(lam), _whole(m, "m", 0))


def weyl_dim(lam, m):
    """The same dimension by the Weyl product formula
    prod_{i<j} (lam_i - lam_j + j - i)/(j - i), in integers: the product of
    the numerators is divided exactly by that of the denominators.  An
    independent cross-check for the Kostka-sum route."""
    lam = normalize_partition(lam)
    m = _whole(m, "m", 0)
    if len(lam) > m:
        return 0
    full = lam + (0,) * (m - len(lam))
    top = bottom = 1
    for i in range(m):
        for j in range(i + 1, m):
            top *= full[i] - full[j] + j - i
            bottom *= j - i
    assert top % bottom == 0
    return top // bottom


# ---------------------------------------------------------------------------
# decomposition reports


def _sort_key(lam):
    return (len(lam), tuple(-p for p in lam))


class DecompositionReport:
    """A nonnegative integer combination of irreducible GL_m modules.

    The table is taken as it is, not checked or copied: it must already
    be normal, with positive int multiplicities on normalised partitions of
    height <= m (the builders below only make such tables).  A report is a
    read-only table with no arithmetic: the builders add and subtract
    multiplicities where they assemble a table."""

    __slots__ = ("m", "entries")

    def __init__(self, m, table):
        self.m = m
        self.entries = table

    def multiplicity(self, lam):
        return self.entries.get(normalize_partition(lam), 0)

    def items(self):
        """Deterministic iteration: by height, then descending lex."""
        return sorted(self.entries.items(), key=lambda kv: _sort_key(kv[0]))

    def __bool__(self):
        return bool(self.entries)

    def total_dim(self):
        """Dimension of the underlying vector space."""
        return sum(mult * schur_dim(lam, self.m)
                   for lam, mult in self.entries.items())

    def to_rows(self):
        return [{"partition": list(lam), "multiplicity": mult}
                for lam, mult in self.items()]

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for lam, mult in self.items():
            name = "S(%s)" % ",".join(str(p) for p in lam)
            parts.append(name if mult == 1 else "%d*%s" % (mult, name))
        return " + ".join(parts)

    def __repr__(self):
        return "DecompositionReport(m=%d, %s)" % (self.m, str(self))


# ---------------------------------------------------------------------------
# Pieri products and the symmetric-power identities


def pieri_row(lam, k, m):
    """Decomposition of S^lam tensor S^(k): one copy of every mu obtained
    from lam by adding a horizontal strip of k cells, height capped at m."""
    lam = normalize_partition(lam)
    k = _whole(k, "strip size")
    if k < 0:
        raise ValueError("strip size must be nonnegative")
    m = _whole(m, "m", 0)
    # row i of the strip holds at most lam[i-1] - lam[i] cells (row 0 any
    # number), and one fresh row of at most lam[-1] cells may start below
    padded = lam + (0,)
    room = (k,) + tuple(a - b for a, b in zip(padded, padded[1:]))
    table = {}
    for way in _spread(room, k):
        mu = tuple(p + x for p, x in zip(padded, way) if p + x)
        if len(mu) <= m:
            table[mu] = 1
    return DecompositionReport(m, table)


def sym2_of_symn(n, m):
    """Decomposition of the symmetric square of the degree-n binary-form
    space: S^(2n-2j, 2j) for j = 0..n//2."""
    n = _whole(n, "n", 0)
    m = _whole(m, "m", 0)
    shapes = (tuple(p for p in (2 * n - 2 * j, 2 * j) if p)
              for j in range(n // 2 + 1))
    return DecompositionReport(
        m, {lam: 1 for lam in shapes if len(lam) <= m})


def dbar_truncated(m, D):
    """Graded decomposition, through total degree D, of the subalgebra
    generated by the fully polarized quadratic invariants: in each even
    degree 2d one copy of S^(2 lam) for every lam of d with height <= 2."""
    m = _whole(m, "m", 0)
    D = _whole(D, "degree bound", 0)
    table = {}
    for t in range(D + 1):
        table[t] = DecompositionReport(
            m, {} if t % 2 else {tuple(2 * p for p in lam): 1
                                  for lam in partitions(t // 2, min(2, m))})
    return table


# ---------------------------------------------------------------------------
# the dihedral invariant multiplicity table


def hilbert_h(n, d):
    """Coefficient of t^d in 1/((1-t^2)(1-t^n)): the number of ways to write
    d = 2a + n*b with a, b >= 0."""
    n = _whole(n, "n", 1)
    d = _whole(d, "degree")
    if d < 0:
        return 0
    # d - n*b must be even for some 0 <= b <= d//n: every b when n is even
    # (and d even), else the b of the parity of d
    top, odd = d // n, d % 2
    if n % 2 == 0:
        return 0 if odd else top + 1
    return (top - odd) // 2 + 1 if top >= odd else 0


def invariant_multiplicity(lam, n):
    """Multiplicity of S^lam in the vector invariant ring of the dihedral
    group of order 2n: zero for height > 2, else h(lam1-lam2) when lam2 is
    even and h(lam1-lam2-n) when lam2 is odd."""
    lam = normalize_partition(lam)
    n = _whole(n, "n", 1)
    if len(lam) > 2:
        return 0
    l1 = lam[0] if lam else 0
    l2 = lam[1] if len(lam) > 1 else 0
    if l2 % 2 == 0:
        return hilbert_h(n, l1 - l2)
    return hilbert_h(n, l1 - l2 - n)


def invariants_truncated(n, m, D):
    """Graded multiplicity table of the dihedral vector invariant ring,
    through total degree D, as GL_m decompositions."""
    m = _whole(m, "m", 0)
    D = _whole(D, "degree bound", 0)
    table = {}
    for t in range(D + 1):
        entries = {}
        for lam in partitions(t, min(2, m)):
            mult = invariant_multiplicity(lam, n)
            if mult:
                entries[lam] = mult
        table[t] = DecompositionReport(m, entries)
    return table


# ---------------------------------------------------------------------------
# the ambient algebra and the reduced kernel


def ambient_truncated(n, m, D):
    """Graded decomposition, through total degree D <= 2n+2, of the reduced
    presentation's domain: the quadratic-generator subalgebra tensored with
    the span of products of at most two degree-n generators.

    Per total degree t this contributes: the even-degree quadratic part; for
    t >= n with t-n even, one degree-n factor times the quadratic part of
    degree t-n (a Pieri product); at t = 2n the symmetric square of the
    degree-n space; and at t = 2n+2 that square times one quadratic factor."""
    n = _whole(n, "n", 3)
    m = _whole(m, "m", 0)
    D = _whole(D, "degree bound", 0)
    if D > 2 * n + 2:
        raise ValueError("decomposition formula only covers degree <= 2n+2 "
                         "(asked for %d > %d)" % (D, 2 * n + 2))
    dbar = dbar_truncated(m, D)
    table = {}
    for t in range(D + 1):
        parts = Counter(dbar[t].entries)
        if t >= n and (t - n) % 2 == 0:
            for lam in partitions((t - n) // 2, 2):
                parts.update(
                    pieri_row(tuple(2 * p for p in lam), n, m).entries)
        if t == 2 * n:
            parts.update(sym2_of_symn(n, m).entries)
        if t == 2 * n + 2:
            # every multiplicity of the symmetric square is 1
            for lam in sym2_of_symn(n, m).entries:
                parts.update(pieri_row(lam, 2, m).entries)
        table[t] = DecompositionReport(m, parts)
    return table


def kernel_decomposition(n, m, D):
    """Graded GL_m decomposition of the reduced presentation's kernel:
    the ambient table minus the invariant-ring table, degree by degree.
    A negative multiplicity in the difference raises (it would mean one of
    the two tables is wrong)."""
    ambient = ambient_truncated(n, m, D)
    invariants = invariants_truncated(n, m, D)
    table = {}
    for t in range(D + 1):
        left = Counter(ambient[t].entries)
        left.subtract(invariants[t].entries)
        for lam, mult in left.items():
            if mult < 0:
                raise ValueError("negative multiplicity %d for %r in "
                                 "difference" % (mult, lam))
        table[t] = DecompositionReport(m, +left)
    return table


def cauchy_dim(m, d):
    """Dimension of the degree-d part of the coordinate ring of m plane
    vectors, binom(2m+d-1, d); the Cauchy identity check compares this with
    a sum of products of Schur dimensions."""
    return comb(2 * m + d - 1, d)
