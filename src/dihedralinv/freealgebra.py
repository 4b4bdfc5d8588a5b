"""The free presentation of the dihedral vector invariant ring.

F(n,m) is the polynomial ring on symbols rho[a] (one per multidegree a with
sum 2) and pi[b] (sum n), graded by total degree (deg rho = 2, deg pi = n)
and multigraded by the index vectors.  The substitution rho[a] -> q_a,
pi[b] -> p_b defines the surjection phi onto the invariant ring; its kernel
is the object every other module interrogates.

The only denominator in phi is the 1/2 of a mixed q_{e_i+e_j} =
(x_iy_j + x_jy_i)/2, so phi images are computed in integers: every symbol
has an integer polarization (2q for a mixed rho, q or p otherwise), and the
image of a monomial is kept as P = 2^k phi(mono), where k is the total
exponent of mixed rho symbols in it.  `phi` divides the 2^k back out.

gl_m acts on the symbols by shifting one unit of index between two slots
(E_{u,v}.pi_b = b_v * pi_{b+e_u-e_v}), extended to products as a derivation;
phi intertwines this with the polarization action on the coordinate ring.
A matrix unit is passed as the index pair (u, v).  Highest weight vectors
and saturation under the lowering units E_{u,v} (u > v) give exact bases of
the GL-submodules generated by the named relations: the 3x3 symmetric
determinant in the rho symbols, the three-term relation of weight (n,2),
and the weight-(2n-2k,2k) family.  Lowering units are enough because PBW
gives U(gl_m).v = U(n-).v for a highest weight vector v (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, section 20).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .dihedral import (
    DihedralParams,
    apply_perm,
    as_multidegree,
    p_pol,
    q_pol,
)
from .exactpoly import (
    Polynomial,
    PolynomialSpace,
    rhopi_universe,
    xy_universe,
)


@lru_cache(maxsize=None)
def free_algebra(n, m):
    return FreeAlgebra(n, m)


class FreeAlgebra:
    """The ring F(n,m) with its variable tables, its phi cache and the
    kernel bases computed in it."""

    def __init__(self, n, m):
        self.params = DihedralParams(n, m)
        self.universe = rhopi_universe(n, m)
        self.xy_universe = xy_universe(m)
        self.n = n
        self.m = m
        self._weights = [self.universe.weight(v)
                         for v in range(self.universe.nvars)]
        # index vector -> symbol: a rho index sums to 2 and a pi index to
        # n >= 3 (the DihedralParams guard), so one table holds both
        self._vars = {w: v for v, w in enumerate(self._weights)}
        # a mixed rho (two nonzero index slots) maps to a q with a 1/2
        self._mixed = frozenset(v for v, w in enumerate(self._weights)
                                if self.universe.degree(v) == 2
                                and 2 not in w)
        # the integer polarization of every symbol: 2q for a mixed rho
        self._polarizations = [
            q_pol(w).scale(2) if v in self._mixed
            else q_pol(w) if self.universe.degree(v) == 2 else p_pol(w)
            for v, w in enumerate(self._weights)]
        # mono -> 2^k phi(mono), k the total exponent of mixed rhos in mono
        self._phi_cache = {(): Polynomial.constant(self.xy_universe, 1)}
        # monomial -> the one equal tuple that every cached image uses
        self._phi_monomials = {}
        # weight -> suffix counts of that weight (see _suffix_counts)
        self._counts = {}
        self._perm_maps = {}  # perm -> variable index map
        # weakly decreasing weight -> kernel basis of phi there (kernelcalc)
        self.kernels = {}

    # -- element constructors -------------------------------------------

    def zero(self):
        return FreeElement(self, Polynomial.zero(self.universe))

    def one(self):
        return FreeElement(self, Polynomial.constant(self.universe, 1))

    def _pad(self, index):
        index = as_multidegree(index)
        if len(index) > self.m:
            raise ValueError("index %r longer than m=%d" % (index, self.m))
        return index + (0,) * (self.m - len(index))

    def rho(self, alpha):
        alpha = self._pad(alpha)
        if sum(alpha) != 2:
            raise ValueError("rho index must sum to 2, got %r" % (alpha,))
        return FreeElement(self, Polynomial.variable(
            self.universe, self._vars[alpha]))

    def pi(self, beta):
        beta = self._pad(beta)
        if sum(beta) != self.n:
            raise ValueError("pi index must sum to %d, got %r"
                             % (self.n, beta))
        return FreeElement(self, Polynomial.variable(
            self.universe, self._vars[beta]))

    def phi_monomial(self, mono):
        """(P, k) with P = 2^k phi(mono) an int polynomial and k the total
        exponent of mixed rho symbols in mono, so P is the product of the
        integer polarizations.  P is cached together with every prefix on
        the way: strip one factor of the first variable at a time down to a
        cached monomial, then multiply back up.  The cached images share
        one tuple object per distinct xy-monomial."""
        mixed = self._mixed
        k = sum(e for v, e in mono if v in mixed)
        cache = self._phi_cache
        chain = []
        while mono not in cache:
            (v, e), *rest = mono
            chain.append((mono, v))
            if e > 1:
                rest.insert(0, (v, e - 1))
            mono = tuple(rest)
        value = cache[mono]
        polarizations, shared = self._polarizations, self._phi_monomials
        for mono, v in reversed(chain):
            value = (value * polarizations[v]).sharing(shared)
            cache[mono] = value
        return value, k

    # -- graded components ----------------------------------------------

    def count_of_weight(self, alpha):
        """Number of monomials of F(n,m) with the given multidegree (the
        coefficient of t^alpha in prod_v 1/(1 - t^{w_v})), without
        enumerating them."""
        alpha = as_multidegree(alpha, self.m)
        return _suffix_counts(self._weights, self._counts, alpha)[0]

    def monomials_of_weight(self, alpha):
        """All monomials of F(n,m) with the given multidegree, enumerated
        deterministically (descending lex in the variable exponents).
        A level takes the first variable it holds and its exponent, and
        recurses only then, so the recursion is at most half the total
        degree deep.  A branch is entered only when the suffix counts say it
        holds a monomial, so every call below the root emits at least one."""
        alpha = as_multidegree(alpha, self.m)
        weights, memo = self._weights, self._counts
        out = []
        acc = []

        def rec(start, remaining):
            if not any(remaining):
                # acc holds (variable, positive exponent) in index order
                out.append(tuple(acc))
                return
            counts = _suffix_counts(weights, memo, remaining)
            for idx in range(start, len(weights)):
                if counts[idx] == counts[idx + 1]:
                    continue  # no monomial here holds variable idx
                w = weights[idx]
                cap = min(r // wi for r, wi in zip(remaining, w) if wi)
                for e in range(cap, 0, -1):
                    rest = tuple(r - e * wi for r, wi in zip(remaining, w))
                    if _suffix_counts(weights, memo, rest)[idx + 1]:
                        acc.append((idx, e))
                        rec(idx + 1, rest)
                        acc.pop()

        rec(0, alpha)
        return out

    # -- symmetric-group and gl actions -----------------------------------

    def s_act(self, perm, e):
        """Permutation action on the vector slots: a symbol goes to the one
        whose index vector is the perm-image of its own."""
        perm = tuple(perm)
        var_map = self._perm_maps.get(perm)
        if var_map is None:
            if sorted(perm) != list(range(1, self.m + 1)):
                raise ValueError("perm must be a permutation of 1..%d, "
                                 "got %r" % (self.m, perm))
            var_map = self._perm_maps[perm] = {
                v: self._vars[apply_perm(perm, w)]
                for v, w in enumerate(self._weights)}
        return FreeElement(self, e.poly.permute_variables(var_map))

    def _shifted_variable(self, v, u_slot, v_slot):
        """The symbol with one index unit moved from v_slot to u_slot, and
        the integer factor (the v_slot index); factor 0 means the action
        kills this symbol."""
        w = self.universe.weight(v)
        c = w[v_slot]
        if not c:
            return 0, None
        target = list(w)
        target[v_slot] -= 1
        target[u_slot] += 1
        return c, self._vars[tuple(target)]

    def gl_act(self, E, e):
        """Action of the matrix unit E = (u, v) (1-based slots) on an
        element: index-shift with the source-slot index as factor on
        symbols, extended by Leibniz."""
        u, v = E
        if not (1 <= u <= self.m and 1 <= v <= self.m):
            raise ValueError("matrix unit (%d,%d) out of range for m=%d"
                             % (u, v, self.m))
        out = {}
        for mono, c in e.poly.terms.items():
            for var, exp in mono:
                factor, target = self._shifted_variable(var, u - 1, v - 1)
                if not factor:
                    continue
                pairs = dict(mono)
                if exp == 1:
                    del pairs[var]
                else:
                    pairs[var] = exp - 1
                pairs[target] = pairs.get(target, 0) + 1
                shifted = tuple(sorted(pairs.items()))
                value = out.get(shifted, 0) + c * exp * factor
                if value:
                    out[shifted] = value
                elif shifted in out:
                    del out[shifted]
        return FreeElement(self, Polynomial(self.universe, out))


def _suffix_counts(weights, memo, remaining):
    """The list c with c[idx] the number of exponent vectors on
    weights[idx:] summing to the vector `remaining` (c[len(weights)] is 1
    iff `remaining` is zero), memoised in memo[remaining].  A vector on
    weights[idx:] either leaves variable idx out or is one factor of it
    times a vector on weights[idx:] summing to remaining - weights[idx], so
    the recursion only descends in weight: at most half the total degree
    deep, whatever the number of variables."""
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    counts = [0] * len(weights) + [0 if any(remaining) else 1]
    for idx in range(len(weights) - 1, -1, -1):
        rest = tuple(r - wi for r, wi in zip(remaining, weights[idx]))
        counts[idx] = counts[idx + 1]
        if min(rest) >= 0:
            counts[idx] += _suffix_counts(weights, memo, rest)[idx]
    memo[remaining] = counts
    return counts


class FreeElement:
    """An element of F(n,m): a polynomial in the rho/pi symbols tied to its
    parameters."""

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra, poly):
        self.algebra = algebra
        self.poly = poly

    def _check(self, other):
        if not isinstance(other, FreeElement) \
                or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return FreeElement(self.algebra, self.poly + other.poly)

    def __sub__(self, other):
        self._check(other)
        return FreeElement(self.algebra, self.poly - other.poly)

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            self._check(other)
            return FreeElement(self.algebra, self.poly * other.poly)
        return FreeElement(self.algebra, self.poly.scale(other))

    __rmul__ = __mul__

    def scale(self, c):
        return FreeElement(self.algebra, self.poly.scale(c))

    def __pow__(self, k):
        return FreeElement(self.algebra, self.poly ** k)

    def __eq__(self, other):
        return (isinstance(other, FreeElement)
                and self.algebra is other.algebra
                and self.poly == other.poly)

    def is_zero(self):
        return self.poly.is_zero()

    def degree(self):
        """Graded degree (rho counts 2, pi counts n); -1 for zero."""
        return self.poly.degree()

    def weight(self):
        """Common multidegree of all terms, or None if mixed."""
        return self.poly.multidegree()

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "FreeElement(%d,%d; %s)" % (self.algebra.n, self.algebra.m,
                                           self.poly.text())


# ---------------------------------------------------------------------------
# module-level operations


def phi(e):
    """The presentation map: substitute every symbol by its polarization and
    expand in the coordinate ring, summing c P / 2^k over the terms c mono
    of e, with (P, k) the integer image of mono."""
    algebra = e.algebra
    out = {}
    for mono, c in e.poly.terms.items():
        image, k = algebra.phi_monomial(mono)
        if k:
            c = Fraction(c, 1 << k)
        for xy, a in image.terms.items():
            out[xy] = out.get(xy, 0) + c * a
    return Polynomial(algebra.xy_universe, out)


def is_highest_weight(e):
    """The weight of e if e is multihomogeneous and killed by every raising
    unit E_{i,i+1}; None otherwise.  Zero input is an error."""
    if e.is_zero():
        raise ValueError("zero element has no weight")
    weight = e.weight()
    if weight is None:
        return None
    for i in range(1, e.algebra.m):
        if not e.algebra.gl_act((i, i + 1), e).is_zero():
            return None
    return weight


def submodule_basis(e):
    """Basis of the gl_m-submodule generated by a highest weight vector e:
    saturate breadth-first under the lowering units E_{u,v} (u > v),
    keeping an element whenever it enlarges the exact rank of its weight
    space.  A child of E_{u,v} has weight w + e_u - e_v, so weights are
    carried along the queue, not recomputed from the terms.
    The matrix units keep elements multihomogeneous and weight spaces are
    direct summands, so that is the rank of the whole span growing.  The
    span of the kept elements is closed under every lowering unit, and
    U(gl_m).e = U(n-).e since the raising units kill e; an e they do not
    kill is a ValueError.  The ranks run on integer rows, so e needs int
    coefficients (the units act with integer factors and keep them so).
    First-found order, deterministic."""
    if e.is_zero():
        raise ValueError("zero element generates the zero module")
    weight = is_highest_weight(e)
    if weight is None:
        raise ValueError("submodule_basis needs a multihomogeneous highest "
                         "weight vector, got %r" % (e,))
    algebra = e.algebra
    units = [(u, v) for u in range(2, algebra.m + 1) for v in range(1, u)]
    spaces = {}  # weight -> PolynomialSpace of the kept elements

    def enlarges(x, w):
        space = spaces.get(w)
        if space is None:
            space = spaces[w] = PolynomialSpace(algebra.universe)
        return space.insert(x.poly)

    basis = []
    # (element, weight) in breadth-first order; the loop walks the list by
    # index, so it also visits the children it appends
    queue = []
    if enlarges(e, weight):
        basis.append(e)
        queue.append((e, weight))
    for current, w in queue:
        for unit in units:
            child = algebra.gl_act(unit, current)
            if child.is_zero():
                continue
            cw = list(w)
            cw[unit[0] - 1] += 1
            cw[unit[1] - 1] -= 1
            cw = tuple(cw)
            if enlarges(child, cw):
                basis.append(child)
                queue.append((child, cw))
    return basis


# ---------------------------------------------------------------------------
# the named relations


def make_R222(n, m):
    """The determinant of the symmetric 3x3 matrix whose (i,j) entry is the
    rho symbol with index e_i + e_j (first three slots); degree 6, weight
    (2,2,2), and a phi-kernel element for every n."""
    if m < 3:
        raise ValueError("the symmetric determinant needs m >= 3, got m=%d"
                         % m)
    A = free_algebra(n, m)

    def entry(i, j):
        index = [0] * m
        index[i] += 1
        index[j] += 1
        return A.rho(index)

    a, b, c = entry(0, 0), entry(1, 1), entry(2, 2)
    d, f, g = entry(0, 1), entry(0, 2), entry(1, 2)
    return a * b * c - a * g * g - b * f * f - c * d * d + 2 * d * f * g


def make_R_n2(n, m):
    """pi_{n,0}rho_{0,2} - 2 pi_{n-1,1}rho_{1,1} + pi_{n-2,2}rho_{2,0}
    (indices padded with zeros to length m); degree n+2, weight (n,2)."""
    if m < 2:
        raise ValueError("need m >= 2, got m=%d" % m)
    A = free_algebra(n, m)
    return (A.pi((n, 0)) * A.rho((0, 2))
            - 2 * A.pi((n - 1, 1)) * A.rho((1, 1))
            + A.pi((n - 2, 2)) * A.rho((2, 0)))


def make_R_2n2k(n, k, m):
    """The degree-2n relation of weight (2n-2k, 2k):

        (-1)^k (1/2) binom(2k,k) pi_{n-k,k}^2
      + sum_{j=0}^{k-1} (-1)^j binom(2k,j) pi_{n-j,j} pi_{n-2k+j,2k-j}
      - 4^k rho_{2,0}^{n-2k} (rho_{1,1}^2 - rho_{2,0}rho_{0,2})^k."""
    if m < 2:
        raise ValueError("need m >= 2, got m=%d" % m)
    if not 1 <= k <= n // 2:
        raise ValueError("k must lie in 1..%d, got %d" % (n // 2, k))
    A = free_algebra(n, m)
    middle = A.pi((n - k, k))
    total = (middle * middle).scale(Fraction((-1) ** k * comb(2 * k, k), 2))
    for j in range(k):
        total = total + ((-1) ** j * comb(2 * k, j)) \
            * A.pi((n - j, j)) * A.pi((n - 2 * k + j, 2 * k - j))
    r20 = A.rho((2, 0))
    r11 = A.rho((1, 1))
    r02 = A.rho((0, 2))
    disc = r11 * r11 - r20 * r02
    return total - (4 ** k) * (r20 ** (n - 2 * k)) * (disc ** k)
