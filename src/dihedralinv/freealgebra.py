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
and saturation under the simple lowering units E_{i+1,i} give exact bases of
the GL-submodules generated by the named relations: the 3x3 symmetric
determinant in the rho symbols, the three-term relation of weight (n,2),
and the weight-(2n-2k,2k) family.  Lowering units are enough because PBW
gives U(gl_m).v = U(n-).v for a highest weight vector v (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, section 20), and
the simple ones are enough because they generate n- as a Lie algebra:
E_{u,v} = [E_{u,u-1}, E_{u-1,v}] for u > v + 1.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import sub

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
    divided_monomial,
    monomial_product,
    pair,
    renamed_monomial,
    rhopi_universe,
    xy_universe,
)


@lru_cache(maxsize=None)
def free_algebra(n, m):
    return FreeAlgebra(n, m)


class FreeAlgebra:
    """The ring F(n,m) with its variable tables, its phi cache and the
    kernel bases computed in it, kept until `release_kept` (or, for one
    component, `release_images` and `kernels.pop`) drops them."""

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
        # weight -> (that weight, its suffix counts) (see _suffix_counts)
        self._counts = {}
        # nonzero weight -> its enumeration branches (see _branches)
        self._children = {}
        # the last permutation s_act moved by, its variable index map and
        # its table monomial -> image
        self._moved = (None, None, {})
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
        integer polarizations.  The walk divides by one variable a step and
        ends at the first cached monomial: a quotient by one of the
        monomial's own variables (the first such variable in index order)
        when one is cached, else the monomial less one factor of its first
        variable.  Multiplying back up caches the image of every monomial
        the walk passes, and nothing else; so on `kernel dim --n 6 --m 3`
        2 267 requested monomials cost 2 316 products, not the 3 021 of a
        walk that only strips the first variable.  The cached images share
        one tuple object per distinct xy-monomial."""
        mixed = self._mixed
        k = sum(e for v, e in mono if v in mixed)
        cache = self._phi_cache
        chain = []
        while mono not in cache:
            steps = [(divided_monomial(mono, i), v)
                     for i, (v, _) in enumerate(mono)]
            quotient, v = next((s for s in steps if s[0] in cache), steps[0])
            chain.append((mono, v))
            mono = quotient
        value = cache[mono]
        polarizations, shared = self._polarizations, self._phi_monomials
        for mono, v in reversed(chain):
            value = (value * polarizations[v]).sharing(shared)
            cache[mono] = value
        return value, k

    def release_images(self, monos):
        """Drop the cached images of `monos`, every monomial of one
        multidegree, and their xy-monomials from the sharing table: phi
        is multigraded, so no image of another multidegree holds those.
        The image of 1, where every walk ends, stays."""
        cache, shared = self._phi_cache, self._phi_monomials
        for mono in monos:
            image = cache.pop(mono, None) if mono else None
            if image is not None:
                for xy in image.terms:
                    shared.pop(xy, None)

    def release_kept(self):
        """Drop every kept kernel basis and phi image, the whole sharing
        table and the last permutation's s_act table; what a later call
        reads again is rebuilt on demand.  The image of 1 stays, and so do
        the symbol tables and the enumeration memos."""
        self.kernels.clear()
        self._phi_cache = {(): self._phi_cache[()]}
        self._phi_monomials.clear()
        self._moved = (None, None, {})

    # -- graded components ----------------------------------------------

    def count_of_weight(self, alpha):
        """Number of monomials of F(n,m) with the given multidegree (the
        coefficient of t^alpha in prod_v 1/(1 - t^{w_v})), without
        enumerating them."""
        alpha = as_multidegree(alpha, self.m)
        return _suffix_counts(self._weights, self._counts, alpha)[1][0]

    def monomials_of_weight(self, alpha):
        """All monomials of F(n,m) with the given multidegree, enumerated
        deterministically (descending lex in the variable exponents).
        A level takes the first variable it holds and its exponent, and
        recurses only then, so the recursion is at most half the total
        degree deep.  The live branches of a remaining multidegree are
        computed once per algebra (see `_branches`), and a level walks only
        those from its first allowed variable on, so every call below the
        root emits at least one monomial."""
        alpha = as_multidegree(alpha, self.m)
        children = self._children
        out = []
        acc = []

        def rec(start, remaining):
            if not any(remaining):
                # acc holds (variable, positive exponent) in index order
                out.append(tuple(acc))
                return
            branches = children.get(remaining)
            if branches is None:
                branches = self._branches(remaining)
            # a branch sorts below (start,) iff its variable is below start,
            # whatever its exponent, so bisect finds the first one allowed
            for idx, p, rest in branches[bisect_left(branches, (start,)):]:
                acc.append(p)
                rec(idx + 1, rest)
                acc.pop()

        rec(0, alpha)
        return out

    def _branches(self, remaining):
        """Every (variable, pair, rest) of a nonzero remaining multidegree
        with a monomial on the later variables summing to rest, where pair
        is the (variable, exponent) tuple every enumerated monomial takes
        and rest is the count memo's own key for that multidegree,
        variables ascending and exponents descending, memoised in
        self._children.  The 5 350 recursion nodes of `kernel dim --n 6
        --m 3` meet 231 distinct remaining multidegrees, and their 1 166
        branches hold 137 distinct rests."""
        weights, memo = self._weights, self._counts
        _, counts = _suffix_counts(weights, memo, remaining)
        branches = []
        for idx, w in enumerate(weights):
            if counts[idx] == counts[idx + 1]:
                continue  # no monomial here holds variable idx
            live = []
            rest, e = remaining, 0
            while min(rest := tuple(map(sub, rest, w))) >= 0:
                e += 1
                key, rest_counts = _suffix_counts(weights, memo, rest)
                if rest_counts[idx + 1]:
                    live.append((idx, pair(idx, e), key))
            branches += reversed(live)
        self._children[remaining] = branches
        return branches

    # -- symmetric-group and gl actions -----------------------------------

    def s_act(self, perm, e):
        """Permutation action on the vector slots: a symbol goes to the one
        whose index vector is the perm-image of its own.

        The algebra keeps the monomial images of the last permutation it
        moved by, and only those: the elements of a transported kernel
        component share their monomials, so each distinct monomial is
        renamed and sorted once per component (7 757 times where 32 768
        terms move on `kernel dim` n6 m3).  A table kept for every
        permutation made that command 1.7 MB larger at its peak.  The
        permutation is checked and its variable map built only when it
        changes: 227 times in those 5 135 calls."""
        perm = tuple(perm)
        moved, var_map, images = self._moved
        if perm != moved:
            if sorted(perm) != list(range(1, self.m + 1)):
                raise ValueError("perm must be a permutation of 1..%d, "
                                 "got %r" % (self.m, perm))
            var_map = {v: self._vars[apply_perm(perm, w)]
                       for v, w in enumerate(self._weights)}
            images = {}
            self._moved = (perm, var_map, images)
        terms = {}
        for mono, c in e.poly.terms.items():
            image = images.get(mono)
            if image is None:
                image = images[mono] = renamed_monomial(mono, var_map)
            terms[image] = c
        return FreeElement(self, Polynomial._of(self.universe, terms))

    def gl_act(self, E, e):
        """Action of the matrix unit E = (u, v) (1-based slots) on an
        element: one index unit moves from slot v to slot u, with the
        slot-v index as factor, on symbols, extended by Leibniz."""
        u, v = E
        if not (1 <= u <= self.m and 1 <= v <= self.m):
            raise ValueError("matrix unit (%d,%d) out of range for m=%d"
                             % (u, v, self.m))
        u, v = u - 1, v - 1
        weights, symbols = self._weights, self._vars
        out = {}
        for mono, c in e.poly.terms.items():
            for i, (var, exp) in enumerate(mono):
                w = weights[var]
                factor = w[v]
                if not factor:
                    continue
                target = list(w)
                target[v] -= 1
                target[u] += 1
                shifted = monomial_product(divided_monomial(mono, i),
                                           (pair(symbols[tuple(target)], 1),))
                value = out.get(shifted, 0) + c * exp * factor
                if value:
                    out[shifted] = value
                elif shifted in out:
                    del out[shifted]
        return FreeElement(self, Polynomial(self.universe, out))


def _suffix_counts(weights, memo, remaining):
    """(key, c), with key the tuple memo holds for `remaining` and c the
    list with c[idx] the number of exponent vectors on weights[idx:]
    summing to the vector `remaining` (c[len(weights)] is 1 iff
    `remaining` is zero), memoised in memo[remaining].  A vector on
    weights[idx:] either leaves variable idx out or is one factor of it
    times a vector on weights[idx:] summing to remaining - weights[idx], so
    the recursion only descends in weight: at most half the total degree
    deep, whatever the number of variables."""
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    counts = [0] * len(weights) + [0 if any(remaining) else 1]
    for idx in range(len(weights) - 1, -1, -1):
        rest = tuple(map(sub, remaining, weights[idx]))
        counts[idx] = counts[idx + 1]
        if min(rest) >= 0:
            counts[idx] += _suffix_counts(weights, memo, rest)[1][idx]
    hit = memo[remaining] = (remaining, counts)
    return hit


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
    saturate breadth-first under the m - 1 simple lowering units E_{i+1,i},
    keeping an element whenever it enlarges the exact rank of the kept
    elements' span.  The span of the kept elements contains e and is
    closed under each simple unit, hence under the Lie algebra n- they
    generate (E_{u,v} = [E_{u,u-1}, E_{u-1,v}] for u > v + 1); every kept
    element was built from e, so the span is U(n-).e.  That is U(gl_m).e
    since the raising units kill e; an e they do not kill is a ValueError.
    The ranks run on integer rows, so e needs int coefficients (the units
    act with integer factors and keep them so).
    One rank space holds the whole module: the units keep elements
    multihomogeneous and rows of different weights share no column, so an
    insert decides as it would in a space of its weight alone, which
    numbers that weight's columns in the same first-met order.
    First-found order, deterministic."""
    if e.is_zero():
        raise ValueError("zero element generates the zero module")
    if is_highest_weight(e) is None:
        raise ValueError("submodule_basis needs a multihomogeneous highest "
                         "weight vector, got %r" % (e,))
    algebra = e.algebra
    units = [(i + 1, i) for i in range(1, algebra.m)]
    space = PolynomialSpace(algebra.universe)
    space.insert(e.poly)
    basis = [e]
    # breadth-first: the loop walks the list by index, so it also visits
    # the children it appends
    for current in basis:
        for unit in units:
            child = algebra.gl_act(unit, current)
            if not child.is_zero() and space.insert(child.poly):
                basis.append(child)
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
