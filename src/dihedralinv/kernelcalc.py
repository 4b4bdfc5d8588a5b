"""Exact verification engine for the presentation of the invariant ring.

Everything reduces to integer linear algebra on multigraded components, which
stay small because the multigrading is exploited everywhere: kernels of the
presentation map per multidegree (with transport along coordinate
permutations, so only weakly decreasing multidegrees are ever computed),
minimal generator counts via the graded Nakayama criterion, verification of
primary/secondary decompositions on the invariant-ring side, and the
GL-ideal generation check that compares the rank of each ideal slice with
the kernel dimension, multidegree by multidegree.  No check asks whether one
element lies in an ideal: ranks settle every claim.

Each rank stops at a ceiling that is proven, because rows past it cannot
change the answer, and `rank_up_to` applies every one of them:
- the Nakayama span F_+ . ker lies in ker, so once its rank is dim ker_alpha
  there is no new generator at alpha;
- an ideal slice of generators with phi(g) = 0 lies in the kernel (phi is
  GL-equivariant, so the whole submodule of g maps to zero), so its rank is
  at most dim ker_alpha.  Every kernel basis is checked against
  count_of_weight(alpha) - invariant_dimension(alpha) where it is built,
  since phi is onto the invariants in every multidegree;
- a Hironaka product h * b of an invariant primary and an invariant basis
  element lies in the invariant component, so where no secondary sits its
  rank is at most the component's dimension.  Products whose leading terms
  differ are independent, so once the distinct lead sums number that
  dimension the rank is exactly it and no row is built; short of that the
  rows go in and stop at the dimension.  Where secondaries sit, every row
  goes in: their independence needs the rank of the whole primary-ideal
  slice.
Rank spaces number a monomial's column when they first meet it, so no
component is enumerated just to give a rank its columns.

The decomposition check takes coordinate-ring polynomials only; the built-in
tables written in the rho/pi symbols are mapped through phi before it sees
them.  It builds its components as integer rows directly: a monomial of the
coordinate ring in a fixed multidegree is fixed by its y-exponent vector,
whose code in one radix above every exponent is its column, and codes add
under products.  So no product polynomial is formed, every primary and
invariant basis element is coded once, and each invariant basis is fetched
once per multidegree while the degrees still to come can reach it.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial, gcd, prod

from .dihedral import (
    all_multidegrees,
    apply_perm,
    as_multidegree,
    cyclic_invariant_basis,
    cyclic_invariant_dimension,
    decreasing_multidegrees,
    invariant_basis,
    invariant_dimension,
    is_invariant,
    is_rotation_invariant,
    s_act_xy,
    xy_monomials,
)
from .exactpoly import (
    Polynomial,
    PolynomialSpace,
    RowSpace,
    nullspace_combinations,
    parse_polynomial,
    rank_up_to,
    xy_universe,
)
from .freealgebra import FreeElement, free_algebra, phi, submodule_basis

DEFAULT_RESOURCE_CAP = 20000
RESOURCE_CAP_ENV = "DIHEDRALINV_RESOURCE_CAP"


class ResourceCapError(RuntimeError):
    """A component's monomial basis exceeds the configured size cap."""


def resolve_resource_cap(cap=None):
    """The explicit cap, else the environment's, else the default.  An
    explicit cap that is not an int is a TypeError, neither truncated nor
    parsed; an environment value that is not an integer, or a cap that is
    not positive, is a ValueError."""
    if cap is None:
        env = os.environ.get(RESOURCE_CAP_ENV)
        if not env:
            return DEFAULT_RESOURCE_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError("%s=%r is not an integer"
                             % (RESOURCE_CAP_ENV, env)) from None
    else:
        cap = operator.index(cap)
    if cap <= 0:
        raise ValueError("the resource cap must be positive, got %d" % cap)
    return cap


def _degree_bound(D):
    """A total-degree bound; a negative one would check nothing and pass."""
    D = operator.index(D)
    if D < 0:
        raise ValueError("the degree bound must be nonnegative, got %d" % D)
    return D


def _guard(size, cap, what, unit="basis monomials"):
    if size > cap:
        raise ResourceCapError(
            "%s needs %d %s, above the cap of %d "
            "(raise it via --resource-cap or %s)"
            % (what, size, unit, cap, RESOURCE_CAP_ENV))


def _guard_invariant(alpha, cap):
    """Cap check on the coordinate-ring component of multidegree alpha
    before it is enumerated: slot i splits alpha_i between x_i and y_i in
    alpha_i + 1 ways."""
    _guard(prod(a + 1 for a in alpha), cap,
           "invariant component %r" % (alpha,))


# ---------------------------------------------------------------------------
# coordinate-permutation bookkeeping


def sort_permutation(alpha):
    """(sorted_alpha, perm) with sorted_alpha weakly decreasing and
    apply_perm(perm, sorted_alpha) == alpha."""
    order = sorted(range(len(alpha)), key=lambda i: (-alpha[i], i))
    sorted_alpha = tuple(alpha[i] for i in order)
    perm = tuple(i + 1 for i in order)
    return sorted_alpha, perm


def orbit_size(alpha):
    """Number of distinct coordinate permutations of alpha."""
    counts = {}
    for a in alpha:
        counts[a] = counts.get(a, 0) + 1
    size = factorial(len(alpha))
    for c in counts.values():
        size //= factorial(c)
    return size


# ---------------------------------------------------------------------------
# kernel components


def _kernel_basis_sorted(n, m, alpha, cap):
    """Kernel basis at a weakly decreasing multidegree, kept by the algebra.
    Both components are checked against the cap on every call, kept or
    not.  Its length is checked against count_of_weight(alpha) -
    invariant_dimension(alpha), which is dim ker_alpha because phi is onto
    the invariants in every multidegree."""
    algebra = free_algebra(n, m)
    _guard(algebra.count_of_weight(alpha), cap,
           "kernel component %r of F(%d,%d)" % (alpha, n, m))
    _guard_invariant(alpha, cap)
    hit = algebra.kernels.get(alpha)
    if hit is not None:
        return hit
    monos = algebra.monomials_of_weight(alpha)
    columns = xy_monomials(m, alpha)
    images = [algebra.phi_monomial(mo) for mo in monos]
    basis = []
    for combo in nullspace_combinations([P for P, _ in images],
                                        columns=columns):
        # a relation c among the P_i = 2^{k_i} phi(mono_i) is the phi
        # relation c_i 2^{k_i}; c is coprime, so its gcd is a power of two
        coeffs = {i: c << images[i][1] for i, c in combo.items()}
        g = gcd(*coeffs.values())
        poly = Polynomial(algebra.universe,
                          {monos[i]: c // g for i, c in coeffs.items()})
        basis.append(FreeElement(algebra, poly))
    count = (algebra.count_of_weight(alpha)
             - invariant_dimension(algebra.params, alpha))
    if len(basis) != count:
        raise ArithmeticError(
            "kernel of F(%d,%d) at %r has %d elements, but count_of_weight "
            "- invariant_dimension is %d" % (n, m, alpha, len(basis), count))
    algebra.kernels[alpha] = basis
    return basis


def kernel_basis_at(n, m, alpha, resource_cap=None):
    """Kernel basis at an arbitrary multidegree, by permutation transport
    from the weakly decreasing representative.  The list is the caller's
    own: changing it leaves the algebra's copy intact."""
    cap = resolve_resource_cap(resource_cap)
    alpha = as_multidegree(alpha, m)
    sorted_alpha, perm = sort_permutation(alpha)
    basis = _kernel_basis_sorted(n, m, sorted_alpha, cap)
    if alpha == sorted_alpha:
        return list(basis)
    algebra = free_algebra(n, m)
    return [algebra.s_act(perm, e) for e in basis]


# ---------------------------------------------------------------------------
# minimal generators (graded Nakayama)


def _new_generator_count_at(n, m, alpha, cap):
    """dim ker_alpha - dim (F_+ . ker)_alpha at one weakly decreasing
    multidegree: the span of variable times lower-kernel elements, against
    the kernel itself."""
    universe = free_algebra(n, m).universe
    kernel = _kernel_basis_sorted(n, m, alpha, cap)

    def products():
        for v in range(universe.nvars):
            beta = tuple(a - wi for a, wi in zip(alpha, universe.weight(v)))
            if any(b < 0 for b in beta):
                continue
            var_poly = Polynomial.variable(universe, v)
            for e in kernel_basis_at(n, m, beta, cap):
                yield e.poly * var_poly

    # the span lies in the kernel, so its rank stops at the kernel's
    return len(kernel) - rank_up_to(PolynomialSpace(universe).insert,
                                    products(), len(kernel))


def minimal_generators_by_degree(n, m, D, resource_cap=None):
    """Number of minimal generators of the kernel ideal in each degree
    <= D (degrees with no new generators are omitted)."""
    D = _degree_bound(D)
    cap = resolve_resource_cap(resource_cap)
    out = {}
    for d in range(D + 1):
        total = 0
        for alpha in decreasing_multidegrees(m, d):
            count = _new_generator_count_at(n, m, alpha, cap)
            if count:
                total += count * orbit_size(alpha)
        if total:
            out[d] = total
    return out


# ---------------------------------------------------------------------------
# truncated ideals


class TruncatedIdeal:
    """The ideal generated by multihomogeneous elements of F(n,m), seen one
    multidegree at a time: the alpha slice is spanned by generator times
    monomial products landing in it, and only its rank is computed, up to
    a ceiling the caller proves.  `count_of_weight(alpha)` always is one;
    for generators in the kernel of phi, dim ker_alpha is one, since the
    ideal they generate lies in the kernel.  The rank runs on integer rows,
    so the generators need int coefficients."""

    def __init__(self, generators, resource_cap=None):
        generators = list(generators)
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        self.algebra = generators[0].algebra
        self._weights = []
        for g in generators:
            if g.algebra is not self.algebra:
                raise ValueError("generators from different algebras")
            w = g.weight()  # None when zero or not multihomogeneous
            if w is None:
                raise ValueError(
                    "ideal generators must be nonzero and "
                    "multihomogeneous, got %r" % (g,))
            self._weights.append(w)
        self.generators = generators
        self.resource_cap = resolve_resource_cap(resource_cap)

    def spanning_polys(self, alpha):
        """The generating rows of the alpha slice.  The number of products
        is counted, and capped, before any is built."""
        algebra = self.algebra
        alpha = as_multidegree(alpha, algebra.m)
        universe = algebra.universe
        factors = []
        for g, w in zip(self.generators, self._weights):
            delta = tuple(a - wi for a, wi in zip(alpha, w))
            if all(x >= 0 for x in delta):
                factors.append((g, delta))
        _guard(sum(algebra.count_of_weight(d) for _, d in factors),
               self.resource_cap, "ideal slice %r" % (alpha,),
               "generator products")
        out = []
        for g, delta in factors:
            for mono in algebra.monomials_of_weight(delta):
                out.append(g.poly * Polynomial.from_monomial(universe, mono))
        return out

    def component_dimension(self, alpha, ceiling):
        """The rank of the alpha slice, where `ceiling` is a proven upper
        bound on it: rows stop going in once the rank reaches it.  Nothing
        is kept."""
        alpha = as_multidegree(alpha, self.algebra.m)
        _guard(self.algebra.count_of_weight(alpha), self.resource_cap,
               "ideal slice %r" % (alpha,))
        return rank_up_to(PolynomialSpace(self.algebra.universe).insert,
                          self.spanning_polys(alpha), ceiling)


# ---------------------------------------------------------------------------
# primary/secondary verification


@dataclass
class HironakaReport:
    independence: bool
    hilbert_match: bool
    spanning: bool
    lstar_size: int
    components_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.independence and self.hilbert_match and self.spanning


def _expand_lstar(secondaries, m):
    """Close the rows under coordinate permutations.  Every element the
    caller lists stays at its multidegree, repeats included, so a repeat
    fails independence.  Then each row gets one transported copy per other
    permuted multidegree (lexicographically first permutation wins), which
    is dropped when it equals an element already there."""
    by_beta = {}
    order = []
    for alpha, elems in secondaries:
        alpha = tuple(alpha)
        for f in elems:
            if f.multidegree() != alpha:
                raise ValueError(
                    "secondary %s declared at %r has multidegree %r"
                    % (f, alpha, f.multidegree()))
        by_beta.setdefault(alpha, []).extend(elems)
        order.extend((alpha, f) for f in elems)
    for alpha, elems in secondaries:
        alpha = tuple(alpha)
        seen_beta = {alpha}
        for perm in permutations(range(1, m + 1)):
            beta = apply_perm(perm, alpha)
            if beta in seen_beta:
                continue
            seen_beta.add(beta)
            bucket = by_beta.setdefault(beta, [])
            for f in elems:
                g = s_act_xy(perm, f)
                if g not in bucket:
                    bucket.append(g)
                    order.append((beta, g))
    return order, by_beta


def _y_terms(f):
    """The terms of a polynomial in XY(m) as (y-exponent vector, int) pairs,
    scaled by a positive integer that clears the denominators (the span is
    unchanged)."""
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    m = f.universe.m
    out = []
    for mono, c in f.terms.items():
        ys = [0] * m
        for v, e in mono:
            if v % 2:
                ys[v // 2] = e
        out.append((ys, c.numerator * (den // c.denominator)))
    return out


def _places(m, radix):
    """Place values of the column code: a y-exponent vector y whose entries
    are all below `radix` has code sum_i y_i * radix^(m - i), slot 1 most
    significant.  Codes run in lex order of the vectors, which is the order
    of xy_monomials(m, alpha), and they add under products."""
    return [radix ** (m - 1 - i) for i in range(m)]


def _coded(terms, places):
    """(column code, coefficient) pairs of y-terms."""
    return [(sum(map(operator.mul, ys, places)), c) for ys, c in terms]


def _product_row(left, right):
    """The integer row of a product of two coded polynomials: codes add,
    because the y-exponent vectors do."""
    row = {}
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            row[k] = row.get(k, 0) + c1 * c2
    return {k: c for k, c in row.items() if c}


def verify_hironaka_xy(primaries, secondaries, params, D, model="dihedral",
                       resource_cap=None):
    """Check a primary/secondary decomposition directly on the invariant
    ring: per weakly decreasing multidegree through total degree D, the
    secondaries must stay independent modulo the primary ideal
    (`independence`) and together with it span the invariant component
    (`spanning`); globally, the free-module Hilbert series
    sum_s t^deg(s) / prod_i (1 - t^deg(h_i)) must reproduce every invariant
    dimension (`hilbert_match`).

    `model` picks the group: "dihedral" or "cyclic" (the index-2 rotation
    subgroup).  Primaries and secondaries are polynomials in the coordinate
    ring, multihomogeneous, of positive degree for a primary, and invariant
    under the model's group (else a ValueError); rows are closed under
    coordinate permutations first.

    A component is a set of integer rows.  Every input is multihomogeneous,
    so a monomial of multidegree alpha is fixed by its y-exponent vector
    and its column is the code of `_places` in radix D + 1, which adds
    under products: the row of h * b is built from the coded terms of h
    and b without forming the product polynomial.  Primaries are coded
    once, and so is the invariant basis at each beta = alpha - w(h), kept
    while a later alpha can still reach it.  Each invariant dimension is
    computed once, at its weakly decreasing multidegree.

    The pivot of a row is its least code, so the row of h * b has its pivot
    at lead(h) + lead(b).  Rows with distinct pivots are independent and
    the products lie in the invariant component, so where no secondary sits
    and the distinct lead sums number its dimension, `spanning` holds and
    no row is built.  Otherwise the rows go in, in product order; they stop
    at that dimension where no secondary sits, since a secondary's
    independence needs the rank of every product."""
    D = _degree_bound(D)
    cap = resolve_resource_cap(resource_cap)
    if model == "dihedral":
        dim_fn, basis_fn = invariant_dimension, invariant_basis
        invariant_fn = is_invariant
    elif model == "cyclic":
        dim_fn, basis_fn = cyclic_invariant_dimension, cyclic_invariant_basis
        invariant_fn = is_rotation_invariant
    else:
        raise ValueError("unknown model %r" % (model,))
    m = params.m
    universe = xy_universe(m)

    def check(f, what):
        if f.universe != universe:
            raise ValueError("%s %s is not in %r" % (what, f, universe))
        if not invariant_fn(f, params):
            raise ValueError("%s %s is not invariant in the %s model"
                             % (what, f, model))

    weights = []
    for h in primaries:
        w = h.multidegree()
        if w is None or h.is_zero() or not any(w):
            raise ValueError("primaries must be nonzero multihomogeneous "
                             "of positive degree")
        check(h, "primary")
        weights.append(w)
    lstar, by_beta = _expand_lstar(secondaries, m)
    for _, g in lstar:  # listed elements come first: a failure names one
        check(g, "secondary")
    places = _places(m, D + 1)
    coded_primaries = []
    for h, w in zip(primaries, weights):
        coded = _coded(_y_terms(h), places)
        coded_primaries.append((w, coded, min(coded)[0]))
    reach = max((sum(w) for w in weights), default=0)
    bases = {}  # beta -> (leads, elements)

    def basis_at(beta):
        """The invariant basis at beta, each element the tuple of the codes
        of its monomials (every coefficient is 1), and their leads."""
        got = bases.get(beta)
        if got is None:
            basis = [tuple([sum(map(operator.mul, ys, places))
                            for ys in elem])
                     for elem in basis_fn(params, beta)]
            got = bases[beta] = ([min(b) for b in basis], basis)
        return got

    failures = []
    independence = True
    spanning = True
    checked = 0
    dims = {}
    for t in range(D + 1):
        for beta in [b for b in bases if sum(b) < t - reach]:
            del bases[beta]
        for alpha in decreasing_multidegrees(m, t):
            checked += 1
            _guard_invariant(alpha, cap)
            want = dims[alpha] = dim_fn(params, alpha)
            here = by_beta.get(alpha, ())
            factors = []
            leads = set()
            for w, h, h_lead in coded_primaries:
                beta = tuple(map(operator.sub, alpha, w))
                if min(beta) < 0:
                    continue
                b_leads, basis = basis_at(beta)
                factors.append((h, basis))
                leads.update([h_lead + lead for lead in b_leads])
                if len(leads) >= want > 0 and not here:
                    break
            else:
                space = RowSpace()
                rank_up_to(space.insert_row,
                           (_product_row(h, [(k, 1) for k in b])
                            for h, basis in factors for b in basis),
                           None if here else want)
                for f in here:
                    if not space.insert_row(
                            dict(_coded(_y_terms(f), places))):
                        independence = False
                        failures.append(
                            "secondary at %r depends on the primary ideal "
                            "and earlier secondaries" % (alpha,))
                if space.rank != want:
                    spanning = False
                    failures.append(
                        "component %r: primaries+secondaries span %d of %d"
                        % (alpha, space.rank, want))
    hilbert_match = _hilbert_series_check(weights, lstar, m, D, dims,
                                          failures)
    return HironakaReport(independence, hilbert_match, spanning,
                          len(lstar), checked, failures)


def _hilbert_series_check(primary_weights, lstar, m, D, dims, failures):
    """Multigraded series identity: convolve the secondary multidegree
    counts with one geometric series per primary, then compare against the
    invariant dimensions through total degree D.  Those are symmetric under
    coordinate permutations, so `dims` holds them at the weakly decreasing
    multidegrees only.

    A multidegree of total degree t <= D is coded as t * R^m plus its
    slots in radix R = D + 1, so codes add under sums of multidegrees and
    the codes through degree D are exactly those below (D + 1) * R^m.  Each
    geometric series is walked from the nonzero entries only."""
    radix = D + 1
    places = [radix ** m + p for p in _places(m, radix)]
    limit = radix ** (m + 1)

    def code(alpha):
        return sum(map(operator.mul, alpha, places))

    series = {}
    for beta, _ in lstar:
        if sum(beta) <= D:
            k = code(beta)
            series[k] = series.get(k, 0) + 1
    for w in primary_weights:
        step = code(w)
        for k, c in list(series.items()):
            k += step
            while k < limit:
                series[k] = series.get(k, 0) + c
                k += step
    ok = True
    for t in range(D + 1):
        for alpha in all_multidegrees(m, t):
            want = dims[tuple(sorted(alpha, reverse=True))]
            got = series.get(code(alpha), 0)
            if got != want:
                ok = False
                failures.append(
                    "series coefficient at %r is %d, invariant dimension "
                    "is %d" % (alpha, got, want))
    return ok


# ---------------------------------------------------------------------------
# built-in decomposition tables


def primary_elements(n, m):
    """The standard parameter system as free-algebra symbols: the degree-n
    symbol and the quadratic symbol concentrated on each slot."""
    A = free_algebra(n, m)
    out = []
    for i in range(m):
        index = [0] * m
        index[i] = n
        out.append(A.pi(index))
    for i in range(m):
        index = [0] * m
        index[i] = 2
        out.append(A.rho(index))
    return out


def _through_phi(n, m, rows):
    """(primaries, rows) of a table written in the rho/pi symbols, both
    mapped to the coordinate ring."""
    return ([phi(h) for h in primary_elements(n, m)],
            [(alpha, [phi(f) for f in elems]) for alpha, elems in rows])


def secondary_table_m2(n):
    """The two-vector free-module table: powers of the mixed quadratic plus
    the mixed degree-n symbols.  Returns (primaries, rows) on the
    coordinate-ring side."""
    A = free_algebra(n, 2)
    rows = [((j, j), [A.rho((1, 1)) ** j]) for j in range(n + 1)]
    rows += [((n - i, i), [A.pi((n - i, i))]) for i in range(1, n)]
    return _through_phi(n, 2, rows)


def secondary_table_n4_m3():
    """The 13-row table of free-module generators for four-fold rotations on
    three vectors (weakly decreasing multidegrees; 18 elements).  Returns
    (primaries, rows) on the coordinate-ring side."""
    A = free_algebra(4, 3)
    r110 = A.rho((1, 1, 0))
    r101 = A.rho((1, 0, 1))
    r011 = A.rho((0, 1, 1))
    rows = [
        ((0, 0, 0), [A.one()]),
        ((1, 1, 0), [r110]),
        ((2, 1, 1), [A.pi((2, 1, 1)), r110 * r101]),
        ((2, 2, 0), [A.pi((2, 2, 0)), r110 * r110]),
        ((3, 1, 0), [A.pi((3, 1, 0))]),
        ((3, 2, 1), [A.pi((3, 1, 0)) * r011, r110 * r110 * r101]),
        ((3, 3, 0), [r110 ** 3]),
        ((4, 1, 1), [A.pi((3, 1, 0)) * r101]),
        ((3, 3, 2), [A.pi((2, 1, 1)) * A.pi((1, 2, 1)),
                     A.pi((3, 1, 0)) * r011 * r011]),
        ((4, 2, 2), [A.pi((3, 1, 0)) * r101 * r011,
                     r110 * r110 * r101 * r101]),
        ((4, 3, 1), [r110 ** 3 * r101]),
        ((4, 4, 0), [r110 ** 4]),
        ((4, 3, 3), [A.pi((3, 1, 0)) * r101 * r011 * r011]),
    ]
    return _through_phi(4, 3, rows)


def cyclic_table_n4_m3():
    """The 15-row monomial table of free-module generators for the rotation
    subgroup on three vectors (36 monomials), plus the primary images.
    Returns (primaries, rows) on the coordinate-ring side."""
    U = xy_universe(3)

    def mono(text):
        return parse_polynomial(text, U)

    rows = [
        ((0, 0, 0), ["1"]),
        ((1, 1, 0), ["x1*y2", "y1*x2"]),
        ((2, 1, 1), ["x1^2*x2*x3", "y1^2*y2*y3", "x1^2*y2*y3", "y1^2*x2*x3"]),
        ((2, 2, 0), ["x1^2*x2^2", "y1^2*y2^2", "x1^2*y2^2", "y1^2*x2^2"]),
        ((3, 1, 0), ["x1^3*x2", "y1^3*y2"]),
        ((4, 0, 0), ["x1^4"]),
        ((3, 2, 1), ["x1^3*y2^2*y3", "y1^3*x2^2*x3", "x1^3*x2^2*y3",
                     "y1^3*y2^2*x3"]),
        ((3, 3, 0), ["x1^3*y2^3", "y1^3*x2^3"]),
        ((4, 1, 1), ["x1^4*x2*y3", "x1^4*y2*x3"]),
        ((3, 3, 2), ["x1^3*x2^3*x3^2", "y1^3*y2^3*y3^2", "x1^3*x2^3*y3^2",
                     "y1^3*y2^3*x3^2"]),
        ((4, 2, 2), ["x1^4*x2^2*x3^2", "x1^4*y2^2*y3^2", "x1^4*x2^2*y3^2",
                     "x1^4*y2^2*x3^2"]),
        ((4, 3, 1), ["x1^4*x2^3*x3", "x1^4*y2^3*y3"]),
        ((4, 4, 0), ["x1^4*x2^4"]),
        ((4, 3, 3), ["x1^4*x2^3*y3^3", "x1^4*y2^3*x3^3"]),
        ((4, 4, 4), ["x1^4*x2^4*x3^4"]),
    ]
    primaries = [phi(h) for h in primary_elements(4, 3)]
    return primaries, [(alpha, [mono(s) for s in texts])
                       for alpha, texts in rows]


# ---------------------------------------------------------------------------
# GL-ideal generation


def gl_generation_report(generator_hwvs, D, resource_cap=None):
    """Expand each claimed generator to a basis of its GL-submodule, build
    the truncated ideal, and compare its slice dimensions with the kernel's
    in every weakly decreasing multidegree of total degree <= D.  Returns
    (ok, rows) where rows aggregate both dimensions per total degree.

    The generators fix the algebra F(n, m) whose kernel is compared: all
    of them must lie in one, and an empty list is a ValueError.  The ideal
    lies in the kernel, so the kernel dimension is the ceiling of each
    slice's rank; the kernel basis is checked against its count where it
    is built, and an ArithmeticError there propagates."""
    D = _degree_bound(D)
    cap = resolve_resource_cap(resource_cap)
    expanded = []
    for g in generator_hwvs:
        if not phi(g).is_zero():
            return False, [{"degree": g.degree(),
                            "ideal_dim": -1, "kernel_dim": -1,
                            "note": "generator not in the kernel"}]
        expanded.extend(submodule_basis(g))
    ideal = TruncatedIdeal(expanded, cap)
    n, m = ideal.algebra.n, ideal.algebra.m
    ok = True
    rows = []
    for t in range(D + 1):
        ideal_total = 0
        kernel_total = 0
        for alpha in decreasing_multidegrees(m, t):
            kdim = len(kernel_basis_at(n, m, alpha, cap))
            idim = ideal.component_dimension(alpha, kdim)
            if idim != kdim:
                ok = False
            size = orbit_size(alpha)
            ideal_total += idim * size
            kernel_total += kdim * size
        rows.append({"degree": t, "ideal_dim": ideal_total,
                     "kernel_dim": kernel_total})
    return ok, rows
