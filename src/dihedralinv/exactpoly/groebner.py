"""Gröbner bases for desk-scale ideals under lex orders.

Deliberately naive Buchberger (all pairs, no strategy) followed by a
reduced-basis pass: the engine only ever meets two-to-four variable examples
such as the ideal (xy, x^n+y^n) of the `groebner demo` command, so
simplicity and determinism beat speed.  Orders are pure lex with a variable
priority; the staircase is listed in graded lex, the serialization order.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import Polynomial, grlex_key, monomial_degree, monomial_product

# the largest staircase listed before it is taken to be infinite
STAIRCASE_CAP = 20000


class MonomialOrder:
    """Pure lex order with an explicit variable priority: priority[0] is
    the most significant variable.  Variables missing from the list rank
    below the listed ones, in increasing index order."""

    __slots__ = ("priority",)

    def __init__(self, priority):
        priority = tuple(priority)
        if len(set(priority)) != len(priority):
            raise ValueError("duplicate variable in priority list")
        self.priority = priority

    def key_function(self, nvars):
        listed = self.priority
        rest = tuple(v for v in range(nvars) if v not in listed)
        cols = listed + rest

        def key(mono):
            exps = dict(mono)
            return tuple(exps.get(v, 0) for v in cols)
        return key

    def __repr__(self):
        return "MonomialOrder(%r)" % (list(self.priority),)


def divides(a, b):
    """True iff monomial a divides monomial b."""
    have = dict(b)
    return all(have.get(v, 0) >= e for v, e in a)


def quotient(a, b):
    """The monomial a / b; b must divide a."""
    d = dict(a)
    for v, e in b:
        left = d.get(v, 0) - e
        if left < 0:
            raise ValueError("monomial %r does not divide %r" % (b, a))
        if left:
            d[v] = left
        else:
            del d[v]
    # only variables of a are left, in a's (sorted) order
    return tuple(d.items())


def lcm(a, b):
    d = dict(a)
    for v, e in b:
        d[v] = max(d.get(v, 0), e)
    return tuple(sorted(d.items()))


def leading_term(f, order):
    """(monomial, coefficient) of the order-largest term; error on zero."""
    if not f.terms:
        raise ValueError("zero polynomial has no leading term")
    key = order.key_function(f.universe.nvars)
    mono = max(f.terms, key=key)
    return mono, f.terms[mono]


def normal_form(f, basis, order):
    """Remainder of multivariate division of f by the basis (in list order).

    When the basis is a Gröbner basis for the order, the remainder is zero
    exactly when f lies in the generated ideal."""
    basis = [b for b in basis if b.terms]
    key = order.key_function(f.universe.nvars)
    lead = [(leading_term(b, order), b) for b in basis]
    remainder = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for (bm, bc), b in lead:
            if divides(bm, mono):
                factor = quotient(mono, bm)
                scale = Fraction(coeff, bc)
                for tm, tc in b.terms.items():
                    if tm is bm or tm == bm:
                        continue
                    km = monomial_product(tm, factor)
                    v = work.get(km, 0) - scale * tc
                    if v:
                        work[km] = v
                    elif km in work:
                        del work[km]
                break
        else:
            remainder[mono] = coeff
    return Polynomial(f.universe, remainder)


def s_polynomial(f, g, order):
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    top = lcm(fm, gm)
    return (f * Polynomial.from_monomial(f.universe, quotient(top, fm),
                                         Fraction(1, fc))
            - g * Polynomial.from_monomial(g.universe, quotient(top, gm),
                                           Fraction(1, gc)))


def buchberger(gens, order):
    """Reduced Gröbner basis of the ideal generated by `gens`.

    Output polynomials are monic, mutually reduced, and sorted by leading
    monomial (smallest first), so the result is canonical for the ideal and
    the order."""
    gens = list(gens)
    if not gens:
        return []
    universe = gens[0].universe
    for g in gens:
        if g.universe != universe:
            raise ValueError("mixed universes in generator list")
        if not g.terms:
            raise ValueError("zero generator")
    basis = list(gens)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.terms:
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    return _reduce_basis(basis, order)


def _reduce_basis(basis, order):
    key = order.key_function(basis[0].universe.nvars)
    # keep only generators with minimal leading monomials
    lead = [leading_term(b, order)[0] for b in basis]
    keep = []
    for i, b in enumerate(basis):
        mi = lead[i]
        redundant = False
        for j, mj in enumerate(lead):
            if i == j or not divides(mj, mi):
                continue
            if mj != mi or j < i:
                redundant = True
                break
        if not redundant:
            keep.append(b)
    # fully reduce each survivor against the others, repeat to a fixed point
    changed = True
    while changed:
        changed = False
        nxt = []
        for i, b in enumerate(keep):
            others = keep[:i] + keep[i + 1:]
            r = normal_form(b, others, order)
            if r != b:
                changed = True
            if r.terms:
                nxt.append(r)
        keep = nxt
    monic = []
    for b in keep:
        _, c = leading_term(b, order)
        monic.append(b.scale(Fraction(1, c)))
    monic.sort(key=lambda b: key(leading_term(b, order)[0]))
    return monic


def staircase_monomials(basis, order):
    """Monomials outside the initial ideal of a Gröbner basis, smallest
    first in graded lex.  Errors past STAIRCASE_CAP monomials: the
    staircase is infinite (the quotient is not finite-dimensional) or
    simply too large."""
    universe = basis[0].universe
    nvars = universe.nvars
    lead = [leading_term(b, order)[0] for b in basis]
    seen = set()
    out = []
    frontier = [()]
    while frontier:
        nxt = []
        for mono in frontier:
            if mono in seen:
                continue
            seen.add(mono)
            if any(divides(lm, mono) for lm in lead):
                continue
            out.append(mono)
            if len(out) > STAIRCASE_CAP:
                raise ValueError(
                    "staircase exceeds %d monomials (infinite quotient?)"
                    % STAIRCASE_CAP)
            for v in range(nvars):
                nxt.append(monomial_product(mono, ((v, 1),)))
        frontier = nxt
    out.sort(key=lambda mo: grlex_key(mo, nvars))
    return out


def staircase_generating_function(monos):
    """Degree generating function of a staircase given as its monomials:
    entry d counts those of total degree d."""
    top = max((monomial_degree(mo) for mo in monos), default=0)
    counts = [0] * (top + 1)
    for mo in monos:
        counts[monomial_degree(mo)] += 1
    return counts
