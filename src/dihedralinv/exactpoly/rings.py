"""Sparse multivariate polynomials with exact rational coefficients.

Two variable universes are supported:

* ``XY(m)`` -- the coordinate ring of m vectors, variables x1,y1,...,xm,ym;
* ``RHOPI(n,m)`` -- the free algebra on the generators of the dihedral
  invariant ring: one variable rho[a] for every multi-index a of total 2 and
  one variable pi[b] for every multi-index b of total n.

Coefficients are exact rationals stored integer-first: an `int`, or a
reduced `fractions.Fraction` whose denominator is greater than 1 (zero is
never stored).  A polynomial is built from a dict monomial -> coefficient,
and only int and Fraction are accepted as input coefficients; an integral
Fraction is stored as its int, so equal polynomials have equal terms
whichever form they were built from.  A monomial is its exponents stored
sparsely: the tuple of its (variable index, positive exponent) pairs sorted
by variable, with () the unit monomial.  `monomial` checks pairs that come
from outside; products and the other operations that already have their
pairs in that form build the tuple without re-checking it.  The canonical
term order used for serialization is graded lexicographic on exponent
vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import re


def _exact(c):
    """The coefficient c in stored form: an int, or a Fraction with
    denominator > 1.  Only int and Fraction are exact: a float (or a string)
    would be read as some nearby rational, so it is a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("polynomial coefficients must be int or Fraction, "
                    "got %s %r" % (type(c).__name__, c))


def _integral(terms):
    """Store every integral Fraction among the values of `terms` as its int,
    in place; returns `terms`.  Sums and products of ints stay ints, so only
    results that involved a Fraction can need it."""
    for mono, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


def compositions(total, parts):
    """All vectors of `parts` non-negative integers summing to `total`,
    in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class VariableUniverse:
    """A declared, ordered set of variables shared by all monomials of a
    polynomial.

    kind "xy":    variables x1,y1,x2,y2,...,xm,ym (in this order).
    kind "rhopi": all rho[a] with sum(a) = 2 in descending lex order of a,
                  followed by all pi[b] with sum(b) = n in descending lex
                  order of b.
    """

    __slots__ = ("kind", "m", "n", "_names", "_index", "_weights", "_degrees")

    def __init__(self, kind, m, n=None):
        if m < 1:
            raise ValueError("need at least one vector variable, got m=%r" % (m,))
        self.kind = kind
        self.m = m
        self.n = n
        names = []
        weights = []   # multidegree contributed by one power of the variable
        degrees = []   # total degree contributed by one power of the variable
        if kind == "xy":
            for i in range(1, m + 1):
                names.append("x%d" % i)
                names.append("y%d" % i)
                e_i = tuple(1 if j == i - 1 else 0 for j in range(m))
                weights.append(e_i)
                weights.append(e_i)
                degrees.append(1)
                degrees.append(1)
        elif kind == "rhopi":
            if n is None or n < 3:
                raise ValueError("rhopi universe needs n >= 3, got %r" % (n,))
            for a in compositions(2, m):
                names.append("rho[%s]" % ",".join(map(str, a)))
                weights.append(a)
                degrees.append(2)
            for b in compositions(n, m):
                names.append("pi[%s]" % ",".join(map(str, b)))
                weights.append(b)
                degrees.append(n)
        else:
            raise ValueError("unknown universe kind %r" % (kind,))
        self._names = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}
        self._weights = tuple(weights)
        self._degrees = tuple(degrees)

    @property
    def nvars(self):
        return len(self._names)

    def name(self, i):
        return self._names[i]

    def names(self):
        return self._names

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("no variable named %r in %r"
                             % (name, self)) from None

    def weight(self, i):
        """Multidegree (length-m vector) contributed by one power of variable i."""
        return self._weights[i]

    def degree(self, i):
        """Total degree contributed by one power of variable i (1 for xy
        variables, 2 for rho, n for pi)."""
        return self._degrees[i]

    def __eq__(self, other):
        return (isinstance(other, VariableUniverse)
                and self.kind == other.kind and self.m == other.m
                and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.m, self.n))

    def __repr__(self):
        if self.kind == "xy":
            return "XY(%d)" % self.m
        return "RHOPI(%d,%d)" % (self.n, self.m)


@lru_cache(maxsize=None)
def xy_universe(m):
    return VariableUniverse("xy", m)


@lru_cache(maxsize=None)
def rhopi_universe(n, m):
    return VariableUniverse("rhopi", m, n)


def monomial(pairs):
    """The monomial of (variable index, exponent) pairs given in any order:
    sorted by variable, zero exponents dropped.  A negative exponent or a
    variable given twice is a ValueError.  This is the one check for pairs
    from outside; the operations below build their tuples in stored form."""
    mono = tuple(sorted((v, e) for v, e in pairs if e != 0))
    last = None
    for v, e in mono:
        if e < 0:
            raise ValueError("negative exponent in monomial: %r" % (mono,))
        if v == last:
            raise ValueError("repeated variable in monomial: %r" % (mono,))
        last = v
    return mono


def monomial_product(a, b):
    """The product of two monomials: merge the two sorted pair tuples,
    adding exponents on a shared variable."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va = a[i][0]
        vb = b[j][0]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, a[i][1] + b[j][1]))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def monomial_degree(mono):
    """Total degree: every variable counts 1."""
    return sum(e for _, e in mono)


def grlex_key(mono, nvars):
    """Sort key for the canonical graded-lex order; bigger key = bigger
    monomial (sort descending for leading-term-first serialization)."""
    dense = [0] * nvars
    for v, e in mono:
        dense[v] = e
    return (monomial_degree(mono), tuple(dense))


def monomial_multidegree(mono, universe):
    out = [0] * universe.m
    for v, e in mono:
        for j, w in enumerate(universe.weight(v)):
            out[j] += e * w
    return tuple(out)


def monomial_text(mono, universe):
    if not mono:
        return "1"
    return "*".join(universe.name(v) if e == 1
                    else "%s^%d" % (universe.name(v), e) for v, e in mono)


class Polynomial:
    """Sparse polynomial over a fixed universe: map monomial (sorted pair
    tuple) -> nonzero coefficient (an int, or a Fraction with denominator
    > 1).  Immutable by convention; arithmetic returns new objects.

    `Polynomial(universe, terms)` takes a dict monomial -> int or Fraction:
    zero coefficients are dropped, an integral Fraction is stored as its
    int, and any other coefficient type is a TypeError."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe, terms):
        self.universe = universe
        self.terms = {}
        for mono, c in terms.items():
            c = _exact(c)
            if c:
                self.terms[mono] = c

    # -- constructors --------------------------------------------------

    @classmethod
    def _of(cls, universe, terms):
        """The polynomial of a dict already in the stored form (nonzero
        int or non-integral Fraction values); `terms` is kept, not
        copied."""
        poly = object.__new__(cls)
        poly.universe = universe
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, universe):
        return cls._of(universe, {})

    @classmethod
    def constant(cls, universe, c):
        return cls(universe, {(): c})

    @classmethod
    def variable(cls, universe, v, e=1):
        return cls(universe, {monomial(((v, e),)): 1})

    @classmethod
    def from_monomial(cls, universe, mono, c=1):
        return cls(universe, {mono: c})

    # -- predicates / views --------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms in canonical order: graded lex, leading term first."""
        nv = self.universe.nvars
        return sorted(self.terms.items(),
                      key=lambda it: grlex_key(it[0], nv), reverse=True)

    def degree(self):
        """Weighted total degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        u = self.universe
        return max(sum(e * u.degree(v) for v, e in m) for m in self.terms)

    def is_homogeneous(self):
        u = self.universe
        degs = {sum(e * u.degree(v) for v, e in m) for m in self.terms}
        return len(degs) <= 1

    def multidegree(self):
        """The common multidegree of all terms, or None if the polynomial is
        not multihomogeneous.  Zero polynomial -> None."""
        mds = {monomial_multidegree(m, self.universe) for m in self.terms}
        if len(mds) == 1:
            return next(iter(mds))
        return None

    def coefficient(self, mono):
        return self.terms.get(mono, 0)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.universe != other.universe:
            raise ValueError("mixed universes: %r vs %r"
                             % (self.universe, other.universe))

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            acc = d.get(m)
            if acc is None:
                d[m] = c
            else:
                acc += c
                if acc:
                    d[m] = acc
                else:
                    del d[m]
        return Polynomial._of(self.universe, _integral(d))

    def __neg__(self):
        return Polynomial._of(self.universe,
                              {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_product(m1, m2)
                c = c1 * c2
                acc = d.get(m)
                if acc is None:
                    d[m] = c
                else:
                    acc += c
                    if acc:
                        d[m] = acc
                    else:
                        del d[m]
        return Polynomial._of(self.universe, _integral(d))

    __rmul__ = __mul__

    def scale(self, c):
        c = _exact(c)
        if c == 1:
            return Polynomial._of(self.universe, dict(self.terms))
        if not c:
            return Polynomial._of(self.universe, {})
        return Polynomial._of(self.universe, _integral(
            {m: c * v for m, v in self.terms.items()}))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.universe, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.universe == other.universe
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.universe,
                     frozenset(self.terms.items())))

    # -- substitution --------------------------------------------------

    def substitute(self, mapping):
        """Substitute variables by polynomials.  `mapping` maps variable
        indices to Polynomial values (all over one target universe);
        unmapped variables are carried over unchanged (requires the target
        universe to equal the source universe in that case)."""
        target = None
        for p in mapping.values():
            target = p.universe
            break
        if target is None:
            target = self.universe
        out = Polynomial.zero(target)
        for mono, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for v, e in mono:
                if v in mapping:
                    term = term * (mapping[v] ** e)
                else:
                    if target != self.universe:
                        raise ValueError("variable %s not mapped"
                                         % self.universe.name(v))
                    term = term * Polynomial.variable(target, v, e)
            out = out + term
        return out

    def sharing(self, table):
        """The same polynomial, each monomial replaced by the equal tuple
        that `table` (monomial -> itself) holds; a monomial the table lacks
        is added to it.  Polynomials passed through one table hold one
        tuple object per distinct monomial (hash-consing)."""
        return Polynomial._of(self.universe, {
            table.setdefault(m, m): c for m, c in self.terms.items()})

    def permute_variables(self, var_map):
        """Rename variables via the index map `var_map` (a permutation of the
        universe's variable indices)."""
        return Polynomial._of(self.universe, {
            tuple(sorted([(var_map[v], e) for v, e in m])): c
            for m, c in self.terms.items()})

    # -- text form -------------------------------------------------------

    def text(self):
        """Canonical text form: terms sorted by graded lex (leading first),
        rational coefficients as p/q, variables as x1,y1,... or rho[a,b,c],
        pi[a,b,c]."""
        if not self.terms:
            return "0"
        chunks = []
        for i, (mono, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            body = monomial_text(mono, self.universe)
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = "%s*%s" % (mag, body)
            if i == 0:
                chunks.append("-" + piece if neg else piece)
            else:
                chunks.append((" - " if neg else " + ") + piece)
        return "".join(chunks)

    __str__ = text

    def __repr__(self):
        return "Polynomial(%r, %s)" % (self.universe, self.text())


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)|(?P<name>[a-zA-Z]+\d+|[a-zA-Z]+\[[\d,]+\])"
    r"(?:\^(?P<exp>\d+))?)$")


def parse_polynomial(s, universe):
    """Parse the canonical text form back into a Polynomial."""
    s = s.strip()
    if s == "0":
        return Polynomial.zero(universe)
    out = Polynomial.zero(universe)
    for raw in _TERM_SPLIT.split(s.replace(" ", "")):
        if not raw:
            continue
        sign = 1
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:]
        if not raw:
            if sign != 1:
                raise ValueError("dangling sign in %r" % (s,))
            continue
        coeff = sign
        exps = {}
        for factor in raw.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError("cannot parse factor %r" % (factor,))
            if m.group("coeff"):
                coeff *= Fraction(m.group("coeff"))
            else:
                v = universe.index(m.group("name"))
                e = int(m.group("exp") or 1)
                exps[v] = exps.get(v, 0) + e
        out = out + Polynomial.from_monomial(universe, monomial(exps.items()),
                                             coeff)
    return out
