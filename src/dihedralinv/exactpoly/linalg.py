"""Exact linear algebra over the rationals on monomial bases.

Rows are sparse integer vectors (fraction-free: each polynomial row is scaled
to integers and divided by the gcd of its entries) and elimination combines
rows by cross-multiplication, so no rational arithmetic happens in the inner
loop.  Columns are integer ids into a monomial basis that the caller knows
up front (every graded or multigraded component does); pivoting is
deterministic: the pivot of a row is its smallest column id.  With columns
in the canonical graded-lex order (`sorted_monomials`), that is the leading
monomial.

With combination tracking enabled, every inserted row carries the coefficient
vector expressing it in terms of the inserted rows; a row that reduces to zero
therefore hands back an exact linear relation.  This is the nullspace engine
behind all kernel computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def scaled_row_from_polynomial(poly, col_index):
    """Sparse integer row of a polynomial over the column ids `col_index`
    (denominators cleared, gcd divided out), plus the positive rational
    factor f with row == f * poly.

    The factor is needed whenever a combination among rows must be turned
    back into a combination among the original polynomials."""
    if not poly.terms:
        return {}, Fraction(1)
    den = 1
    for c in poly.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    row = {}
    g = 0
    for mono, c in poly.terms.items():
        v = int(c * den)
        row[col_index[mono]] = v
        g = gcd(g, v)
    if g > 1:
        for k in row:
            row[k] //= g
    return row, Fraction(den, g if g else 1)


class RowSpace:
    """Incrementally built echelon basis of a row space over integer
    columns; the pivot of a row is its smallest column."""

    def __init__(self, track=False):
        self.pivots = {}        # pivot column -> (row, combo or None)
        self.track = track
        self.last_combination = None
        self._ntags = 0

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row, combo):
        """Eliminate `row` against the stored pivots; returns the remainder
        and the consistently scaled combination."""
        pivots = self.pivots
        while row:
            col = min(row)
            hit = pivots.get(col)
            if hit is None:
                break
            prow, pcombo = hit
            a = prow[col]
            b = row[col]
            g = gcd(a, b)
            a //= g
            b //= g
            # row := a*row - b*prow  (kills `col`)
            new = {}
            for k, v in row.items():
                new[k] = a * v
            for k, v in prow.items():
                w = new.get(k, 0) - b * v
                if w:
                    new[k] = w
                elif k in new:
                    del new[k]
            row = new
            if combo is not None:
                for k in list(combo):
                    combo[k] *= a
                if pcombo:
                    for k, v in pcombo.items():
                        w = combo.get(k, 0) - b * v
                        if w:
                            combo[k] = w
                        elif k in combo:
                            del combo[k]
                row, combo = _joint_normalize(row, combo)
            else:
                _gcd_normalize(row)
        return row, combo

    def insert_row(self, row, tag=None):
        """Insert a sparse integer row; True iff the rank grew.  When a
        tracked row reduces to zero, `last_combination` holds the integer
        combination of inserted tags (this one included) that vanishes."""
        row = dict(row)
        combo = None
        if self.track:
            combo = {self._ntags if tag is None else tag: 1}
        self._ntags += 1
        row, combo = self._reduce(row, combo)
        if not row:
            self.last_combination = combo
            return False
        self.last_combination = None
        if combo is None:
            _gcd_normalize(row)
        else:
            row, combo = _joint_normalize(row, combo)
        self.pivots[min(row)] = (row, combo)
        return True

    def contains_row(self, row):
        remainder, _ = self._reduce(dict(row), None)
        return not remainder


def _gcd_normalize(row):
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    for k in row:
        row[k] //= g
    return row


def _joint_normalize(row, combo):
    """Divide a tracked row and its combination by their common gcd, so the
    identity (combo . inserted rows) == row survives exactly."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row, combo
    for v in combo.values():
        g = gcd(g, v)
        if g == 1:
            return row, combo
    if g > 1:
        row = {k: v // g for k, v in row.items()}
        combo = {k: v // g for k, v in combo.items()}
    return row, combo


class PolynomialSpace:
    """Row space spanned by polynomials over one universe, with rows over
    the given monomial basis `columns` (column id = list position)."""

    def __init__(self, universe, columns, track=False):
        self.universe = universe
        self.col_index = {mono: i for i, mono in enumerate(columns)}
        self.space = RowSpace(track=track)

    @property
    def rank(self):
        return self.space.rank

    @property
    def last_combination(self):
        return self.space.last_combination

    def _row(self, poly):
        if poly.universe != self.universe:
            raise ValueError("mixed universes: %r vs %r"
                             % (poly.universe, self.universe))
        return scaled_row_from_polynomial(poly, self.col_index)[0]

    def insert(self, poly, tag=None):
        return self.space.insert_row(self._row(poly), tag=tag)

    def contains(self, poly):
        try:
            row = self._row(poly)
        except KeyError:
            # a monomial outside the declared column basis cannot be in the span
            return False
        return self.space.contains_row(row)


def sorted_monomials(monos, nvars):
    """Canonical column order: graded lex, biggest (leading) monomial first."""
    return sorted(monos, key=lambda mo: mo.grlex_key(nvars), reverse=True)


def columns_for(polys):
    if not polys:
        return []
    universe = polys[0].universe
    monos = set()
    for p in polys:
        if p.universe != universe:
            raise ValueError("mixed universes in polynomial list")
        monos.update(p.terms)
    return sorted_monomials(monos, universe.nvars)


def _canonical_relation(combo, factors):
    """Turn a combination among scaled rows into an integer relation among the
    original polynomials, as a dict index -> coefficient with ascending keys:
    entries coprime, first entry positive."""
    keys = sorted(combo)
    values = [combo[k] * factors[k] for k in keys]
    den = 1
    for c in values:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if ints[0] < 0:
        g = -g
    return {k: v // g for k, v in zip(keys, ints)}


def linear_relations(polys):
    """A basis of the space of rational vectors c with sum(c_i*polys[i]) = 0.

    Each relation is a list of Fractions (an integer vector with coprime
    entries and positive first nonzero entry); relations appear in the
    deterministic order in which dependent rows are met.  Empty iff the
    inputs are linearly independent.  This is `nullspace_combinations`
    written out densely."""
    polys = list(polys)
    return [[Fraction(rel.get(j, 0)) for j in range(len(polys))]
            for rel in nullspace_combinations(polys)]


def span_dimension(polys):
    """Rank of the coefficient matrix of the given polynomials."""
    polys = list(polys)
    if not polys:
        return 0
    space = PolynomialSpace(polys[0].universe, columns_for(polys))
    for p in polys:
        space.insert(p)
    return space.rank


def nullspace_combinations(polys, columns=None):
    """A basis of the relations among `polys`, each an integer dict
    index -> coefficient in the canonical form of `_canonical_relation`;
    a precomputed column list is accepted."""
    polys = list(polys)
    if columns is None:
        columns = columns_for(polys)
    col_index = {mono: i for i, mono in enumerate(columns)}
    space = RowSpace(track=True)
    out = []
    factors = {}
    for i, p in enumerate(polys):
        row, f = scaled_row_from_polynomial(p, col_index)
        factors[i] = f
        if not row:
            out.append({i: 1})
            continue
        if not space.insert_row(row, tag=i):
            out.append(_canonical_relation(space.last_combination, factors))
    return out
