"""Exact linear algebra over the integers on monomial bases.

Rows are sparse integer vectors: every polynomial handed in has int
coefficients (phi images are kept as 2^k phi(mono), see `freealgebra`), and a
Fraction coefficient is a TypeError.  Elimination combines rows by
cross-multiplication and divides out the gcd of each stored or reduced row,
so no rational arithmetic happens anywhere.
Pivoting is deterministic: the pivot of a row is its smallest column id.
A nullspace numbers its columns by a monomial basis that the caller knows up
front (every graded or multigraded component does), because the pivot order
fixes which relation comes out.  A rank does not depend on the column order,
so `PolynomialSpace` numbers each monomial the first time it sees one.

`RowSpace` has a single reduction loop, which serves ranks and relations
alike.  `nullspace_combinations` finds relations by row-reducing
[A | I] (Cohen, *A Course in Computational Algebraic Number Theory*, ch. 2):
row i carries a unit entry in a column past the monomial columns, so every
row records the combination of inputs it stands for, and a row whose
monomial part reduces to zero hands back an exact linear relation.  This is
the nullspace engine behind all kernel computations.

Every rank that stops at a ceiling the caller has proven runs through
`rank_up_to`, which tests the ceiling before it draws a row, so no row past
it is built.
"""

from __future__ import annotations

from math import gcd

from .rings import monomial_text


def scaled_row_from_polynomial(poly, col_index):
    """Sparse integer row of an int polynomial over the column ids
    `col_index`.  A monomial outside `col_index` is a ValueError and a
    coefficient that is not an int is a TypeError."""
    row = {}
    try:
        for mono, c in poly.terms.items():
            if type(c) is not int:
                raise TypeError("rows need int coefficients, got %s at %s"
                                % (c, monomial_text(mono, poly.universe)))
            row[col_index[mono]] = c
    except KeyError:
        raise ValueError("monomial %s is not in the column basis"
                         % monomial_text(mono, poly.universe)) from None
    return row


class RowSpace:
    """Incrementally built echelon basis of a row space over integer
    columns; the pivot of a row is its smallest column."""

    def __init__(self):
        self.pivots = {}        # pivot column -> row

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Eliminate a sparse integer row against the stored pivots and
        return the remainder (gcd divided out after each step); it is empty
        iff the row lies in the span.  `row` is never modified, but comes
        back as it is when no pivot meets it."""
        pivots = self.pivots
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                break
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
            row = _gcd_normalize(new)
        return row

    def insert_row(self, row):
        """Insert a sparse integer row; True iff the rank grew."""
        row = self.reduce(dict(row))
        if not row:
            return False
        self.pivots[min(row)] = _gcd_normalize(row)
        return True


def _gcd_normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def rank_up_to(insert, rows, ceiling=None):
    """The rank that `rows` add through `insert` (True iff the rank grew),
    up to a proven `ceiling`: it is tested before each row is drawn, so a
    lazy `rows` builds none past it.  None draws every row."""
    rank = 0
    rows = iter(rows)
    while rank != ceiling and (row := next(rows, None)) is not None:
        rank += insert(row)
    return rank


class PolynomialSpace:
    """Row space spanned by polynomials over one universe.  A monomial gets
    its column id the first time an inserted polynomial holds it, so no
    basis is listed up front: the rank, and whether an insert raised it, do
    not depend on the order of the columns."""

    def __init__(self, universe):
        self.universe = universe
        self.col_index = {}
        self.space = RowSpace()

    def insert(self, poly):
        """Insert a polynomial; True iff the rank grew."""
        if poly.universe != self.universe:
            raise ValueError("mixed universes: %r vs %r"
                             % (poly.universe, self.universe))
        col_index = self.col_index
        for mono in poly.terms:
            col_index.setdefault(mono, len(col_index))
        return self.space.insert_row(
            scaled_row_from_polynomial(poly, col_index))


def _canonical_relation(combo):
    """An integer relation as a dict index -> coefficient with ascending
    keys, first entry positive.  `combo` is a remainder of `reduce`, so its
    entries are already coprime: each elimination step divides the gcd
    out, and a row no step met still holds its unit entry."""
    keys = sorted(combo)
    sign = -1 if combo[keys[0]] < 0 else 1
    return {k: sign * combo[k] for k in keys}


def nullspace_combinations(polys, columns):
    """A basis of the relations among `polys`, whose monomials lie in
    `columns`, each an integer dict index -> coefficient in the canonical
    form of `_canonical_relation`; relations appear in the order in which
    dependent polynomials are met.

    Row i is reduced with a unit entry in column len(columns) + i; pivots
    sit on monomial columns only, so a remainder with no monomial column
    left is the vanishing combination."""
    col_index = {mono: i for i, mono in enumerate(columns)}
    ncols = len(columns)
    space = RowSpace()
    out = []
    for i, p in enumerate(polys):
        row = scaled_row_from_polynomial(p, col_index)
        row[ncols + i] = 1
        remainder = space.reduce(row)
        if min(remainder) >= ncols:
            out.append(_canonical_relation(
                {k - ncols: v for k, v in remainder.items()}))
        else:
            space.insert_row(remainder)
    return out
