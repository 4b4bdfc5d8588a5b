"""Exact polynomial arithmetic: sparse rational polynomials over the two
variable universes used throughout the package (the coordinate ring of m
plane vectors, and the free polynomial ring on the rho/pi symbols), keyed by
monomials stored as sorted tuples of (variable, exponent) pairs with one
pair object per distinct value (`pair`), ranks and nullspaces of their int
polynomials as integer rows over the monomial bases, and a small Gröbner
engine."""

from .rings import (
    Polynomial,
    VariableUniverse,
    compositions,
    divided_monomial,
    grlex_key,
    monomial,
    monomial_degree,
    monomial_multidegree,
    monomial_product,
    monomial_text,
    pair,
    parse_polynomial,
    renamed_monomial,
    rhopi_universe,
    xy_universe,
)
from .linalg import (
    PolynomialSpace,
    RowSpace,
    nullspace_combinations,
    rank_up_to,
    scaled_row_from_polynomial,
)
from .groebner import (
    STAIRCASE_CAP,
    MonomialOrder,
    buchberger,
    leading_term,
    normal_form,
    s_polynomial,
    staircase_generating_function,
    staircase_monomials,
)

__all__ = [
    "STAIRCASE_CAP",
    "MonomialOrder",
    "Polynomial",
    "PolynomialSpace",
    "RowSpace",
    "VariableUniverse",
    "buchberger",
    "compositions",
    "divided_monomial",
    "grlex_key",
    "leading_term",
    "monomial",
    "monomial_degree",
    "monomial_multidegree",
    "monomial_product",
    "monomial_text",
    "normal_form",
    "nullspace_combinations",
    "pair",
    "parse_polynomial",
    "rank_up_to",
    "renamed_monomial",
    "rhopi_universe",
    "s_polynomial",
    "scaled_row_from_polynomial",
    "staircase_generating_function",
    "staircase_monomials",
    "xy_universe",
]
