"""Exact polynomial arithmetic: sparse rational polynomials over the two
variable universes used throughout the package (the coordinate ring of m
plane vectors, and the free polynomial ring on the rho/pi symbols), keyed by
monomials stored as sorted (variable, exponent) pair tuples, ranks
and nullspaces of their int polynomials as integer rows over the monomial
bases, and a small Gröbner engine."""

from .rings import (
    Polynomial,
    VariableUniverse,
    compositions,
    grlex_key,
    monomial,
    monomial_degree,
    monomial_multidegree,
    monomial_product,
    monomial_text,
    parse_polynomial,
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
    MonomialOrder,
    buchberger,
    leading_term,
    normal_form,
    s_polynomial,
    staircase_generating_function,
    staircase_monomials,
)

__all__ = [
    "MonomialOrder",
    "Polynomial",
    "PolynomialSpace",
    "RowSpace",
    "VariableUniverse",
    "buchberger",
    "compositions",
    "grlex_key",
    "leading_term",
    "monomial",
    "monomial_degree",
    "monomial_multidegree",
    "monomial_product",
    "monomial_text",
    "normal_form",
    "nullspace_combinations",
    "parse_polynomial",
    "rank_up_to",
    "rhopi_universe",
    "s_polynomial",
    "scaled_row_from_polynomial",
    "staircase_generating_function",
    "staircase_monomials",
    "xy_universe",
]
