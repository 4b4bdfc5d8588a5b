"""Exact-arithmetic toolkit for vector invariants of dihedral groups.

The package constructs the invariant ring C[V^m]^{D_2n} of the dihedral group
of order 2n acting on m copies of its defining 2-dimensional representation,
presents it as the image of a free polynomial algebra F(n,m) under the
surjection phi(n,m), and verifies -- by independent exact linear algebra --
explicit syzygies, minimal generating systems of the relation ideal as a
GL_m-ideal, Hironaka decompositions, and GL_m-module multiplicity tables.

All arithmetic is exact (arbitrary-precision rationals); there is no floating
point anywhere.
"""

__version__ = "0.1.0"

from .exactpoly import (
    Monomial,
    MonomialOrder,
    Polynomial,
    VariableUniverse,
    buchberger,
    normal_form,
    parse_polynomial,
    xy_universe,
    rhopi_universe,
)
from .dihedral import (
    DihedralParams,
    invariant_dimension,
    is_invariant,
    p_pol,
    polarize,
    q_pol,
)
from .freealgebra import (
    FreeAlgebra,
    FreeElement,
    free_algebra,
    gl_act,
    is_highest_weight,
    make_R222,
    make_R_2n2k,
    make_R_n2,
    phi,
    submodule_basis,
)
from .gltheory import (
    DecompositionReport,
    ambient_truncated,
    dbar_truncated,
    hilbert_h,
    invariant_multiplicity,
    invariants_truncated,
    kernel_decomposition,
    kostka,
    pieri_row,
    schur_dim,
    sym2_of_symn,
)
from .kernelcalc import (
    ResourceCapError,
    TruncatedIdeal,
    minimal_generators_by_degree,
    verify_hironaka_xy,
)
