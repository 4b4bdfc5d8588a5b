"""Exact-arithmetic toolkit for vector invariants of dihedral groups.

The package constructs the invariant ring C[V^m]^{D_2n} of the dihedral group
of order 2n acting on m copies of its defining 2-dimensional representation,
presents it as the image of a free polynomial algebra F(n,m) under the
surjection phi(n,m), and verifies -- by independent exact linear algebra --
explicit syzygies, minimal generating systems of the relation ideal as a
GL_m-ideal, Hironaka decompositions, and GL_m-module multiplicity tables.

All arithmetic is exact: coefficients are ints, or Fractions where they are
not integers, and the linear algebra runs on integer rows only; there is no
floating point anywhere.

This module imports nothing: import what you use from the submodules
(`dihedralinv.gltheory`, `dihedralinv.kernelcalc`, ...), so a session loads
only the code it calls.
"""

__version__ = "0.1.0"
