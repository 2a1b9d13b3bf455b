"""Lie algebras over Z/p and the Lie side of 3-crossed modules.

A Lie algebra is a :class:`~moorekit.coeff.LieAlgebra`, an
:class:`~moorekit.coeff.Algebra` whose structure tensor holds bracket
constants, so elements, morphisms and bilinear maps are the commutative
machinery: x * y on elements of a Lie algebra computes [x, y].  A Lie
3-crossed module is a :class:`~moorekit.crossed.CrossedChain` of length 3
over Lie algebras, stored, loaded and dumped like a commutative one, and
verified by ``crossed.verify_3cm`` under the same record names.

What differs by carrier:

* structure: ``coeff.validate_algebra`` reads the bracket and checks
  alternating, antisymmetry and Jacobi instead of commutativity,
  associativity and the identity, which a Lie algebra does not have;
* actions: by derivations, as a Lie homomorphism into them, the rows
  ``crossed._action_laws`` sweeps over Lie algebras;
* no equivariance tables: Tables 3-4 print the commutative
  equivariances, and ``verify_3cm`` adds them on commutative chains only.
"""

from __future__ import annotations

import numpy as np

from .coeff import LieAlgebra, PrimeField
from .crossed import AxiomReport, CrossedChain, verify_3cm, zero_extension


def lie_abelian(p: int, dim: int) -> LieAlgebra:
    return LieAlgebra(PrimeField(p), np.zeros((dim, dim, dim), dtype=np.int64),
                      tuple(f"a{i}" for i in range(dim)), name=f"abelian({dim})")


def lie_heisenberg(p: int) -> LieAlgebra:
    """[x, y] = z, all other brackets zero."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2] = 1
    c[1, 0, 2] = (-1) % p
    return LieAlgebra(PrimeField(p), c, ("x", "y", "z"), name="heisenberg")


# ---------------------------------------------------------------------------
# Lie crossed chains


def verify_lie_3cm(m: CrossedChain) -> AxiomReport:
    """A Lie 3-crossed module checked by ``verify_3cm``, which reads the
    bracket from its levels."""
    return verify_3cm(m)


def degenerate_lie_3cm(L0: LieAlgebra, name: str = "") -> CrossedChain:
    """Trivial upper levels and liftings over a base Lie algebra; every
    axiom degenerates to 0 = 0."""
    zero = lie_abelian(L0.p, 0)
    return zero_extension(CrossedChain((L0,)), 3, (lie_abelian(L0.p, 1), zero, zero),
                          name or f"degenerate({L0.name})")
