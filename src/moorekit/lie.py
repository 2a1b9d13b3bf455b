"""Lie algebras over Z/p and the Lie side of 3-crossed modules.

A Lie algebra is a :class:`~moorekit.coeff.LieAlgebra`, an
:class:`~moorekit.coeff.Algebra` whose structure tensor holds bracket
constants, so elements, morphisms and bilinear maps are the commutative
machinery: x * y on elements of a Lie algebra computes [x, y].  A Lie
3-crossed module is a :class:`~moorekit.crossed.CrossedChain` of length 3
over Lie algebras, stored, loaded and dumped like a commutative one, and
verified by ``crossed.verify_3cm`` under the same record names.

What differs by carrier:

* structure: alternating and Jacobi (``validate_lie``) instead of
  associativity and commutativity.  Alternating is enforced directly
  ([x, x] = 0 on basis vectors), which also covers characteristic 2;
* actions: by derivations, as a Lie homomorphism into them, the rows
  ``crossed._action_laws`` sweeps over Lie algebras;
* no equivariance tables: Tables 3-4 print the commutative
  equivariances, and ``verify_3cm`` adds them on commutative chains only.
"""

from __future__ import annotations

import numpy as np

from .coeff import LieAlgebra, PrimeField, Violation, matmul, sweep_step
from .crossed import AxiomReport, CrossedChain, verify_3cm, zero_extension


def validate_lie(L: LieAlgebra) -> list[Violation]:
    """Alternating and Jacobi violations; empty iff L is a Lie algebra."""
    p, c, d = L.p, L.structure, L.dim
    out = [Violation("alternating", (i,)) for i in range(d) if c[i, i].any()]
    anti = (c + c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(anti.any(axis=2))):
        if i < j:
            out.append(Violation("antisymmetry", (int(i), int(j))))
    # [[e_i, e_j], e_l] + [[e_j, e_l], e_i] + [[e_l, e_i], e_j] at [i, j, l],
    # one i-chunk from s at a time, each term formed with i in its own slot;
    # only j, l >= s are formed, since a triple leads its cyclic class
    # only when i <= j and i <= l
    step = sweep_step(d ** 3)
    for s in range(0, d, step):
        e, n = d - s, min(step, d - s)
        tail = c[:, s:].reshape(d, e * d)
        ijl = matmul(c[s:s + n, s:].reshape(n * e, d), tail, p).reshape(n, e, e, d)
        jli = matmul(c[s:, s:].reshape(e * e, d), c[:, s:s + n].reshape(d, n * d), p)
        lij = matmul(c[s:, s:s + n].reshape(e * n, d), tail, p).reshape(e, n, e, d)
        jac = (ijl + jli.reshape(e, e, n, d).transpose(2, 0, 1, 3)
               + lij.transpose(1, 2, 0, 3)) % p
        for i, j, l in zip(*np.nonzero(jac.any(axis=3))):
            trip = (s + int(i), s + int(j), s + int(l))
            rots = [trip, trip[1:] + trip[:1], trip[2:] + trip[:2]]
            if trip == min(rots):  # one witness per cyclic class
                out.append(Violation("jacobi", trip))
    return out


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
