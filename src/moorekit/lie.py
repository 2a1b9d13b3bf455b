"""Lie algebras over Z/p and the Lie side of 3-crossed modules.

A Lie algebra is an :class:`~moorekit.coeff.Algebra` whose structure
tensor holds bracket constants, so elements, morphisms and bilinear maps
are the commutative machinery: x * y on elements of a Lie algebra
computes [x, y].  A Lie 3-crossed module is a
:class:`~moorekit.crossed.CrossedChain` of length 3 over Lie algebras,
stored, loaded and dumped like a commutative one.  Its verifiers read
crossed's identity tables, which read the same for both products:
3CM2-3CM16 are ``crossed._THREE_CM`` as ``verify_3cm`` sweeps it (3CM6
on pairs of ``coeff.quadratic_points``), and the degree-3 crossed
module and 3CM1 are ``crossed._CM`` and ``crossed._TWO_CM``.

The real differences stay here:

* structure: alternating and Jacobi (``validate_lie``) instead of
  associativity and commutativity.  Alternating is enforced directly
  ([x, x] = 0 on basis vectors), which also covers characteristic 2;
* actions: by derivations, as a Lie homomorphism into them, swept as one
  row over basis tuples (``_lie_action_laws``);
* ``verify_lie_3cm`` checks the degree-3 crossed module with brackets
  (``verify_lie_crossed``, without the kernel lemma) and 3CM1 as a Lie
  2-crossed module (``verify_lie_2cm``, without 2CM4ii and the boundary
  equivariances), and has no equivariance tables.
"""

from __future__ import annotations

import numpy as np

from .coeff import Algebra, BilinearMap, PrimeField, Violation, matmul, sweep_step
from .crossed import (ACTIONS, _CM, _KERNEL, _TWO_CM, AxiomEntry, AxiomReport, CrossedChain,
                      _flag, _prefixed, _structure_entries, _sweep, _sweep_3cm2_to_16, _sweeps,
                      _top, zero_extension)


class LieAlgebra(Algebra):
    """Finite-dimensional Lie algebra by bracket structure constants:
    [e_i, e_j] = sum_k structure[i, j, k] e_k; ``identity`` is always None."""


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


def _lie_action_laws(name: str, act: BilinearMap) -> AxiomEntry:
    """x.[a, b] = [x.a, b] + [a, x.b] and [x, y].a = x.(y.a) - y.(x.a) for
    an action of L on M, swept over the basis tuples (x, y, a, b)."""
    L, M = act.left, act.right
    return _sweep(name, [L, L, M, M],
                  lambda x, y, a, b: [(act(x, a * b), act(x, a) * b + a * act(x, b)),
                                      (act(x * y, a), act(x, act(y, a)) - act(y, act(x, a)))])


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


def verify_lie_crossed(m: CrossedChain) -> AxiomReport:
    """Boundary rule and Peiffer identity with brackets."""
    entries = [
        _flag("boundary-bracket-morphism", m.d(1).is_multiplicative()),
        _lie_action_laws("lie-action", m.map("01")),
        *_sweeps(m, _CM, "L", omit=(_KERNEL,)),
    ]
    return AxiomReport("lie-crossed", tuple(entries))


def verify_lie_2cm(t: CrossedChain) -> AxiomReport:
    """Bracketized two-crossed axioms; y . x = {y (x) d2 x} as before."""
    d1, d2 = t.boundaries
    entries = [
        _flag("complex", not matmul(d1.matrix, d2.matrix, t.levels[0].p).any()),
        _flag("d2-bracket-morphism", d2.is_multiplicative()),
        _flag("d1-bracket-morphism", d1.is_multiplicative()),
        _lie_action_laws("action-l1", t.map("01")),
        _lie_action_laws("action-l2", t.map("02")),
        *_sweeps(t, _TWO_CM, "L", omit=("d2-equivariant", "d1-equivariant", "2CM4ii")),
    ]
    return AxiomReport("lie-2cm", tuple(entries))


def verify_lie_3cm(m: CrossedChain) -> AxiomReport:
    """The bracketed structure checks, the degree-3 crossed module and
    3CM1, then 3CM2-3CM16 as in ``verify_3cm``; 3CM6 runs on pairs of
    quadratic points of C2, everything else on basis tuples."""
    entries = _structure_entries(m, "bracket-morphism")
    entries += [_lie_action_laws(f"lie-action-{key}", m.map(key)) for key in ACTIONS]
    entries += _prefixed("d3-crossed", verify_lie_crossed(_top(m, 1)))
    entries += _prefixed("3CM1", verify_lie_2cm(_top(m, 2)))
    entries += _sweep_3cm2_to_16(m)
    return AxiomReport(m.name or "lie-3cm", tuple(entries))


def degenerate_lie_3cm(L0: LieAlgebra, name: str = "") -> CrossedChain:
    """Trivial upper levels and liftings over a base Lie algebra; every
    axiom degenerates to 0 = 0."""
    zero = lie_abelian(L0.p, 0)
    return zero_extension(CrossedChain((L0,)), 3, (lie_abelian(L0.p, 1), zero, zero),
                          name or f"degenerate({L0.name})")
