"""Lie-algebra variant: bracket presentations over Z/p and the
bracketized axiom verifier for 3-crossed chains of Lie algebras.

The bracket tensor plays the role the multiplication tensor plays in
the commutative case, so elements, morphisms and bilinear maps are the
same machinery; x * y on elements of a Lie algebra computes [x, y].
Alternating is enforced directly ([x, x] = 0 on basis vectors), which
also covers characteristic 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .coeff import (BilinearMap, Element, Morphism, PrimeField,
                    StructureError, Supply, Violation, _as_array,
                    bilinear, check_word_size, subspace_elements)
from .crossed import AxiomEntry, AxiomReport, _flag, _sweep
from .report import FAIL, PASS


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Finite-dimensional Lie algebra by bracket structure constants:
    [e_i, e_j] = sum_k structure[i, j, k] e_k."""

    field: PrimeField
    structure: np.ndarray
    basis_names: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        arr = _as_array(self.structure, self.field.p)
        dim = len(self.basis_names)
        if arr.shape != (dim, dim, dim):
            raise StructureError(
                f"bracket tensor shape {arr.shape} does not match dim {dim}")
        object.__setattr__(self, "structure", arr)
        check_word_size(dim, self.field.p)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @property
    def p(self) -> int:
        return self.field.p

    def zero(self) -> Element:
        return Element(self, np.zeros(self.dim, dtype=np.int64))

    def basis_element(self, i: int) -> Element:
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return Element(self, v)

    def basis(self) -> list[Element]:
        return [self.basis_element(i) for i in range(self.dim)]

    def element(self, coeffs) -> Element:
        return Element(self, coeffs)

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the "product" of this carrier is the bracket
        return bilinear(a, b, self.structure, self.p)

    def __repr__(self):
        return f"<{self.name or 'LieAlgebra'} dim={self.dim} over Z/{self.p}>"


def validate_lie(L: LieAlgebra) -> list[Violation]:
    """Alternating and Jacobi violations; empty iff L is a Lie algebra."""
    p = L.p
    c = L.structure
    out: list[Violation] = []
    for i in range(L.dim):
        if c[i, i].any():
            out.append(Violation("alternating", (i,)))
    anti = (c + c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(anti.any(axis=2))):
        if i < j:
            out.append(Violation("antisymmetry", (int(i), int(j))))
    jac = (np.einsum("ijm,mlk->ijlk", c, c) % p
           + np.einsum("jlm,mik->ijlk", c, c) % p
           + np.einsum("lim,mjk->ijlk", c, c) % p) % p
    for i, j, l in zip(*np.nonzero(jac.any(axis=3))):
        trip = (int(i), int(j), int(l))
        rots = [trip, trip[1:] + trip[:1], trip[2:] + trip[:2]]
        if trip == min(rots):  # one witness per cyclic class
            out.append(Violation("jacobi", trip))
    return out


def lie_action_violations(act: BilinearMap) -> list[Violation]:
    """Failures of x.[a,b] = [x.a, b] + [a, x.b] and
    [x,y].a = x.(y.a) - y.(x.a) on basis triples."""
    Lx, M = act.left, act.right
    p = M.p
    t = act.tensor
    out: list[Violation] = []
    lhs = np.einsum("abk,xkq->xabq", M.structure, t) % p
    rhs = (np.einsum("xak,kbq->xabq", t, M.structure) % p
           + np.einsum("xbk,akq->xabq", t, M.structure) % p) % p
    for x, a, b in zip(*np.nonzero(((lhs - rhs) % p).any(axis=3))):
        out.append(Violation("derivation", (int(x), int(a), int(b))))
    lhs2 = np.einsum("xyk,kaq->xyaq", Lx.structure, t) % p
    rhs2 = (np.einsum("yak,xkq->xyaq", t, t) % p
            - np.einsum("xak,ykq->xyaq", t, t) % p) % p
    for x, y, a in zip(*np.nonzero(((lhs2 - rhs2) % p).any(axis=3))):
        out.append(Violation("homomorphism", (int(x), int(y), int(a))))
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


@dataclass(frozen=True, eq=False)
class LieThreeCrossedModule:
    """Complex L3 -> L2 -> L1 -> L0 of Lie algebras with the same action
    and lifting keying as the commutative case."""

    L3: LieAlgebra
    L2: LieAlgebra
    L1: LieAlgebra
    L0: LieAlgebra
    d3: Morphism
    d2: Morphism
    d1: Morphism
    actions: dict = field(default_factory=dict)
    liftings: dict = field(default_factory=dict)
    name: str = ""

    def action(self, key: str) -> BilinearMap:
        return self.actions[key]

    def lifting(self, key: str) -> BilinearMap:
        if key == "(0)(2)":
            key = "(2)(0)"
        return self.liftings[key]


def verify_lie_crossed(L1: LieAlgebra, L0: LieAlgebra, bd: Morphism,
                       act: BilinearMap, title: str = "lie-crossed") -> AxiomReport:
    """Boundary rule and Peiffer identity with brackets."""
    entries = [
        _flag("boundary-bracket-morphism", bd.is_multiplicative()),
        _flag("lie-action", not lie_action_violations(act)),
        _sweep("LCM1", [L0.basis(), L1.basis()],
               lambda r, c: (bd(act(r, c)), r * bd(c))),
        _sweep("LCM2", [L1.basis(), L1.basis()],
               lambda c, c2: (act(bd(c), c2), c * c2)),
    ]
    return AxiomReport(title, tuple(entries))


def verify_lie_2cm(L2, L1, L0, d2, d1, a1, a2, lt,
                   title: str = "lie-2cm") -> AxiomReport:
    """Bracketized two-crossed axioms; y . x = {y (x) d2 x} as before."""
    def act12(y, x):
        return lt(y, d2(x))

    entries = [
        _flag("complex", not (d1.matrix @ d2.matrix % L0.p).any()),
        _flag("d2-bracket-morphism", d2.is_multiplicative()),
        _flag("d1-bracket-morphism", d1.is_multiplicative()),
        _flag("action-l1", not lie_action_violations(a1)),
        _flag("action-l2", not lie_action_violations(a2)),
        _sweep("L2CM1", [L1.basis(), L1.basis()],
               lambda y0, y1: (d2(lt(y0, y1)), y0 * y1 - a1(d1(y1), y0))),
        _sweep("L2CM2", [L2.basis(), L2.basis()],
               lambda x1, x2: (lt(d2(x1), d2(x2)), x1 * x2)),
        _sweep("L2CM3", [L1.basis(), L1.basis(), L1.basis()],
               lambda y0, y1, y2: (lt(y0, y1 * y2),
                                   lt(y0 * y1, y2) + a2(d1(y2), lt(y0, y1)))),
        _sweep("L2CM4i", [L2.basis(), L1.basis()],
               lambda x, y: (lt(d2(x), y), act12(y, x) - a2(d1(y), x))),
        _sweep("L2CM5", [L0.basis(), L1.basis(), L1.basis()],
               lambda z, y0, y1: [(a2(z, lt(y0, y1)), lt(a1(z, y0), y1)),
                                  (a2(z, lt(y0, y1)), lt(y0, a1(z, y1)))]),
    ]
    return AxiomReport(title, tuple(entries))


def verify_lie_3cm(m: LieThreeCrossedModule, supply: Supply = Supply()) -> AxiomReport:
    """The sixteen bracketized axioms plus structure checks; 3CM6 runs on
    the element supply, everything else on basis tuples."""
    L3, L2, L1, L0 = m.L3, m.L2, m.L1, m.L0
    d3, d2, d1 = m.d3, m.d2, m.d1
    a01, a02, a03 = m.action("01"), m.action("02"), m.action("03")
    a12, a13, a23 = m.action("12"), m.action("13"), m.action("23")
    K10, K20, K21 = m.lifting("(1)(0)"), m.lifting("(2)(0)"), m.lifting("(2)(1)")
    K102, K201 = m.lifting("(1,0)(2)"), m.lifting("(2,0)(1)")
    K021, K = m.lifting("(0)(2,1)"), m.lifting("()")

    entries = [
        _flag("complex-d2d3", not (d2.matrix @ d3.matrix % L0.p).any()),
        _flag("complex-d1d2", not (d1.matrix @ d2.matrix % L0.p).any()),
        _flag("d3-bracket-morphism", d3.is_multiplicative()),
        _flag("d2-bracket-morphism", d2.is_multiplicative()),
        _flag("d1-bracket-morphism", d1.is_multiplicative()),
    ]
    for key, act in (("01", a01), ("02", a02), ("03", a03),
                     ("12", a12), ("13", a13), ("23", a23)):
        entries.append(_flag(f"lie-action-{key}", not lie_action_violations(act)))
    for e in verify_lie_crossed(L3, L2, d3, a23, "d3").entries:
        entries.append(AxiomEntry(f"d3-crossed/{e.name}", e.status, e.checked, e.witness))
    for e in verify_lie_2cm(L3, L2, L1, d3, d2, a12, a13, K21).entries:
        entries.append(AxiomEntry(f"3CM1/{e.name}", e.status, e.checked, e.witness))

    l2_supply = list(subspace_elements(L2, np.eye(L2.dim, dtype=np.int64), supply))
    entries += [
        _sweep("3CM2", [L1.basis(), L1.basis()],
               lambda l1, m1: (d2(K(l1, m1)), a01(d1(m1), l1) - l1 * m1)),
        _sweep("3CM3", [L2.basis(), L2.basis()],
               lambda l2, m2: (K021(l2, d2(m2)), K21(l2, m2) - K10(l2, m2))),
        _sweep("3CM4", [L2.basis(), L2.basis()],
               lambda l2, m2: (d3(K10(l2, m2)), K(d2(l2), d2(m2)) + l2 * m2)),
        _sweep("3CM5", [L1.basis(), L3.basis()],
               lambda l1, l3: (K201(l1, d3(l3)),
                               K021(d3(l3), l1) + K102(l1, d3(l3)) - a03(d1(l1), l3))),
        _sweep("3CM6", [l2_supply, l2_supply],
               lambda l2, m2: (K201(d2(l2), m2),
                               -K20(l2, m2) + a23(l2 * m2, K21(l2, m2)) + K10(l2, m2))),
        _sweep("3CM7", [L3.basis(), L3.basis()],
               lambda l3, m3: (K10(d3(l3), d3(m3)), m3 * l3)),
        _sweep("3CM8", [L3.basis(), L2.basis()],
               lambda l3, l2: (K021(d3(l3), d2(l2)), -a13(d2(l2), l3))),
        _sweep("3CM9", [L2.basis(), L3.basis()],
               lambda l2, l3: (K102(d2(l2), d3(l3)), -K20(l2, d3(l3)))),
        _sweep("3CM10", [L2.basis(), L3.basis()],
               lambda l2, l3: (K201(d2(l2), d3(l3)),
                               a13(d2(l2), l3) - K20(l2, d3(l3)))),
        _sweep("3CM11", [L3.basis(), L1.basis()],
               lambda l3, l1: (K021(d3(l3), l1), -a13(l1, l3))),
        _sweep("3CM12", [L2.basis(), L3.basis()],
               lambda l2, l3: (K10(l2, d3(l3)), -a23(l2, l3))),
        _sweep("3CM13", [L3.basis(), L2.basis()],
               lambda l3, l2: (K10(d3(l3), l2), a23(l2, l3))),
        _sweep("3CM14", [L3.basis(), L2.basis()],
               lambda l3, l2: (K20(d3(l3), l2), L3.zero())),
        _sweep("3CM15", [L1.basis(), L2.basis()],
               lambda l1, l2: (d3(K201(l1, l2)),
                               d3(K102(l1, l2)) + K(l1, d2(l2))
                               - a02(d1(l1), l2) + a12(l1, l2))),
        _sweep("3CM16", [L1.basis(), L2.basis()],
               lambda l1, l2: (d3(K021(l2, l1)), K(l1, d2(l2)) - a12(l1, l2))),
    ]
    return AxiomReport(m.name or "lie-3cm", tuple(entries))


def degenerate_lie_3cm(L0: LieAlgebra, name: str = "") -> LieThreeCrossedModule:
    """Trivial upper levels and liftings over a base Lie algebra; every
    axiom degenerates to 0 = 0."""
    zero = lie_abelian(L0.p, 0)
    one = lie_abelian(L0.p, 1)
    actions = {
        "01": BilinearMap.zero(L0, one, one),
        "02": BilinearMap.zero(L0, zero, zero),
        "03": BilinearMap.zero(L0, zero, zero),
        "12": BilinearMap.zero(one, zero, zero),
        "13": BilinearMap.zero(one, zero, zero),
        "23": BilinearMap.zero(zero, zero, zero),
    }
    liftings = {
        "(1)(0)": BilinearMap.zero(zero, zero, zero),
        "(2)(0)": BilinearMap.zero(zero, zero, zero),
        "(2)(1)": BilinearMap.zero(zero, zero, zero),
        "(1,0)(2)": BilinearMap.zero(one, zero, zero),
        "(2,0)(1)": BilinearMap.zero(one, zero, zero),
        "(0)(2,1)": BilinearMap.zero(zero, one, zero),
        "()": BilinearMap.zero(one, one, zero),
    }
    return LieThreeCrossedModule(
        zero, zero, one, L0,
        Morphism.zero(zero, zero), Morphism.zero(zero, one),
        Morphism.zero(one, L0), actions, liftings,
        name=name or f"degenerate({L0.name})")
