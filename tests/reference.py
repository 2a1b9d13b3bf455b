"""What the tests read and moorekit does not: element-at-a-time
references that the tests compare moorekit's tensor paths against (the
projection p, membership in the Moore complex, the hypercrossed pairing
C_{alpha,beta} and both sides of a Table-1 row, each on one pair of
elements), the element supply as Element values, a crossed module that
fails CM2, an axiom report's entry by name, the truncation of a simplicial
object, the crossed module a 2-crossed module induces, and validate_lie's
Jacobi check on the whole d^4 tensor at once.

moore.pairing_table computes every C_{alpha,beta} on whole Moore bases;
these functions compute one value at a time through the simplicial maps
themselves, so an agreement of the two is a check of the tables.
hypercrossed(E, 1) divides NE_1 by d_2(NE_2) on its own path, and the
tests compare it with induced_cm(hypercrossed(E, 2)).
"""

import importlib

import numpy as np

from moorekit.coeff import (BilinearMap, Element, PreconditionError, Supply, Violation, matmul,
                            supply_rows)
from moorekit.corpus import zmod
from moorekit.crossed import AxiomEntry, AxiomReport, CrossedChain, _divide_top, zero_module_cm
from moorekit.moore import PairingIndex, p_set, s_word_morphism
from moorekit.simplicial import TruncatedSimplicialAlgebra

# the package exports the function moore under the module's own name; the
# module is looked up at call time, so a test may patch _printed_values
moore_module = importlib.import_module("moorekit.moore")


def proj_p(E, n: int, x: Element) -> Element:
    """Apply (1 - s_j d_j) for j = 0, ..., n-1; the result kills all faces
    below n and is idempotent."""
    if n < 1:
        raise ValueError("projection defined for n >= 1")
    y = x
    for j in range(n):
        y = y - E.deg(n, j)(E.face(n, j)(y))
    return y


def in_moore(E, n: int, x: Element) -> bool:
    """Membership in NE_n: all faces d_i, i < n, vanish."""
    return not any(E.face(n, i)(x).coeffs.any() for i in range(n))


def c_pairing(E, pair: PairingIndex, x: Element, y: Element) -> Element:
    """C_{alpha,beta}(x (x) y) = p(s_alpha(x) . s_beta(y)), bilinear, valued
    in NE_n for the ambient n of the pairing."""
    n = pair.n
    ca, cb = n - pair.alpha.size, n - pair.beta.size
    if x.parent is not E.level(ca) or not in_moore(E, ca, x):
        raise PreconditionError(f"first argument not in NE_{ca}")
    if y.parent is not E.level(cb) or not in_moore(E, cb, y):
        raise PreconditionError(f"second argument not in NE_{cb}")
    sx = s_word_morphism(E, n, pair.alpha.application_order())(x)
    sy = s_word_morphism(E, n, pair.beta.application_order())(y)
    return proj_p(E, n, sx * sy)


def table1_eval(E, row: int, x: Element, y: Element) -> tuple[Element, Element]:
    """Composite left side d_4(C_{alpha,beta}(x (x) y)) and the printed
    right side of the given Table-1 row, both as elements of E_3."""
    if not 1 <= row <= 25:
        raise ValueError(f"row {row} outside 1..25")
    if E.k != 4:
        raise PreconditionError("table rows live at truncation level 4")
    val = c_pairing(E, p_set(4)[row - 1], x, y)
    lhs = E.face(4, 4)(val)
    rhs = moore_module._printed_values(E, {row: (x.coeffs[None], y.coeffs[None])})[row][0, 0]
    return lhs, Element(E.level(3), rhs)


def elements(A, supply: Supply = Supply()) -> list[Element]:
    """The supply of A (coeff.supply_rows) as elements, in its order."""
    return [Element(A, v) for v in supply_rows(A.dim, A.p, supply)[0]]


def cm_zero_module_bad(p: int = 2) -> CrossedChain:
    """Zero boundary out of a non-square-zero algebra: CM2 must fail."""
    R = zmod(p)
    M = zmod(p)  # e*e = e, so the Peiffer identity cannot hold
    act = BilinearMap.zero(R, M, M)
    return zero_module_cm(M, R, act, name=f"zero-module-bad@Z/{p}")


def named_entry(report: AxiomReport, name: str) -> AxiomEntry:
    """The entry of a report under a name."""
    for e in report.entries:
        if e.name == name:
            return e
    raise KeyError(name)


def truncate(E: TruncatedSimplicialAlgebra, m: int) -> TruncatedSimplicialAlgebra:
    """Forget all levels above m."""
    if not 0 <= m <= E.k:
        raise ValueError(f"truncation level {m} outside 0..{E.k}")
    return TruncatedSimplicialAlgebra(
        E.levels[:m + 1],
        {key: f for key, f in E.faces.items() if key[0] <= m},
        {key: s for key, s in E.degeneracies.items() if key[0] <= m},
        name=f"{E.name}|{m}" if E.name else "")


def induced_cm(t: CrossedChain) -> CrossedChain:
    """Quotient C1 by the image of d2, an ideal; the induced boundary and
    action form a crossed module."""
    bottom = CrossedChain(t.levels[:2], t.boundaries[:1], {"01": t.map("01")},
                          (t.name or "2cm") + "-induced")
    return _divide_top(bottom, t.d(2), np.eye(t.levels[2].dim, dtype=np.int64))


def validate_lie_dense(L) -> list[Violation]:
    """lie.validate_lie with every [[e_i, e_j], e_l] formed at once, then
    two transposed copies: d^4 cells each."""
    p, c, d = L.p, L.structure, L.dim
    out = [Violation("alternating", (i,)) for i in range(d) if c[i, i].any()]
    anti = (c + c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(anti.any(axis=2))):
        if i < j:
            out.append(Violation("antisymmetry", (int(i), int(j))))
    # [[e_i, e_j], e_l] at [i, j, l], and its two cyclic rotations
    jj = matmul(c.reshape(d * d, d), c.reshape(d, d * d), p).reshape(d, d, d, d)
    jac = (jj + jj.transpose(2, 0, 1, 3) + jj.transpose(1, 2, 0, 3)) % p
    for i, j, l in zip(*np.nonzero(jac.any(axis=3))):
        trip = (int(i), int(j), int(l))
        rots = [trip, trip[1:] + trip[:1], trip[2:] + trip[:2]]
        if trip == min(rots):  # one witness per cyclic class
            out.append(Violation("jacobi", trip))
    return out
