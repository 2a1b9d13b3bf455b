"""What the tests read and moorekit does not: element-at-a-time
references that the tests compare moorekit's tensor paths against (the
projection p, membership in the Moore complex, the hypercrossed pairing
C_{alpha,beta} and both sides of a Table-1 row, each on one pair of
elements), the element supply as Element values, a crossed module that
fails CM2, an axiom report's entry by name, the truncation of a simplicial
object, the crossed module a 2-crossed module induces, the level laws of
validate_algebra on the whole d^4 tensor at once, for each carrier, and
Morphism.is_multiplicative and Ideal.is_mult_closed as contractions of
the dense structure tensor, and null_space as two eliminations.

moore.pairing_table computes every C_{alpha,beta} on whole Moore bases;
these functions compute one value at a time through the simplicial maps
themselves, so an agreement of the two is a check of the tables.
hypercrossed(E, 1) divides NE_1 by d_2(NE_2) on its own path, and the
tests compare it with induced_cm(hypercrossed(E, 2)).

The identity rows at the end are every identity of the verifiers and the
table audits written as Python lambdas on elements, as the package wrote
them before they became strings of crossed's identity language, and the
action laws of both carriers as the package wrote them before one verifier
read both; the tests sweep both forms on random chains and compare the
entries.
"""

import importlib

import numpy as np

from moorekit.coeff import (BilinearMap, Element, LieAlgebra, PreconditionError, Supply,
                            Violation, matmul, null_space, quadratic_points, rref,
                            supply_rows)
from moorekit.corpus import zmod
from moorekit.crossed import (SIGNATURES, AxiomEntry, AxiomReport, CrossedChain, _divide_top,
                              zero_module_cm)
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


def null_space_two_eliminations(mat, p: int) -> np.ndarray:
    """coeff.null_space as two eliminations: the kernel vector of each free
    column of rref(mat), then the rref of those vectors."""
    R, pivots = rref(mat, p)
    n = np.shape(mat)[-1]
    free = np.delete(np.arange(n), pivots)
    vecs = np.zeros((free.size, n), dtype=np.int64)
    vecs[np.arange(free.size), free] = 1
    vecs[:, list(pivots)] = -R[:, free].T % p
    return rref(vecs, p)[0]


def is_multiplicative_dense(f) -> bool:
    """Morphism.is_multiplicative with its left side contracted from the
    source's dense n^3 tensor and f."""
    (m, n), images = f.matrix.shape, f.matrix.T
    lhs = matmul(f.source.structure.reshape(n * n, n), images, f.source.p)
    return np.array_equal(lhs.reshape(n, n, m), f.target.mul_vec(images[:, None], images[None]))


def is_mult_closed_dense(I) -> bool:
    """Ideal.is_mult_closed as one contraction of the basis with the dense
    tensor: [i, r] is e_i times basis row r."""
    A = I.parent
    return I.contains(matmul(I.basis_matrix, A.structure, A.p))


def validate_algebra_dense(A) -> list[Violation]:
    """coeff.validate_algebra on an Algebra with (e_i e_j) e_l and
    e_i (e_j e_l) formed at once by einsum: d^4 cells each."""
    p, c, d = A.p, A.structure, A.dim
    out = [Violation("commutativity", (int(i), int(j)))
           for i, j in zip(*np.nonzero(((c - c.transpose(1, 0, 2)) % p).any(axis=2))) if i <= j]
    left = np.einsum("ijm,mlk->ijlk", c, c) % p
    right = np.einsum("jlm,imk->ijlk", c, c) % p
    out += [Violation("associativity", tuple(map(int, t)))
            for t in zip(*np.nonzero(((left - right) % p).any(axis=3)))]
    e, eye = A.identity, np.eye(d, dtype=np.int64)
    if e is not None and not (np.array_equal(c[e], eye) and np.array_equal(c[:, e], eye)):
        out.append(Violation("identity", (e,)))
    return out


def validate_lie_dense(L) -> list[Violation]:
    """coeff.validate_algebra on a LieAlgebra with every [[e_i, e_j], e_l]
    formed at once, then two transposed copies: d^4 cells each."""
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


# ---------------------------------------------------------------------------
# the identities as lambdas: name -> (slots, fun) in the form _evaluate takes


def cm_rows(m: CrossedChain) -> dict:
    """CM1, CM2 and the kernel lemma of a crossed module."""
    (R, C), bd, act = m.levels, m.d(1), m.map("01")
    ker = null_space(bd.matrix, C.p)
    return {"CM1": ([R, C], lambda r, c: (bd(act(r, c)), r * bd(c))),
            "CM2": ([C, C], lambda c, c2: (act(bd(c), c2), c * c2)),
            "image-acts-trivially-on-kernel":
                ([C, Element(C, ker)], lambda c, k: (act(bd(c), k), C.zero()))}


def two_cm_rows(t: CrossedChain) -> dict:
    """The equivariance of both boundaries and 2CM1-2CM5 of a 2-crossed module."""
    (C0, C1, C2), (d1, d2) = t.levels, t.boundaries
    a1, a2, lt = t.map("01"), t.map("02"), t.map("()")
    return {
        "d2-equivariant": ([C0, C2], lambda z, x: (d2(a2(z, x)), a1(z, d2(x)))),
        "d1-equivariant": ([C0, C1], lambda z, y: (d1(a1(z, y)), z * d1(y))),
        "2CM1": ([C1, C1], lambda y0, y1: (d2(lt(y0, y1)), y0 * y1 - a1(d1(y1), y0))),
        "2CM2": ([C2, C2], lambda x1, x2: (lt(d2(x1), d2(x2)), x1 * x2)),
        "2CM3": ([C1, C1, C1],
                 lambda y0, y1, y2: (lt(y0, y1 * y2),
                                     lt(y0 * y1, y2) + a2(d1(y2), lt(y0, y1)))),
        "2CM4i": ([C2, C1], lambda x, y: (lt(d2(x), y), lt(y, d2(x)) - a2(d1(y), x))),
        "2CM4ii": ([C2, C1], lambda x, y: (lt(y, d2(x)), lt(y, d2(x)))),
        "2CM5": ([C0, C1, C1],
                 lambda z, y0, y1: [(a2(z, lt(y0, y1)), lt(a1(z, y0), y1)),
                                    (a2(z, lt(y0, y1)), lt(y0, a1(z, y1)))]),
    }


def action_rows(m: CrossedChain, names: dict) -> dict:
    """The laws of each action names keys, under the entry name it gives:
    s.(n n') = (s.n) n' and (s s').n = s.(s'.n) on algebras, and on Lie
    algebras x.[a, b] = [x.a, b] + [a, x.b] and [x, y].a = x.(y.a) - y.(x.a)."""
    def row(act):
        S, N = act.left, act.right
        if isinstance(N, LieAlgebra):
            return ([S, S, N, N],
                    lambda x, y, a, b: [(act(x, a * b), act(x, a) * b + a * act(x, b)),
                                        (act(x * y, a), act(x, act(y, a)) - act(y, act(x, a)))])
        return ([S, S, N, N],
                lambda s, s2, n, n2: [(act(s, n * n2), act(s, n) * n2),
                                      (act(s * s2, n), act(s, act(s2, n)))])
    return {name: row(m.map(key)) for key, name in names.items()}


def _maps(m: CrossedChain):
    return (*m.levels, *m.boundaries,
            *(m.map(k) for k in ("01", "02", "03", "12", "13", "23", "(1)(0)", "(2)(0)",
                                 "(2)(1)", "(1,0)(2)", "(2,0)(1)", "(0)(2,1)", "()")))


def three_cm_rows(m: CrossedChain) -> dict:
    """3CM2-3CM16 as printed; 3CM6 on pairs of quadratic points of C2."""
    (_, C1, C2, C3, d1, d2, d3, a01, a02, a03, a12, a13, a23,
     L10, L20, L21, L102, L201, L021, L) = _maps(m)
    points = Element(C2, quadratic_points(C2.dim, C2.p))
    return {
        "3CM2": ([C1, C1], lambda x1, y1: (d2(L(x1, y1)), a01(d1(y1), x1) - x1 * y1)),
        "3CM3": ([C2, C2], lambda x2, y2: (L021(x2, d2(y2)), L21(x2, y2) - L10(x2, y2))),
        "3CM4": ([C2, C2], lambda x2, y2: (d3(L10(x2, y2)), L(d2(x2), d2(y2)) + x2 * y2)),
        "3CM5": ([C1, C3],
                 lambda x1, y3: (L201(x1, d3(y3)),
                                 L021(d3(y3), x1) + L102(x1, d3(y3)) - a03(d1(x1), y3))),
        "3CM6": ([points, points],
                 lambda x2, y2: (L201(d2(x2), y2),
                                 -L20(x2, y2) + a23(x2 * y2, L21(x2, y2)) + L10(x2, y2))),
        "3CM7": ([C3, C3], lambda x3, y3: (L10(d3(x3), d3(y3)), y3 * x3)),
        "3CM8": ([C3, C2], lambda y3, x2: (L021(d3(y3), d2(x2)), -a13(d2(x2), y3))),
        "3CM9": ([C2, C3], lambda x2, y3: (L102(d2(x2), d3(y3)), -L20(x2, d3(y3)))),
        "3CM10": ([C2, C3],
                  lambda x2, y3: (L201(d2(x2), d3(y3)), a13(d2(x2), y3) - L20(x2, d3(y3)))),
        "3CM11": ([C3, C1], lambda y3, x1: (L021(d3(y3), x1), -a13(x1, y3))),
        "3CM12": ([C2, C3], lambda y2, x3: (L10(y2, d3(x3)), -a23(y2, x3))),
        "3CM13": ([C3, C2], lambda x3, y2: (L10(d3(x3), y2), a23(y2, x3))),
        "3CM14": ([C3, C2], lambda x3, y2: (L20(d3(x3), y2), C3.zero())),
        "3CM15": ([C1, C2],
                  lambda x1, y2: (d3(L201(x1, y2)),
                                  d3(L102(x1, y2)) + L(x1, d2(y2))
                                  - a02(d1(x1), y2) + a12(x1, y2))),
        "3CM16": ([C1, C2],
                  lambda x1, y2: (d3(L021(y2, x1)), L(x1, d2(y2)) - a12(x1, y2))),
    }


def equivariance_rows(m: CrossedChain, table: int) -> dict:
    """Table 3 (w in C0) or 4 (w in C1): w . L(x, y) = L(w . x, y) =
    L(x, w . y) per lifting L, C1 acting on itself by multiplication."""
    z = table - 3

    def act(n):
        return (lambda w, x: w * x) if n == z else m.map(f"{z}{n}")

    def row(key):
        a, b, v = SIGNATURES[key]
        L, on_a, on_b, on_v = m.map(key), act(a), act(b), act(v)
        return ([m.levels[z], m.levels[a], m.levels[b]],
                lambda w, x, y: [(on_v(w, L(x, y)), L(on_a(w, x), y)),
                                 (on_v(w, L(x, y)), L(x, on_b(w, y)))])
    return {f"table{table}[{key}]": row(key) for key in
            ("()", "(1,0)(2)", "(0)(2,1)", "(2,0)(1)", "(1)(0)", "(2)(0)", "(2)(1)")}


def table2_rows(m: CrossedChain) -> dict:
    """Table 2; rows 2, 6, 7, 15, 16, 18 and 20 are 3CM5, 3CM9, 3CM10,
    3CM13, 3CM14, 3CM4 and 3CM15."""
    axioms = three_cm_rows(m)
    (_, C1, C2, C3, _, d2, d3, _, _, _, a12, a13, a23,
     L10, L20, L21, L102, L201, L021, L) = _maps(m)
    t201 = lambda a2, b1: L201(b1, a2)  # noqa: E731
    t102 = lambda a2, b1: L102(b1, a2)  # noqa: E731
    return {
        "row1": ([C2, C2], lambda x2, y2: (L021(x2, d2(y2)), L10(x2, y2) + L21(x2, y2))),
        "row2": axioms["3CM5"],
        "row3": ([C2, C2], lambda x2, y2: (L102(d2(x2), y2), -L20(x2, y2))),
        "row4": ([C3, C3], lambda x3, y3: (L10(d3(x3), d3(y3)), x3 * y3)),
        "row5": ([C2, C3], lambda x2, y3: (L021(d3(y3), d2(x2)), a13(d2(x2), y3))),
        "row6": axioms["3CM9"],
        "row7": axioms["3CM10"],
        "row8": ([C2, C2, C2],
                 lambda x2, y2, yp: (L10(x2, y2 * yp),
                                     L021(x2, d2(y2 * yp)) - L21(x2, y2 * yp))),
        "row9": ([C2, C2, C2],
                 lambda xp, x2, y2: (L10(xp * x2, y2),
                                     L021(xp * x2, d2(y2)) - L21(xp * x2, y2))),
        "row10": ([C2, C2, C2],
                  lambda x2, y2, yp: (L21(x2, y2 * yp), t201(x2, d2(y2 * yp))
                                      + L20(x2, y2 * yp) - L10(x2, y2 * yp))),
        "row11": ([C2, C2, C2],
                  lambda x2, xp, y2: (L21(x2 * xp, y2), t201(x2 * xp, d2(y2))
                                      + L20(x2 * xp, y2) - L10(x2 * xp, y2))),
        "row12": ([C2, C2, C2],
                  lambda x2, y2, yp: (L20(x2, y2 * yp), -t102(x2, d2(y2 * yp)))),
        "row13": ([C2, C3], lambda x2, y3: (L21(x2, d3(y3)), a23(x2, y3))),
        "row14": ([C3, C2],
                  lambda x3, y2: (L21(d3(x3), y2), a13(d2(y2), x3) + a23(y2, x3))),
        "row15": axioms["3CM13"],
        "row16": axioms["3CM14"],
        "row17": ([C2, C2], lambda x2, y2: (d3(L20(x2, y2)), -d3(L102(d2(x2), y2)))),
        "row18": axioms["3CM4"],
        "row19": ([C2, C2], lambda x2, y2: (d3(L21(x2, y2)), a12(d2(y2), x2) - x2 * y2)),
        "row20": axioms["3CM15"],
        "row21": ([C1, C2],
                  lambda x1, y2: (d3(L021(y2, x1)), L(x1, d2(y2)) + a12(x1, y2))),
    }
