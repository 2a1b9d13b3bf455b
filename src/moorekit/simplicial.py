"""Truncated simplicial algebras: validation against the simplicial
identities, truncation, degenerate ideals and subalgebras, the semidirect
element decomposition, and builders that realize crossed and 2-crossed
data as simplicial algebras.

Builder levels above the given data are forced: a level with trivial
normal part is spanned by degeneracy images, its faces determine every
product, and the element is recovered by the standard filling
w <- w + s_j(d_j-target - d_j w).  The consistency of the top face is
checked during construction.  It fails exactly when no level with zero
normal part extends the given levels, which happens on valid simplicial
data too: cubic-chain cut at level 1 is valid, but its NE_1 -> E_0 is no
crossed module, so no level 2 with NE_2 = 0 exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .coeff import (Algebra, BilinearMap, Element, Ideal, Morphism,
                    PreconditionError, StructureError, bilinear, check_word_size,
                    ideal_closure, rref, semidirect, sweep_step)
from .crossed import CrossedModule, TwoCrossedModule, verify_2cm, verify_cm
from .moore import (SurjIndex, moore_basis, normal_form, push_face, s_set,
                    s_word_morphism)
from .report import PASS


@dataclass(frozen=True, eq=False)
class TruncatedSimplicialAlgebra:
    """Levels E_0..E_k with faces (n, i): E_n -> E_{n-1} for 0 <= i <= n
    and degeneracies (n, i): E_{n-1} -> E_n for 0 <= i <= n-1."""

    levels: tuple[Algebra, ...]
    faces: dict = field(default_factory=dict)
    degeneracies: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        for n in range(1, self.k + 1):
            for i in range(n + 1):
                f = self.faces.get((n, i))
                if f is None or f.source is not self.levels[n] or f.target is not self.levels[n - 1]:
                    raise StructureError(f"face ({n},{i}) missing or mis-typed")
            for i in range(n):
                s = self.degeneracies.get((n, i))
                if s is None or s.source is not self.levels[n - 1] or s.target is not self.levels[n]:
                    raise StructureError(f"degeneracy ({n},{i}) missing or mis-typed")

    @property
    def k(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> Algebra:
        return self.levels[n]

    def face(self, n: int, i: int) -> Morphism:
        return self.faces[(n, i)]

    def deg(self, n: int, i: int) -> Morphism:
        return self.degeneracies[(n, i)]


@dataclass(frozen=True)
class SimplicialViolation:
    kind: str
    n: int
    i: int
    j: int


def validate_simplicial(E: TruncatedSimplicialAlgebra) -> list[SimplicialViolation]:
    """Every violated simplicial identity with a (kind, n, i, j) witness,
    plus multiplicativity of each face and degeneracy; empty iff valid."""
    out: list[SimplicialViolation] = []
    for n in range(1, E.k + 1):
        for i in range(n + 1):
            if not E.face(n, i).is_multiplicative():
                out.append(SimplicialViolation("face-not-morphism", n, i, -1))
        for i in range(n):
            if not E.deg(n, i).is_multiplicative():
                out.append(SimplicialViolation("degeneracy-not-morphism", n, i, -1))
    p = E.level(0).p

    def eq(a: Morphism, b: Morphism) -> bool:
        return np.array_equal(a.matrix, b.matrix)

    for n in range(2, E.k + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = E.face(n - 1, i).compose(E.face(n, j))
                rhs = E.face(n - 1, j - 1).compose(E.face(n, i))
                if not eq(lhs, rhs):
                    out.append(SimplicialViolation("dd", n, i, j))
    for n in range(1, E.k):
        # s_i s_j = s_{j+1} s_i, i <= j, as maps E_{n-1} -> E_{n+1}
        for j in range(n):
            for i in range(j + 1):
                lhs = E.deg(n + 1, i).compose(E.deg(n, j))
                rhs = E.deg(n + 1, j + 1).compose(E.deg(n, i))
                if not eq(lhs, rhs):
                    out.append(SimplicialViolation("ss", n, i, j))
    for n in range(1, E.k + 1):
        for j in range(n):
            for i in range(n + 1):
                comp = E.face(n, i).compose(E.deg(n, j))
                if i == j or i == j + 1:
                    ok = np.array_equal(comp.matrix, np.eye(E.level(n - 1).dim,
                                                            dtype=np.int64) % p)
                    if not ok:
                        out.append(SimplicialViolation("ds-identity", n, i, j))
                elif i < j:
                    rhs = E.deg(n - 1, j - 1).compose(E.face(n - 1, i))
                    if not eq(comp, rhs):
                        out.append(SimplicialViolation("ds", n, i, j))
                else:  # i > j + 1
                    rhs = E.deg(n - 1, j).compose(E.face(n - 1, i - 1))
                    if not eq(comp, rhs):
                        out.append(SimplicialViolation("sd", n, i, j))
    return out


def truncate(E: TruncatedSimplicialAlgebra, m: int) -> TruncatedSimplicialAlgebra:
    """Forget all levels above m."""
    if not 0 <= m <= E.k:
        raise ValueError(f"truncation level {m} outside 0..{E.k}")
    return TruncatedSimplicialAlgebra(
        E.levels[:m + 1],
        {key: f for key, f in E.faces.items() if key[0] <= m},
        {key: s for key, s in E.degeneracies.items() if key[0] <= m},
        name=f"{E.name}|{m}" if E.name else "")


def degenerate_ideal(E: TruncatedSimplicialAlgebra, n: int) -> Ideal:
    """Ideal of E_n generated by all degeneracy images s_i(E_{n-1})."""
    if not 1 <= n <= E.k:
        raise ValueError(f"level {n} outside 1..{E.k}")
    return ideal_closure(E.level(n), [E.deg(n, i).matrix.T for i in range(n)])


def degenerate_subalgebra(E: TruncatedSimplicialAlgebra, n: int) -> np.ndarray:
    """rref basis of the subalgebra of E_n generated by the degeneracy
    images s_i(E_{n-1}).

    Iterates span U span*span to a fixed point, or until the span is all
    of E_n.  Unlike degenerate_ideal it multiplies only degenerate elements
    with each other, so it is not all of E_n merely because s_0 carries a
    unit of E_{n-1} to E_n.
    """
    if not 1 <= n <= E.k:
        raise ValueError(f"level {n} outside 1..{E.k}")
    A = E.level(n)
    span = rref(np.vstack([E.deg(n, i).matrix.T for i in range(n)]), A.p)[0]
    while len(span) < A.dim:
        left = np.einsum("ai,ijk->ajk", span, A.structure) % A.p
        prods = np.einsum("bj,ajk->abk", span, left) % A.p
        grown = rref(np.vstack([span, prods.reshape(len(span) ** 2, A.dim)]), A.p)[0]
        if grown.shape == span.shape:
            break
        span = grown
    return span


# ---------------------------------------------------------------------------
# the semidirect element decomposition


@dataclass(frozen=True, eq=False)
class Decomposition:
    """x = normal_part + sum_alpha s_alpha(components[alpha]), peeled in
    the bracketing order (the j = 0 block splits off first)."""

    level: int
    normal_part: Element
    components: dict  # SurjIndex -> Element of E_{level - #alpha}

    def reassemble(self, E: TruncatedSimplicialAlgebra) -> Element:
        x = self.normal_part
        for alpha, val in self.components.items():
            x = x + s_word_morphism(E, self.level, alpha.application_order())(val)
        return x


def decompose(E: TruncatedSimplicialAlgebra, n: int, x: Element) -> Decomposition:
    """Peel x in E_n into its normal part and degeneracy components.

    x may be a basis stack (leading batch axes, see Element): every part
    is then the stack of the parts of its rows."""
    if x.parent is not E.level(n):
        raise StructureError("element not at the stated level")
    comps: dict[SurjIndex, Element] = {}
    y = x
    for j in range(n):
        u = E.face(n, j)(y)
        sub = decompose(E, n - 1, u)
        comps[SurjIndex((j,), n)] = sub.normal_part
        for gamma, val in sub.components.items():
            word = normal_form(list(gamma.application_order()) + [j])
            if min(word) == j:  # keys with smaller entries were peeled already
                comps[SurjIndex(tuple(reversed(word)), n)] = val
        y = y - E.deg(n, j)(u)
    ordered = {a: comps[a] for a in s_set(n) if a.size > 0}
    return Decomposition(n, y, ordered)


# ---------------------------------------------------------------------------
# forced level extension (trivial normal part)


def _apply_s_chain(E, start: int, word, v: np.ndarray) -> np.ndarray:
    """The degeneracy word (application order) on the columns of v in E_start."""
    vec = np.asarray(v, dtype=np.int64)
    lvl = start
    for j in word:
        vec = E.deg(lvl + 1, j).matrix @ vec % E.level(0).p
        lvl += 1
    return vec


def extend_level(E: TruncatedSimplicialAlgebra) -> TruncatedSimplicialAlgebra:
    """Append level k+1 with zero normal part.

    The new level is coordinatized by the nonempty surjection indices
    alpha with values in the Moore subspaces NE_{m-#alpha}.  Each stage
    works on basis stacks: faces follow the simplicial identities
    symbolically on whole Moore bases, degeneracies route one
    decomposition of the basis of the level below, and every product is
    filled from its faces at once, in steps over the first factor.
    Raises when the forced product is inconsistent at the top face: no
    such level exists, as for cubic-chain cut at level 1, whose
    NE_1 -> E_0 is no crossed module.
    """
    m = E.k + 1
    p = E.level(0).p
    prev = E.level(m - 1)
    nbases = {c: Ideal(E.level(c), moore_basis(E, c)) for c in range(m)}
    alphas = [a for a in s_set(m) if a.size > 0]
    sizes = [nbases[m - a.size].dim for a in alphas]
    offs = dict(zip(alphas, accumulate([0] + sizes)))
    dim = sum(sizes)
    check_word_size(dim, p)  # the fill sums dim products before Em is built

    faces = np.zeros((m + 1, prev.dim, dim), dtype=np.int64)
    for i in range(m + 1):
        for a in alphas:
            c = m - a.size
            base = nbases[c].basis_matrix.T
            word, f = push_face(i, a.application_order())
            if f is not None:
                if f < c:
                    continue  # the face kills the Moore component
                if f > c or c == 0:
                    raise StructureError("face index escaped its level")
                base, c = E.face(c, c).matrix @ base % p, c - 1
            block = _apply_s_chain(E, c, normal_form(word), base)
            faces[i, :, offs[a]:offs[a] + block.shape[1]] = block

    dec = decompose(E, m - 1, Element(prev, np.eye(prev.dim, dtype=np.int64)))
    degs = np.zeros((m, dim, prev.dim), dtype=np.int64)
    for j in range(m):
        pieces = [(SurjIndex((j,), m), dec.normal_part)]
        for gamma, val in dec.components.items():
            word = normal_form(list(gamma.application_order()) + [j])
            pieces.append((SurjIndex(tuple(reversed(word)), m), val))
        for alpha, val in pieces:
            c = m - alpha.size
            r = nbases[c].dim
            if r:
                degs[j, offs[alpha]:offs[alpha] + r] = nbases[c].coords(val.coeffs).T
            elif val.coeffs.any():
                raise PreconditionError("component escapes its Moore subspace")

    # rows u of cols[i] are the faces d_i e_u; struct[u, v] is filled
    # from the m + 1 faces of e_u e_v by w <- w + s_j(d_j-target - d_j w)
    cols = faces.transpose(0, 2, 1)
    struct = np.zeros((dim, dim, dim), dtype=np.int64)
    step = sweep_step((m + 1) * max(dim, prev.dim) ** 2)
    for start in range(0, dim, step):
        target = bilinear(cols[:, start:start + step, None], cols[:, None], prev.structure, p)
        w = np.zeros(target.shape[1:3] + (dim,), dtype=np.int64)
        for j in range(m):
            w = (w + (target[j] - w @ cols[j]) % p @ degs[j].T) % p
        if ((w @ cols[m] - target[m]) % p).any():
            raise PreconditionError(
                f"no level {m} with NE_{m} = 0 extends these levels: forced product "
                f"inconsistent at the top face"
                + ("; on valid levels, NE_1 -> E_0 is no crossed module" if m == 2 else ""))
        struct[start:start + step] = w

    names = tuple(f"s{a}.{t}" for a, r in zip(alphas, sizes) for t in range(r))
    Em = Algebra(E.level(0).field, struct, names, None, name=f"E{m}")
    new_faces = E.faces | {(m, i): Morphism(Em, prev, faces[i]) for i in range(m + 1)}
    new_degs = E.degeneracies | {(m, j): Morphism(prev, Em, degs[j]) for j in range(m)}
    return TruncatedSimplicialAlgebra(E.levels + (Em,), new_faces, new_degs, name=E.name)


def extend_to(E: TruncatedSimplicialAlgebra, k: int) -> TruncatedSimplicialAlgebra:
    while E.k < k:
        E = extend_level(E)
    return E


# ---------------------------------------------------------------------------
# builders


def constant_simplicial(A: Algebra, k: int, name: str = "") -> TruncatedSimplicialAlgebra:
    """The constant object: every level A, every map the identity."""
    faces = {(n, i): Morphism.identity(A) for n in range(1, k + 1) for i in range(n + 1)}
    degs = {(n, i): Morphism.identity(A) for n in range(1, k + 1) for i in range(n)}
    return TruncatedSimplicialAlgebra((A,) * (k + 1), faces, degs,
                                      name=name or f"const({A.name})")


def concentrated_simplicial(A: Algebra, degree: int, k: int,
                            name: str = "") -> TruncatedSimplicialAlgebra:
    """Single algebra placed in one degree, zero algebras below.

    A must have zero multiplication for the levels above the degree to
    be consistent; used to manufacture nonzero Moore parts in a chosen
    degree.
    """
    if A.structure.any():
        raise PreconditionError("concentrated levels require zero multiplication")
    zero = Algebra(A.field, np.zeros((0, 0, 0), dtype=np.int64), (), None, "0")
    levels = (zero,) * degree + (A,)
    faces = {}
    degs = {}
    for n in range(1, degree + 1):
        src = levels[n]
        tgt = levels[n - 1]
        for i in range(n + 1):
            faces[(n, i)] = Morphism.zero(src, tgt)
        for i in range(n):
            degs[(n, i)] = Morphism.zero(tgt, src)
    E = TruncatedSimplicialAlgebra(levels, faces, degs,
                                   name=name or f"conc({A.name},{degree})")
    return extend_to(E, k)


def _level_one(C: Algebra, C0: Algebra, bd: Morphism, act: BilinearMap,
               name: str) -> TruncatedSimplicialAlgebra:
    """E_1 = C x| C0 with d_0 the projection, d_1 = boundary + projection."""
    E1 = semidirect(act, name=f"{name}:E1")
    dn, ds = C.dim, C0.dim
    d0 = np.hstack([np.zeros((ds, dn), dtype=np.int64), np.eye(ds, dtype=np.int64)])
    d1 = np.hstack([bd.matrix, np.eye(ds, dtype=np.int64)])
    s0 = np.vstack([np.zeros((dn, ds), dtype=np.int64), np.eye(ds, dtype=np.int64)])
    return TruncatedSimplicialAlgebra(
        (C0, E1),
        {(1, 0): Morphism(E1, C0, d0), (1, 1): Morphism(E1, C0, d1)},
        {(1, 0): Morphism(C0, E1, s0)},
        name=name)


def build_from_crossed(cm: CrossedModule, k: int = 4) -> TruncatedSimplicialAlgebra:
    """Simplicial realization of a crossed module: E_1 = C x| R and all
    higher levels forced; the Moore complex has length at most 1 and the
    extraction returns cm on the nose."""
    rep = verify_cm(cm)
    if rep.verdict != PASS:
        raise PreconditionError(
            f"crossed module fails {[e.name for e in rep.failing()]}")
    E = _level_one(cm.C, cm.R, cm.boundary, cm.action, cm.name or "xmod")
    return extend_to(E, k)


def build_from_2crossed(t: TwoCrossedModule, k: int = 4) -> TruncatedSimplicialAlgebra:
    """Simplicial realization of a 2-crossed module.

    Level 2 carries the blocks (NE_2 | s_1 C_1 | s_0 C_1 | s_1 s_0 C_0);
    the products among the blocks are forced by the simplicial relations
    with the Peiffer lifting supplying the one free term,

        s_1 a . s_0 b  =  -{a (x) b}  +  s_1(a b),

    and the degree-1 action on NE_2 entering through
    y . x = {d_2 x (x) y} + (d_1 y) . x.  Higher levels are forced.
    """
    rep = verify_2cm(t)
    if rep.verdict != PASS:
        raise PreconditionError(
            f"2-crossed module fails {[e.name for e in rep.failing()]}")
    C2, C1, C0 = t.C2, t.C1, t.C0
    p = C0.p
    base = _level_one(C1, C0, t.d1, t.act_on_c1, t.name or "2xmod")
    E1 = base.level(1)

    d2m, d1m = t.d2.matrix, t.d1.matrix
    a1, a2, L = t.act_on_c1.tensor, t.act_on_c2.tensor, t.lifting.tensor
    n2, n1, n0 = C2.dim, C1.dim, C0.dim
    dim = n2 + 2 * n1 + n0
    o_nu, o_s1, o_s0, o_tau = 0, n2, n2 + n1, n2 + 2 * n1

    # C1 acting on C2, derived from the lifting and the C0-action
    act12 = (np.einsum("ra,rxq->axq", d1m, a2) % p +
             np.einsum("sx,saq->axq", d2m, L) % p) % p

    struct = np.zeros((dim, dim, dim), dtype=np.int64)

    def add(block_a: int, ia: int, block_b: int, ib: int, block_out: int,
            vec: np.ndarray) -> None:
        struct[block_a + ia, block_b + ib, block_out:block_out + len(vec)] += vec
        if (block_a + ia) != (block_b + ib):
            struct[block_b + ib, block_a + ia, block_out:block_out + len(vec)] += vec

    for i in range(n2):
        for j in range(n2):
            if i <= j:
                add(o_nu, i, o_nu, j, o_nu, C2.structure[i, j])
        for a in range(n1):
            add(o_nu, i, o_s1, a, o_nu, act12[a, i])
            add(o_nu, i, o_s0, a, o_nu, np.einsum("r,rq->q", d1m[:, a], a2[:, i, :]) % p)
        for c in range(n0):
            add(o_nu, i, o_tau, c, o_nu, a2[c, i])
    for a in range(n1):
        for b in range(n1):
            if a <= b:
                add(o_s1, a, o_s1, b, o_s1, C1.structure[a, b])
                add(o_s0, a, o_s0, b, o_s0, C1.structure[a, b])
            add(o_s1, a, o_s0, b, o_nu, (-L[a, b]) % p)
            add(o_s1, a, o_s0, b, o_s1, C1.structure[a, b])
        for c in range(n0):
            add(o_s1, a, o_tau, c, o_s1, a1[c, a])
            add(o_s0, a, o_tau, c, o_s0, a1[c, a])
    for c in range(n0):
        for e in range(n0):
            if c <= e:
                add(o_tau, c, o_tau, e, o_tau, C0.structure[c, e])
    struct %= p

    names = (tuple(f"n.{b}" for b in C2.basis_names)
             + tuple(f"s1.{b}" for b in C1.basis_names)
             + tuple(f"s0.{b}" for b in C1.basis_names)
             + tuple(f"t.{b}" for b in C0.basis_names))
    E2 = Algebra(C0.field, struct, names, None, name=f"{t.name or '2xmod'}:E2")

    def block(rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    i1 = np.eye(n1, dtype=np.int64)
    i0 = np.eye(n0, dtype=np.int64)
    d0 = np.block([[block(n1, n2), block(n1, n1), i1, block(n1, n0)],
                   [block(n0, n2), block(n0, n1), block(n0, n1), i0]])
    d1 = np.block([[block(n1, n2), i1, i1, block(n1, n0)],
                   [block(n0, n2), block(n0, n1), block(n0, n1), i0]])
    d2 = np.block([[d2m, i1, block(n1, n1), block(n1, n0)],
                   [block(n0, n2), block(n0, n1), d1m, i0]])
    s0 = np.vstack([block(n2, n1 + n0),
                    block(n1, n1 + n0),
                    np.hstack([i1, block(n1, n0)]),
                    np.hstack([block(n0, n1), i0])])
    s1 = np.vstack([block(n2, n1 + n0),
                    np.hstack([i1, block(n1, n0)]),
                    block(n1, n1 + n0),
                    np.hstack([block(n0, n1), i0])])

    faces = dict(base.faces)
    degs = dict(base.degeneracies)
    faces[(2, 0)] = Morphism(E2, E1, d0)
    faces[(2, 1)] = Morphism(E2, E1, d1)
    faces[(2, 2)] = Morphism(E2, E1, d2)
    degs[(2, 0)] = Morphism(E1, E2, s0)
    degs[(2, 1)] = Morphism(E1, E2, s1)
    E = TruncatedSimplicialAlgebra((C0, E1, E2), faces, degs, name=base.name)
    return extend_to(E, k)
