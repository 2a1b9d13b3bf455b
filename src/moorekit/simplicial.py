"""Truncated simplicial algebras: validation against the simplicial
identities, degenerate ideals and subalgebras, the semidirect
decomposition, one level builder, and `realize`, which realizes crossed
and 2-crossed modules as simplicial algebras.

Every built level is E_m = (+)_{alpha in S(m)} s_alpha NE_{m-#alpha}, and
`decompose(E, n)` gives the matrices that split E_n so.  `extend_level`
appends a level, given its normal block NE_m, the last face of that block
and the normal component of the products between blocks, or with
NE_m = 0.  Everything else is forced: the faces follow the simplicial
identities through moore.s_word_morphism, the degeneracies route
decompose(E, m - 1), and each product is recovered from its faces by the
standard filling w <- w + s_j(d_j-target - d_j w), started from its
normal component.  The consistency of the top face is checked during
construction.  It fails exactly when no such level extends the given
levels, which happens on valid simplicial data too: cubic-chain cut at
level 1 is valid, but its NE_1 -> E_0 is no crossed module, so no level 2
with NE_2 = 0 exists.  `realize` starts from E_0 = C_0 and appends the
normal block NE_n = C_n of each level n of the chain (`_normal_block`).

Where a face or a degeneracy sends each block s_alpha NE_c is fixed by the
simplicial identities and depends on the level alone.  Those index plans,
_face_plan and _deg_plan, are built on first use and kept once per
process, as moore.s_set is.  What depends on the object, its Moore spaces
(one Ideal per NE_n, moore.moore_space, which extend_level and
_normal_block read), degeneracy words and decompositions, is kept once per
object in moore._memo and handed down to each object extend_level returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .coeff import (Algebra, Ideal, Morphism, PreconditionError, StructureError, _closure,
                    check_word_size, ideal_closure, matmul, sweep_step, validate_algebra)
from .crossed import CrossedChain, verify_2cm, verify_cm
from .moore import (SurjIndex, _hand_down, _memo, moore_space, normal_form, push_face, s_set,
                    s_word_morphism)
from .report import PASS


@dataclass(frozen=True, eq=False)
class TruncatedSimplicialAlgebra:
    """Levels E_0..E_k with faces (n, i): E_n -> E_{n-1} for 0 <= i <= n
    and degeneracies (n, i): E_{n-1} -> E_n for 0 <= i <= n-1.

    The object keeps read-only copies of the face and degeneracy maps it
    is given, so the values moore._memo keeps per object cannot go stale."""

    levels: tuple[Algebra, ...]
    faces: dict = field(default_factory=dict)
    degeneracies: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "faces", MappingProxyType(dict(self.faces)))
        object.__setattr__(self, "degeneracies", MappingProxyType(dict(self.degeneracies)))
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


@dataclass(frozen=True)
class LevelViolation:
    """A violation of the laws of the level E_n (coeff.validate_algebra)."""
    n: int
    kind: str
    indices: tuple[int, ...]


def validate_simplicial(E: TruncatedSimplicialAlgebra) -> list:
    """Every violation of the laws of a level, as a LevelViolation, level by
    level, then every violated simplicial identity with a (kind, n, i, j)
    witness and every face and degeneracy that is not multiplicative, as a
    SimplicialViolation: empty means the levels are algebras of their
    carrier and the maps form a truncated simplicial object."""
    out: list = [LevelViolation(n, v.kind, v.indices)
                 for n, A in enumerate(E.levels) for v in validate_algebra(A)]
    for n in range(1, E.k + 1):
        for i in range(n + 1):
            if not E.face(n, i).is_multiplicative():
                out.append(SimplicialViolation("face-not-morphism", n, i, -1))
        for i in range(n):
            if not E.deg(n, i).is_multiplicative():
                out.append(SimplicialViolation("degeneracy-not-morphism", n, i, -1))

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
                    if not np.array_equal(comp.matrix, np.eye(E.level(n - 1).dim, dtype=np.int64)):
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


def degenerate_ideal(E: TruncatedSimplicialAlgebra, n: int) -> Ideal:
    """Ideal of E_n generated by all degeneracy images s_i(E_{n-1})."""
    if not 1 <= n <= E.k:
        raise ValueError(f"level {n} outside 1..{E.k}")
    return ideal_closure(E.level(n), [E.deg(n, i).matrix.T for i in range(n)])


def degenerate_subalgebra(E: TruncatedSimplicialAlgebra, n: int) -> np.ndarray:
    """rref basis of the subalgebra of E_n generated by the degeneracy
    images s_i(E_{n-1}): the closure loop of degenerate_ideal with the span
    as multiplier (coeff._closure).  Unlike degenerate_ideal it multiplies
    only degenerate elements with each other, so it is not all of E_n
    merely because s_0 carries a unit of E_{n-1} to E_n.
    """
    if not 1 <= n <= E.k:
        raise ValueError(f"level {n} outside 1..{E.k}")
    return _closure(E.level(n), [E.deg(n, i).matrix.T for i in range(n)], False)


# ---------------------------------------------------------------------------
# the semidirect decomposition


def decompose(E: TruncatedSimplicialAlgebra, n: int) -> dict:
    """E_n = (+)_{alpha in S(n)} s_alpha NE_{n-#alpha} as matrices: for
    every alpha of S(n), in the printed order (the empty index first), the
    matrix M_alpha that sends x in E_n to its component in NE_{n-#alpha},
    so x = sum_alpha s_alpha M_alpha x; computed once per object.  The
    blocks are peeled in the bracketing order, j = 0 first, each splitting
    d_j of what is left by decompose(E, n - 1), read once, with the index
    s_j s_gamma of each block taken from _deg_plan(n); the rest is
    M_() = p."""
    def make():
        p, rest, out = E.level(0).p, np.eye(E.level(n).dim, dtype=np.int64), {}
        below, plan = (decompose(E, n - 1), _deg_plan(n)) if n else ({}, {})
        for j in range(n):
            u = matmul(E.face(n, j).matrix, rest, p)
            for gamma, M in below.items():
                alpha = plan[gamma][j]
                if alpha.entries[-1] == j:  # keys with smaller entries were peeled already
                    out[alpha] = matmul(M, u, p)
            rest = (rest - matmul(E.deg(n, j).matrix, u, p)) % p
        out[SurjIndex((), n)] = rest
        for M in out.values():
            M.setflags(write=False)
        return {a: out[a] for a in s_set(n)}

    return _memo(E, ("decompose", n), make)


# ---------------------------------------------------------------------------
# index plans, once per process: they depend on the level alone


@functools.cache
def _face_plan(m: int, normal: bool) -> MappingProxyType:
    """Where each face d_i of level m sends the blocks s_alpha NE_c, c =
    m - #alpha, alpha in S(m) nonempty, or also empty when `normal`: keyed
    by each distinct block (word, c, top), the normal-form degeneracy word
    into E_{m-1}, in application order, the Moore component c, and whether
    the top face d_c of NE_c comes first; the value is every (i, alpha)
    that block fills.  A face that kills the component fills nothing."""
    alphas, blocks = [a for a in s_set(m) if a.size or normal], {}
    for i in range(m + 1):
        for a in alphas:
            c = m - a.size
            word, f = push_face(i, a.application_order())
            if f is not None and f < c:
                continue  # the face kills the Moore component
            if f is not None and (f > c or c == 0):
                raise StructureError("face index escaped its level")
            blocks.setdefault((normal_form(word), c, f is not None), []).append((i, a))
    return MappingProxyType({key: tuple(fills) for key, fills in blocks.items()})


@functools.cache
def _deg_plan(m: int) -> MappingProxyType:
    """For every gamma of S(m - 1), in the printed order, the index alpha
    of S(m) that s_j s_gamma is, for j = 0..m-1."""
    return MappingProxyType({
        gamma: tuple(SurjIndex(normal_form(gamma.application_order() + (j,))[::-1], m)
                     for j in range(m))
        for gamma in s_set(m - 1)})


# ---------------------------------------------------------------------------
# level extension with a zero or a given normal part


def extend_level(E: TruncatedSimplicialAlgebra, normal=None) -> TruncatedSimplicialAlgebra:
    """Append level m = k+1 with zero normal part, or with the given one.

    The new level is coordinatized by the surjection indices alpha of
    S(m) with values in the Moore subspaces NE_{m-#alpha}.  Without
    `normal` only the nonempty alpha occur and NE_m = 0.  With
    normal = (C, bd, nu) the empty index is the first block, NE_m = C:
    bd is its last face as a matrix into E_{m-1}, and nu maps pairs
    (alpha, beta) of entry tuples to the C-component of the products of
    those two blocks, a tensor indexed [alpha row, beta row, C]; the pair
    (beta, alpha) is its mirror and an unlisted pair is zero.

    Each stage works on whole bases and reads the index plans of level m.
    The faces follow the simplicial identities symbolically on the Moore
    bases (_face_plan): each distinct block (word, c, top) is one product
    of s_word_morphism with the Moore basis of NE_c, or with its top face,
    placed at every (i, alpha) it fills.  s_j sends x in E_{m-1} to the
    blocks s_j s_gamma (_deg_plan) of the matrices M_gamma of
    decompose(E, m - 1), and the coordinates of each M_gamma in its Moore
    basis are solved once and placed for every j.  Every product is filled
    from its faces at once, in steps over the first factor, starting from
    its normal component.  Raises when the forced product is inconsistent
    at the top face: no such level exists, as for cubic-chain cut at
    level 1, whose NE_1 -> E_0 is no crossed module.
    """
    m, p = E.k + 1, E.level(0).p
    prev = E.level(m - 1)
    C, bd, nu = normal or (None, None, {})
    nbases = {c: moore_space(E, c) for c in range(m)}
    alphas = [a for a in s_set(m) if a.size or normal]
    sizes = [nbases[m - a.size].dim if a.size else C.dim for a in alphas]
    offs = dict(zip(alphas, accumulate([0] + sizes)))
    dim = sum(sizes)
    check_word_size(dim, p)  # the fill sums dim products before Em is built

    # the last face of each Moore basis, in the level below
    tops = {c: matmul(E.face(c, c).matrix, nbases[c].basis_matrix.T, p) for c in range(1, m)}
    tops[m] = bd
    faces = np.zeros((m + 1, prev.dim, dim), dtype=np.int64)
    for (word, c, top), fills in _face_plan(m, normal is not None).items():
        base = tops[c] if top else nbases[c].basis_matrix.T
        if base.shape[1]:  # an empty component fills no column
            block = matmul(s_word_morphism(E, m - 1, word).matrix, base, p)
            for i, a in fills:
                faces[i, :, offs[a]:offs[a] + block.shape[1]] = block

    degs = np.zeros((m, dim, prev.dim), dtype=np.int64)
    plan = _deg_plan(m)
    for gamma, M in decompose(E, m - 1).items():
        basis = nbases[m - 1 - gamma.size]
        if basis.dim:
            coords = basis.coords(M.T).T
            for j, alpha in enumerate(plan[gamma]):
                degs[j, offs[alpha]:offs[alpha] + basis.dim] = coords
        elif M.any():
            raise PreconditionError("component escapes its Moore subspace")

    # the C-component of every product; it has no columns when NE_m = 0
    prods = np.zeros((dim, dim, C.dim if normal else 0), dtype=np.int64)
    for (a, b), t in nu.items():
        oa, ob = offs[SurjIndex(a, m)], offs[SurjIndex(b, m)]
        prods[oa:oa + t.shape[0], ob:ob + t.shape[1]] = t % p
        prods[ob:ob + t.shape[1], oa:oa + t.shape[0]] = t.transpose(1, 0, 2) % p

    # rows u of cols[i] are the faces d_i e_u; struct[u, v] is filled from
    # its C-component and the m + 1 faces of e_u e_v by
    # w <- w + s_j(d_j-target - d_j w)
    cols = faces.transpose(0, 2, 1)
    struct = np.zeros((dim, dim, dim), dtype=np.int64)
    step = sweep_step((m + 1) * max(dim, prev.dim) ** 2)
    for start in range(0, dim, step):
        target = prev.mul_vec(cols[:, start:start + step, None], cols[:, None])
        w = np.zeros(target.shape[1:3] + (dim,), dtype=np.int64)
        w[..., :prods.shape[2]] = prods[start:start + step]
        for j in range(m):
            w = (w + matmul((target[j] - matmul(w, cols[j], p)) % p, degs[j].T, p)) % p
        if (matmul(w, cols[m], p) != target[m]).any():
            what = f"the given NE_{m}" if normal else f"NE_{m} = 0"
            hint = "; on valid levels, NE_1 -> E_0 is no crossed module"
            raise PreconditionError(
                f"no level {m} with {what} extends these levels: forced product "
                f"inconsistent at the top face" + (hint if m == 2 and not normal else ""))
        struct[start:start + step] = w

    names = tuple(f"s{a}.{t}" for a, r in zip(alphas, sizes) for t in range(r))
    Em = Algebra(E.level(0).field, struct, names, None, name=f"E{m}")
    new_faces = E.faces | {(m, i): Morphism(Em, prev, faces[i]) for i in range(m + 1)}
    new_degs = E.degeneracies | {(m, j): Morphism(prev, Em, degs[j]) for j in range(m)}
    return _hand_down(E, TruncatedSimplicialAlgebra(E.levels + (Em,), new_faces, new_degs,
                                                    name=E.name))


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
    if len(A.triples):
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


def _verified(report, what: str) -> None:
    if report.verdict != PASS:
        raise PreconditionError(f"{what} fails {[e.name for e in report.failing()]}")


def _normal_block(E: TruncatedSimplicialAlgebra, t: CrossedChain, n: int) -> tuple:
    """The normal block (C_n, bd, nu) that extend_level appends to E as
    NE_n: bd is d_n embedded into E_{n-1} through the Moore basis of
    NE_{n-1} = C_{n-1}, nu the C_n-component of the products of blocks.

    At n = 1, E_1 = C_1 x| C_0: products in C_1 and s_0(r) . c = r . c.
    At n = 2 the blocks are (NE_2 | s_1 C_1 | s_0 C_1 | s_1 s_0 C_0), and
    nu gives x x' in C_2, s_1 y . x = y . x with the degree-1 action
    y . x = {d_2 x (x) y} + (d_1 y) . x, s_0 y . x = (d_1 y) . x,
    s_1 s_0 c . x = c . x, and the Peiffer lifting in s_1 a . s_0 b =
    -{a (x) b} + s_1(a b), which inverts the prop3 extraction
    {a (x) b} = -p(s_1 a . s_0 b).
    """
    C, d, p = t.levels[n], t.d(n).matrix, t.levels[n].p
    bd = matmul(moore_space(E, n - 1).basis_matrix.T, d, p)
    eye = np.eye(C.dim, dtype=np.int64)
    table = C.mul_vec(eye[:, None], eye[None])  # the products of basis pairs
    if n == 1:
        return C, bd, {((), ()): table, ((0,), ()): t.map("01").tensor}
    a2, L = t.map("02").tensor, t.map("()").tensor
    via_d1 = matmul(t.d(1).matrix.T, a2.transpose(1, 0, 2), p).transpose(1, 0, 2)  # (d_1 y) . x
    return C, bd, {((), ()): table,
                   ((1,), ()): via_d1 + matmul(d.T, L.transpose(1, 0, 2), p),
                   ((0,), ()): via_d1,
                   ((1, 0), ()): a2,
                   ((1,), (0,)): -L}


def realize(t: CrossedChain, k: int = 4) -> TruncatedSimplicialAlgebra:
    """Simplicial realization of a crossed module or 2-crossed module t of
    length m: E_0 = C_0, each level n <= m carries the normal block
    NE_n = C_n, and the levels above m are forced, k >= m.  It inverts the
    prop3 extraction: the Moore complex is t's complex, hypercrossed(E, m)
    returns t on the nose, and its def1 reading negates t's lifting."""
    m = len(t.boundaries)
    if m not in (1, 2):
        raise ValueError(f"chains of length 1 and 2 are realized, not of length {m}")
    if k < m:
        raise ValueError(f"a chain of length {m} is realized from k = {m} on, not k = {k}")
    verify = verify_cm if m == 1 else verify_2cm
    _verified(verify(t), ("crossed module", "2-crossed module")[m - 1])
    E = TruncatedSimplicialAlgebra(t.levels[:1], name=t.name or ("xmod", "2xmod")[m - 1])
    for n in range(1, m + 1):
        E = extend_level(E, _normal_block(E, t, n))
    return extend_to(E, k)
