"""Moore complex machinery: the poset S(n), pairing indices P(n), the
normalized chain complex, the projection p, hypercrossed pairings, and
mechanized audits of the degree-4 boundary-image table.

Conventions
-----------
A surjection index is stored as a strictly decreasing tuple
(i_r, ..., i_1), largest entry first, matching the printed lists; the
composite s_alpha = s_{i_r} o ... o s_{i_1} applies the smallest index
first.  S(n) is ordered by comparing entries from the innermost (i_1)
outward, larger entry first, with proper prefixes preceding their
extensions; this reproduces the printed S(2), S(3), S(4) exactly.

The projection uses the additive form p_j(z) = z - s_j d_j(z); the
composite applies j = 0, ..., n-1 in that order.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeff import (Algebra, Element, Ideal, Morphism, PreconditionError,
                    StructureError, Supply, ideal_closure, matmul, null_space,
                    rref, subalgebra, supply_rows, sweep_step)
from .report import (CONFIRMED, DISCREPANT, FAIL, HYPOTHESIS_FAILED, PASS,
                     CheckRecord)

# ---------------------------------------------------------------------------
# the poset S(n)


@dataclass(frozen=True)
class SurjIndex:
    """Index of an iterated degeneracy: strictly decreasing entries with
    ambient level n; the empty tuple is the identity surjection."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self):
        if any(a <= b for a, b in zip(self.entries, self.entries[1:])):
            raise StructureError(f"entries {self.entries} not strictly decreasing")
        if self.entries and not (0 <= self.entries[-1] and self.entries[0] <= self.n - 1):
            raise StructureError(f"entries {self.entries} outside [0, {self.n - 1}]")

    @property
    def size(self) -> int:
        return len(self.entries)

    def application_order(self) -> tuple[int, ...]:
        """Indices in the order the degeneracies are applied (innermost first)."""
        return tuple(reversed(self.entries))

    def order_key(self) -> tuple[int, ...]:
        return tuple(-e for e in self.application_order())

    def __str__(self):
        return "(" + ",".join(map(str, self.entries)) + ")" if self.entries else "()"


def s_set(n: int) -> list[SurjIndex]:
    """All 2^n surjection indices at level n, in the printed order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    subsets = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            subsets.append(SurjIndex(tuple(reversed(combo)), n))
    return sorted(subsets, key=SurjIndex.order_key)


@dataclass(frozen=True)
class PairingIndex:
    alpha: SurjIndex
    beta: SurjIndex

    def __post_init__(self):
        if self.alpha.n != self.beta.n:
            raise StructureError("pairing indices with different ambient levels")
        if set(self.alpha.entries) & set(self.beta.entries):
            raise StructureError("pairing entry sets are not disjoint")

    @property
    def n(self) -> int:
        return self.alpha.n

    def __str__(self):
        return f"{self.alpha}{self.beta}"


def _pair(n: int, alpha: Sequence[int], beta: Sequence[int]) -> PairingIndex:
    return PairingIndex(SurjIndex(tuple(alpha), n), SurjIndex(tuple(beta), n))


# printed pairing lists; order is the downstream contract (Table 1 rows)
_P3 = [((1, 0), (2,)), ((2, 0), (1,)), ((0,), (2, 1)),
       ((2,), (0,)), ((2,), (1,)), ((1,), (0,))]

_P4 = [((3, 2, 1), (0,)), ((3, 2, 0), (1,)), ((3, 1, 0), (2,)), ((2, 1, 0), (3,)),
       ((3, 2), (1, 0)), ((3, 1), (2, 0)), ((3, 0), (2, 1)),
       ((3, 2), (1,)), ((3, 2), (0,)), ((3, 1), (2,)), ((3, 1), (0,)),
       ((3, 0), (2,)), ((3, 0), (1,)), ((2, 1), (3,)), ((0,), (2, 1)),
       ((2, 0), (3,)), ((2, 0), (1,)), ((1, 0), (3,)), ((1, 0), (2,)),
       ((3,), (2,)), ((3,), (1,)), ((3,), (0,)),
       ((2,), (1,)), ((2,), (0,)), ((1,), (0,))]


def p_set(n: int) -> list[PairingIndex]:
    """Pairing indices: the two printed lists for n = 3, 4 (Table-1 row
    order at n = 4); the order rule applied to S(2) for n = 2."""
    if n == 2:
        return [_pair(2, (1,), (0,))]
    if n == 3:
        return [_pair(3, a, b) for a, b in _P3]
    if n == 4:
        return [_pair(4, a, b) for a, b in _P4]
    raise ValueError(f"pairing set defined for n in 2..4, got {n}")


# ---------------------------------------------------------------------------
# degeneracy-word rewriting (simplicial identities on symbols)


def normal_form(applied: Sequence[int]) -> tuple[int, ...]:
    """Normalize a degeneracy word given in application order.

    Uses s_i o s_j = s_{j+1} o s_i for i <= j; the result is strictly
    increasing in application order (equivalently a valid SurjIndex read
    backwards).
    """
    word: list[int] = []
    for j in applied:
        # push s_j through the already-applied tail from the outside in
        for t in range(len(word) - 1, -1, -1):
            if j <= word[t]:
                word[t] += 1
            else:
                word.insert(t + 1, j)
                break
        else:
            word.insert(0, j)
    return tuple(word)


def push_face(i: int, applied: Sequence[int]) -> tuple[tuple[int, ...], int | None]:
    """Rewrite d_i o s_word to s_word' (o d_f).

    `applied` is the degeneracy word in application order.  Returns the
    new word (application order, not necessarily normalized) and the
    surviving face index, or None when the face cancelled against one of
    the degeneracies.
    """
    rest = list(applied)
    outer: list[int] = []
    while rest:
        j = rest.pop()  # outermost remaining degeneracy
        if i == j or i == j + 1:
            return tuple(rest + outer), None
        if i < j:
            outer.insert(0, j - 1)
        else:  # i > j + 1
            outer.insert(0, j)
            i -= 1
    return tuple(outer), i


# ---------------------------------------------------------------------------
# the Moore complex


# face kernels and Moore complexes, computed once per simplicial object:
# the objects are immutable, and no value refers back to its object, so an
# entry goes with its object
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(E, key, make):
    table = _MEMO.setdefault(E, {})
    if key not in table:
        table[key] = make()
    return table[key]


def face_kernel(E, n: int, faces) -> np.ndarray:
    """rref basis of the intersection of ker d_i, i in faces, in E_n; all
    of E_n when faces is empty."""
    idx = tuple(sorted(faces))

    def make():
        A = E.level(n)
        if not idx:
            return rref(np.eye(A.dim, dtype=np.int64), A.p)[0]
        return null_space(np.vstack([E.face(n, i).matrix for i in idx]), A.p)

    return _memo(E, ("kernel", n, idx), make)


def moore_basis(E, n: int) -> np.ndarray:
    """rref basis of NE_n = intersection of ker d_i, i < n (all of E_0 at n=0)."""
    return face_kernel(E, n, range(n))


@dataclass(frozen=True, eq=False)
class MooreComplex:
    """Normal chain complex of a truncated simplicial algebra.

    spaces[n] is NE_n as an Ideal of E_n; algebras[n] realizes NE_n as
    an algebra on the rref basis, with inclusions[n] the embedding and
    boundaries[n] the restriction of the last face, NE_n -> NE_{n-1}.
    """

    spaces: tuple[Ideal, ...]
    algebras: tuple[Algebra, ...]
    inclusions: tuple[Morphism, ...]
    boundaries: tuple[Morphism, ...]  # boundaries[n - 1]: algebras[n] -> algebras[n - 1]

    @property
    def k(self) -> int:
        return len(self.spaces) - 1

    def length(self) -> int:
        top = 0
        for n in range(self.k + 1):
            if n >= 1 and self.spaces[n].dim > 0:
                top = n
        return top

    def boundary(self, n: int) -> Morphism:
        return self.boundaries[n - 1]


def moore(E) -> MooreComplex:
    """The Moore complex of E, computed once per object (_moore_complex)."""
    return _memo(E, "moore", lambda: _moore_complex(E))


def _moore_complex(E) -> MooreComplex:
    """Compute the Moore complex; verifies d d = 0 and ideal-ness of each NE_n."""
    spaces = []
    algebras = []
    inclusions = []
    for n in range(E.k + 1):
        basis = moore_basis(E, n)
        ideal = Ideal(E.level(n), basis)
        if not ideal.is_mult_closed():
            raise PreconditionError(f"NE_{n} is not an ideal; invalid simplicial data")
        if n == 0:
            # NE_0 is all of E_0; keep the level algebra itself
            sub, incl = E.level(0), Morphism.identity(E.level(0))
        else:
            sub, incl = subalgebra(E.level(n), basis, name=f"NE{n}")
        spaces.append(ideal)
        algebras.append(sub)
        inclusions.append(incl)
    boundaries = []
    for n in range(1, E.k + 1):
        # last face restricted to NE_n, in the rref coordinates of NE_{n-1}
        d_last = E.face(n, n)
        img = inclusions[n].matrix.T @ d_last.matrix.T % E.level(n).p
        if not spaces[n - 1].contains(img):
            raise PreconditionError(
                f"boundary image escapes NE_{n - 1}; invalid simplicial data")
        mat = spaces[n - 1].coords(img).T
        boundaries.append(Morphism(algebras[n], algebras[n - 1], mat))
    for n in range(2, E.k + 1):
        comp = boundaries[n - 2].matrix @ boundaries[n - 1].matrix % E.level(0).p
        if comp.any():
            raise PreconditionError(f"boundary o boundary nonzero at level {n}")
    return MooreComplex(tuple(spaces), tuple(algebras), tuple(inclusions),
                        tuple(boundaries))


# ---------------------------------------------------------------------------
# the projection p and the hypercrossed pairings


def proj_p(E, n: int, x: Element) -> Element:
    """Apply (1 - s_j d_j) for j = 0, ..., n-1; the result kills all faces
    below n and is idempotent."""
    if n < 1:
        raise ValueError("projection defined for n >= 1")
    y = x
    for j in range(n):
        y = y - E.deg(n, j)(E.face(n, j)(y))
    return y


def s_word_morphism(E, target_level: int, word: Sequence[int]) -> Morphism:
    """Composite degeneracy morphism for a word in application order,
    landing in E_{target_level}."""
    start = target_level - len(word)
    A = E.level(start)
    m = Morphism.identity(A)
    lvl = start
    for j in word:
        m = E.deg(lvl + 1, j).compose(m)
        lvl += 1
    return m


def in_moore(E, n: int, x: Element) -> bool:
    """Membership in NE_n: all faces d_i, i < n, vanish."""
    return all(E.face(n, i)(x).is_zero() for i in range(n))


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


def _projection_matrix(E, n: int) -> np.ndarray:
    """Matrix of the projection p on E_n, composed as in proj_p."""
    A = E.level(n)
    P = np.eye(A.dim, dtype=np.int64)
    for j in range(n):
        P = (P - matmul(E.deg(n, j).matrix, matmul(E.face(n, j).matrix, P, A.p), A.p)) % A.p
    return P


def _stacked_products(A: Algebra, stacks: dict, jobs: Sequence[tuple]):
    """The products in A of the rows of stacks[a] with the rows of
    stacks[b], for each job (a, b), in pieces (job, index, values): values
    is out[index] of the job's array out[u, v] = stacks[a][u] stacks[b][v].

    Each job contracts its shorter stack with the structure tensor T, the
    left one on the first axis of T or the right one on its second, and
    the stacks contracted on one axis meet T together, a chunk of rows at
    a time, each chunk only with the slices of T at the basis elements its
    rows touch.  So a stack that several jobs share is contracted once, and
    no step holds more than one chunk of contracted rows."""
    p, d = A.p, A.dim
    short = [int(len(stacks[b]) < len(stacks[a])) for a, b in jobs]
    for side, tensor in ((0, A.structure), (1, A.structure.transpose(1, 0, 2))):
        mine = [(job, pair[side], pair[1 - side]) for job, pair in enumerate(jobs)
                if short[job] == side]
        keys = list(dict.fromkeys(key for _, key, _ in mine))
        first = dict(zip(keys, np.cumsum([0] + [len(stacks[k]) for k in keys])))
        stack = np.vstack([np.zeros((0, d), dtype=np.int64), *(stacks[k] for k in keys)])
        # a row's map has d^2 cells, held as residues and, on matmul's float path, as doubles
        step = sweep_step(2 * d * d)
        for start in range(0, len(stack), step):
            rows = stack[start:start + step]
            used = np.flatnonzero(rows.any(axis=0))
            maps = matmul(rows[:, used], tensor[used].reshape(len(used), d * d), p)
            maps = maps.reshape(len(rows), d, d)
            for job, key, other in mine:
                lo = max(first[key], start)
                hi = min(first[key] + len(stacks[key]), start + len(rows))
                if lo < hi:
                    values = matmul(stacks[other], maps[lo - start:hi - start], p)
                    got = slice(lo - first[key], hi - first[key])
                    yield ((job, got, values) if side == 0
                           else (job, (slice(None), got), values.transpose(1, 0, 2)))


def _assembled(A: Algebra, stacks: dict, jobs: Sequence[tuple]) -> list[np.ndarray]:
    """_stacked_products of every job as one array [u, v, k]."""
    out = [np.zeros((len(stacks[a]), len(stacks[b]), A.dim), dtype=np.int64) for a, b in jobs]
    for job, index, values in _stacked_products(A, stacks, jobs):
        out[job][index] = values
    return out


def pairing_table(E, n: int) -> dict:
    """C_{alpha,beta}(u (x) v) for every pairing of p_set(n), u and v
    running over the Moore-basis rows of its two slots, indexed [u, v, k]
    and keyed by PairingIndex; computed once per object.

    Each distinct index s of the pairings lifts the Moore basis of its
    slot into E_n once, through the degeneracies of s one at a time; the
    lifts meet the structure tensor of E_n in one stacked pass
    (_stacked_products), and each pairing's products are projected by p."""
    def make():
        A, pairs, lift = E.level(n), p_set(n), {}
        for s in dict.fromkeys(x for q in pairs for x in (q.alpha, q.beta)):
            level, lift[s] = n - s.size, moore_basis(E, n - s.size)
            for j in s.application_order():
                level += 1
                lift[s] = matmul(lift[s], E.deg(level, j).matrix.T, A.p)
        values = _assembled(A, lift, [(q.alpha, q.beta) for q in pairs])
        proj = _projection_matrix(E, n)
        table = {}
        for q, v in zip(pairs, values):
            table[q] = matmul(v, proj.T, A.p)
            table[q].setflags(write=False)
        return table

    return _memo(E, ("pairings", n), make)


def pairing_ideal(E, n: int) -> Ideal:
    """Ideal of E_n generated by pairing values on spanning sets of the
    Moore components."""
    if not 2 <= n <= 4:
        raise ValueError("pairing ideal defined for n in 2..4")
    return ideal_closure(E.level(n), list(pairing_table(E, n).values()))


# ---------------------------------------------------------------------------
# Theorem-5 style boundary comparison


def theorem5_check(E, n: int) -> CheckRecord:
    """Compare the boundary image d_n(NE_n) with the ideal generated by the
    products K_I . K_J over the pairing index set.

    Interpretations (flagged in the record detail): K_I is read through
    the complement of alpha's entry set in {0, ..., n-1}, and the
    hypothesis E_n = D_n reads D_n as the subalgebra of E_n generated by
    the degeneracy images (degenerate_subalgebra).  The source abstract
    does not define D_n; this reading is the code's choice.  The linear
    span is too strict: on cubic-chain at n = 2 it misses one dimension
    although the generated subalgebra is all of E_2 and the equation
    holds.  The ideal is too loose: on module-id at n = 2 (zero-
    multiplication module data over a unital base) degenerate_ideal is
    all of E_2, yet d_2(NE_2) has dim 2 while the product ideal is 0.
    """
    if not 2 <= n <= 4:
        raise ValueError("check defined for n in 2..4")
    # simplicial imports this module, so the helper is resolved at call time
    from .simplicial import degenerate_subalgebra
    name = f"theorem5[n={n}]"
    interp = {"K_I": "intersection of ker d_i over I = complement of alpha entries",
              "D_n": "subalgebra generated by the degeneracy images"}
    D = degenerate_subalgebra(E, n)
    if D.shape[0] != E.level(n).dim:
        return CheckRecord(name, HYPOTHESIS_FAILED,
                           detail={"reason": f"E_{n} != D_{n}",
                                   "codim": E.level(n).dim - int(D.shape[0]),
                                   **interp})
    lhs, rhs = boundary_image_and_pairing_product(E, n)
    if lhs.shape == rhs.shape and np.array_equal(lhs, rhs):
        return CheckRecord(name, PASS, detail={"dim": int(lhs.shape[0]), **interp})
    A = E.level(n - 1)
    lhs_ideal = Ideal(A, lhs)
    rhs_ideal = Ideal(A, rhs)
    only_l = int(rhs_ideal.residue(lhs).any(axis=1).sum())
    only_r = int(lhs_ideal.residue(rhs).any(axis=1).sum())
    return CheckRecord(name, FAIL,
                       detail={"lhs_dim": int(lhs.shape[0]), "rhs_dim": int(rhs.shape[0]),
                               "lhs_outside_rhs": only_l, "rhs_outside_lhs": only_r,
                               **interp})


def boundary_image_and_pairing_product(E, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two subspaces of E_{n-1} the theorem compares, as rref bases.

    The products K_I . K_J of all the pairings come from one stacked pass
    over the structure tensor of E_{n-1} (_stacked_products), which
    contracts each kernel at most once.  Only the rref span of the products
    is kept, each piece of the pass reduced into it as it comes, and its
    ideal closure is the right side."""
    p = E.level(0).p
    mc = moore(E)
    img_cols = mc.inclusions[n - 1].matrix @ mc.boundaries[n - 1].matrix % p
    lhs = rref(img_cols.T, p)[0]
    A, pairs = E.level(n - 1), p_set(n)
    # K_I for the complement I of an index's entries
    kernels = {s: face_kernel(E, n - 1, set(range(n)) - set(s.entries))
               for q in pairs for s in (q.alpha, q.beta)}
    span = np.zeros((0, A.dim), dtype=np.int64)
    for _, _, values in _stacked_products(A, kernels, [(q.alpha, q.beta) for q in pairs]):
        span = rref(np.vstack([span, *values]), p)[0]
    return lhs, ideal_closure(A, span).basis_matrix


# ---------------------------------------------------------------------------
# Table 1: the 25 printed boundary images at n = 4

# Each row is the printed right side (slot-x factor) . (slot-y factor),
# the slot-x argument lying in NE_{4-#alpha} and the slot-y argument in
# NE_{4-#beta} for the row's pairing (alpha, beta); the comments name the
# printed symbols bound to the two slots.  A factor is a signed sum of
# words in the ambient faces d_i and degeneracies s_i, read right to left
# from the slot's level up to level 3 ("s2 s1 d2" on x2 is s_2 s_1 d_2 x2);
# the word "1" is the argument itself.  Row 15's printed label crosses its
# symbols: the formula is typed by component, so the NE_3 slot (slot x of
# (0)(2,1)) binds y3 and the NE_2 slot binds x2.  E_3 is commutative, so
# the row stores its y3 factor as the slot-x factor, like every other row.

_TABLE1 = (
    ("s2 s1", "s0 d3 - s1 d3 + s2 d3 - 1"),                    # 1   x1, y3
    ("s2 s0 - s2 s1", "s1 d3 - s2 d3 + 1"),                    # 2
    ("s1 s0 - s2 s0", "s2 d3 - 1"),                            # 3
    ("s2 s1 s0 d1 - s1 s0", "1"),                              # 4
    ("s1 s0 d2 - s2 s0 d2 - s0", "s2"),                        # 5   x2, y2
    ("s1 - s0 + s2 s0 d2 - s2 s1 d2", "s1 - s2"),              # 6
    ("s2 s1 d2 - s1", "s0 - s1 + s2"),                         # 7
    ("s2", "s1 d3 - s2 d3 + 1"),                               # 8   x2, y3
    ("s2", "s2 d3 - s1 d3 + s0 d3 - 1"),                       # 9
    ("s1 - s2", "s2 d3 - 1"),                                  # 10
    ("s1 - s2", "s2 d3 - s1 d3 + s0 d3 - 1"),                  # 11
    ("s0 - s1 + s2", "s2 d3 - 1"),                             # 12
    ("s0 - s1 + s2", "s1 d3 - s2 d3 + 1"),                     # 13
    ("s2 s1 d2 - s1", "1"),                                    # 14
    ("s2 d3 - s1 d3 + s0 d3 - 1", "s2 s1 d2 - s1"),            # 15  y3, x2
    ("s2 s0 d2 - s0 + s1 - s1 s1 d2", "1"),                    # 16  x2, y3; doubled s1 s1 d2
    ("s2 s0 d2 - s0 + s1 - s2 s1 d2", "s1 d3 - s2 d3 + 1"),    # 17
    ("s2 s0 d2 - s0 - s1 s0 d0", "1"),                         # 18  printed d0, zero on NE_2
    ("s1 s0 d2 - s2 s0 d2 + s0", "s2 d3 - 1"),                 # 19
    ("1", "s2 d3 - 1"),                                        # 20  x3, y3
    ("1", "s1 d3 - s2 d3 + 1"),                                # 21
    ("1", "s2 d3 - s1 d3 + s0 d3 - 1"),                        # 22
    ("s2 d3 - 1", "s1 d3 - s2 d3 + 1"),                        # 23
    ("s2 d3 - 1", "s2 d3 - s1 d3 + s0 d3 - 1"),                # 24
    ("s1 d3 - s2 d3 + 1", "s2 d3 - s1 d3 + s0 d3 - 1"),        # 25
)


def _factor_values(E, factor: str, c: int, stack: np.ndarray) -> np.ndarray:
    """The rows of `stack`, vectors of E_c, mapped into E_3 by a factor of
    _TABLE1; each face or degeneracy is applied as a matrix, reducing mod p
    after each."""
    p = E.level(0).p
    total = 0
    for term in re.split(r"\s(?=[+-])", factor):
        v, level = stack, c
        for op in reversed(term.lstrip("+- ").split()):
            if op[0] == "d":
                v, level = v @ E.face(level, int(op[1:])).matrix.T % p, level - 1
            elif op[0] == "s":
                v, level = v @ E.deg(level + 1, int(op[1:])).matrix.T % p, level + 1
        total = total - v if term.startswith("-") else total + v
    return total % p


def _printed_values(E, stacks: dict) -> dict:
    """The printed right side of each Table-1 row of stacks, which maps a
    row to its (bx, by), on every row u of bx and v of by (coefficient
    vectors in the slots' levels), indexed [u, v, k] and keyed by row.
    The factors of all the rows meet the structure tensor of E_3 in one
    stacked pass (_stacked_products)."""
    slots = {(row, i): _factor_values(E, factor, 4 - len(s), stack)
             for row, pair in stacks.items()
             for i, (factor, s, stack) in enumerate(zip(_TABLE1[row - 1], _P4[row - 1], pair))}
    values = _assembled(E.level(3), slots, [((row, 0), (row, 1)) for row in stacks])
    return dict(zip(stacks, values))


def table1_eval(E, row: int, x: Element, y: Element) -> tuple[Element, Element]:
    """Composite left side d_4(C_{alpha,beta}(x (x) y)) and the printed
    right side of the given Table-1 row, both as elements of E_3."""
    if not 1 <= row <= 25:
        raise ValueError(f"row {row} outside 1..25")
    if E.k != 4:
        raise PreconditionError("table rows live at truncation level 4")
    val = c_pairing(E, p_set(4)[row - 1], x, y)
    lhs = E.face(4, 4)(val)
    rhs = _printed_values(E, {row: (x.coeffs[None], y.coeffs[None])})[row][0, 0]
    return lhs, Element(E.level(3), rhs)


# C_{alpha,beta}, its faces and both sides of every Table-1 row are
# bilinear in (x, y), so each is tabulated once on pairs of Moore-basis
# rows: C_{alpha,beta} is read from pairing_table(E, 4), and the printed
# sides of all 25 rows come from one call to _printed_values.  Lemma 7 is
# decided on those pairs; Table 1 evaluates the supply pairs in chunks of
# x by two contractions, x first, reducing mod p after each.  Every
# contraction sums at most dim(E_c) products of residues, which the
# algebras' word-size check keeps below 2^63.


def table1_audit(E, supply: Supply = Supply()) -> list[CheckRecord]:
    """Evaluate all 25 rows over the supply of each row's Moore components.

    The supply of an r-dimensional component is every element when p^r is
    within supply.exhaustive_bound and supply.budget seeded samples
    otherwise; each row's detail names its mode and the pairs checked.
    Per row, the left side d_4 C_{alpha,beta} and the lower faces
    d_0..d_3 C_{alpha,beta} are the pairing table's values times the
    faces, and the printed right side comes from _printed_values, both on
    pairs of Moore-basis rows; every supply pair is then evaluated in
    sweep order (x outer, y inner) by batched contractions.  A row is
    CONFIRMED, or DISCREPANT with its first failing pair as witness; each
    pair whose composite value leaves NE_4 adds a membership FAIL record
    ahead of its row's record.
    """
    if E.k != 4:
        raise PreconditionError("table audit requires truncation level 4")
    p, d = E.level(0).p, E.level(3).dim
    table = pairing_table(E, 4)
    # d_4 first: columns [0, d) are the left side, [d, 5d) the lower faces
    faces = np.vstack([E.face(4, i).matrix for i in (4, 0, 1, 2, 3)])
    # the table's keys are p_set(4), in Table-1 row order
    bases = {row: tuple(moore_basis(E, 4 - s.size) for s in (pair.alpha, pair.beta))
             for row, pair in enumerate(table, start=1)}
    printed = _printed_values(E, bases)
    # each component's supply coordinates, and whether they are all of it
    supplies = {c: supply_rows(moore_basis(E, c).shape[0], p, supply) for c in (1, 2, 3)}
    records = []
    for row, pair in enumerate(table, start=1):
        bx, by = bases[row]
        (xs, x_all), (ys, y_all) = (supplies[4 - s.size] for s in (pair.alpha, pair.beta))
        tensor = np.concatenate([matmul(table[pair], faces.T, p), printed[row]], axis=2)
        rb, m = tensor.shape[1:]
        flat = tensor.reshape(len(bx), rb * m)

        def pair_of(i, j):
            return {"x": list(map(int, xs[i] @ bx % p)), "y": list(map(int, ys[j] @ by % p))}

        status = CONFIRMED
        witness: tuple = ()
        step = sweep_step(max(len(ys), rb) * m)
        for start in range(0, len(xs), step):
            chunk = xs[start:start + step]
            vals = matmul(ys, matmul(chunk, flat, p).reshape(len(chunk), rb, m), p)
            for i, j in np.argwhere(vals[:, :, d:5 * d].any(axis=2)):
                records.append(CheckRecord(f"table1[row={row}].membership", FAIL,
                                           witnesses=(pair_of(start + i, j),)))
            bad = np.argwhere((vals[:, :, :d] != vals[:, :, 5 * d:]).any(axis=2))
            if len(bad) and status == CONFIRMED:
                i, j = bad[0]
                status = DISCREPANT
                witness = ({**pair_of(start + i, j), "lhs": list(map(int, vals[i, j, :d])),
                            "rhs": list(map(int, vals[i, j, 5 * d:]))},)
        records.append(CheckRecord(f"table1[row={row}]", status, witnesses=witness,
                                   detail={"pair": str(pair), "checked": len(xs) * len(ys),
                                           "mode": "exhaustive" if x_all and y_all
                                           else "sampled"}))
    return records


def lemma7_check(E) -> list[CheckRecord]:
    """With NE_4 = 0, every Table-1 left side must vanish identically.

    The left side d_4 C_{alpha,beta} is bilinear, so it vanishes exactly
    when it vanishes on every pair of Moore-basis rows of the row's two
    slots; C_{alpha,beta} on those pairs is read from pairing_table(E, 4).
    A row fails at its first pair (x outer, y inner) with a non-zero left
    side, given as level vectors; its detail gives the mode, basis-exact,
    and the number of basis pairs checked.
    """
    if E.k != 4:
        raise PreconditionError("check requires truncation level 4")
    if moore_basis(E, 4).shape[0] != 0:
        return [CheckRecord("lemma7", HYPOTHESIS_FAILED,
                            detail={"reason": "hypothesis fails: length > 3"})]
    p = E.level(0).p
    table = pairing_table(E, 4)
    d4 = E.face(4, 4).matrix
    records = []
    for row, (pair, values) in enumerate(table.items(), start=1):
        bx, by = (moore_basis(E, 4 - s.size) for s in (pair.alpha, pair.beta))
        bad = np.argwhere(matmul(values, d4.T, p).any(axis=2))
        witness = tuple({"row": row, "x": list(map(int, bx[i])), "y": list(map(int, by[j]))}
                        for i, j in bad[:1])
        records.append(CheckRecord(f"lemma7[row={row}]", FAIL if witness else PASS,
                                   witnesses=witness,
                                   detail={"mode": "basis-exact", "checked": len(bx) * len(by)}))
    return records
