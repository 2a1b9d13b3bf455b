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

import functools
import itertools
import re
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeff import (Algebra, Ideal, Morphism, PreconditionError,
                    StructureError, Supply, ideal_closure, matmul,
                    null_space, rref, subalgebra, supply_rows, sweep_step)
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
    """All 2^n surjection indices at level n, in the printed order; a fresh
    list of the indices _s_set(n) sorted once per process."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_s_set(n))


@functools.cache
def _s_set(n: int) -> tuple[SurjIndex, ...]:
    subsets = [SurjIndex(tuple(reversed(combo)), n)
               for r in range(n + 1) for combo in itertools.combinations(range(n), r)]
    return tuple(sorted(subsets, key=SurjIndex.order_key))


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


# face kernels as Ideals, one entry per NE_n among them (moore_space, the
# one handle on NE_n that the package passes around), Moore complexes,
# degeneracy words, decompositions and pairing tables, computed once per
# simplicial object and handed down to the objects that extend it
# (_hand_down): the objects are immutable, and no value refers back to its
# object, so an entry goes with its object.  What depends on the level
# alone, as s_set and simplicial's index plans, is kept once per process.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(E, key, make):
    table = _MEMO.setdefault(E, {})
    if key not in table:
        table[key] = make()
    return table[key]


def _hand_down(E, F):
    """F, a fresh extension of E by a level, given every memo entry of E
    but its Moore complex: the others concern levels F shares with E."""
    _MEMO[F] = {key: value for key, value in _MEMO.get(E, {}).items() if key != "moore"}
    return F


def face_kernel(E, n: int, faces) -> Ideal:
    """The intersection of ker d_i, i in faces, as an Ideal of E_n, all of
    E_n when faces is empty; computed once per object and face set."""
    idx, A = tuple(sorted(faces)), E.level(n)

    def make():
        return Ideal(A, null_space(np.vstack([E.face(n, i).matrix for i in idx]), A.p)
                     if idx else np.eye(A.dim, dtype=np.int64))

    return _memo(E, ("kernel", n, idx), make)


def moore_space(E, n: int) -> Ideal:
    """NE_n = intersection of ker d_i, i < n, as an Ideal of E_n (all of E_0
    at n = 0): extend_level reads the Moore spaces of every level below the
    new one, and _moore_complex the same spaces of the object it is given."""
    return face_kernel(E, n, range(n))


@dataclass(frozen=True, eq=False)
class MooreComplex:
    """Normal chain complex of a truncated simplicial algebra.

    algebras[n] realizes NE_n as an algebra on the rref basis of
    moore_space(E, n), the one memo entry of NE_n (E_0 itself at n = 0),
    and boundaries[n - 1] is the restriction of the last face,
    NE_n -> NE_{n-1}, in those bases.
    """

    algebras: tuple[Algebra, ...]
    boundaries: tuple[Morphism, ...]  # boundaries[n - 1]: algebras[n] -> algebras[n - 1]

    def length(self) -> int:
        """The highest n >= 1 with NE_n != 0, or 0."""
        return max((n for n, A in enumerate(self.algebras) if n and A.dim), default=0)


def moore(E) -> MooreComplex:
    """The Moore complex of E, computed once per object (_moore_complex)."""
    return _memo(E, "moore", lambda: _moore_complex(E))


def _moore_complex(E) -> MooreComplex:
    """Compute the Moore complex; verifies d d = 0 and ideal-ness of each NE_n."""
    algebras = []
    for n in range(E.k + 1):
        ne = moore_space(E, n)
        if not ne.is_mult_closed():
            raise PreconditionError(f"NE_{n} is not an ideal; invalid simplicial data")
        # NE_0 is all of E_0; keep the level algebra itself
        algebras.append(subalgebra(E.level(n), ne, name=f"NE{n}")[0] if n else E.level(0))
    boundaries = []
    for n in range(1, E.k + 1):
        # last face restricted to NE_n, in the rref coordinates of NE_{n-1}
        below = moore_space(E, n - 1)
        img = matmul(moore_space(E, n).basis_matrix, E.face(n, n).matrix.T, E.level(n).p)
        if not below.contains(img):
            raise PreconditionError(
                f"boundary image escapes NE_{n - 1}; invalid simplicial data")
        boundaries.append(Morphism(algebras[n], algebras[n - 1], below.coords(img).T))
    for n in range(2, E.k + 1):
        if matmul(boundaries[n - 2].matrix, boundaries[n - 1].matrix, E.level(0).p).any():
            raise PreconditionError(f"boundary o boundary nonzero at level {n}")
    return MooreComplex(tuple(algebras), tuple(boundaries))


# ---------------------------------------------------------------------------
# the projection p and the hypercrossed pairings


def s_word_morphism(E, target_level: int, word: Sequence[int]) -> Morphism:
    """Composite degeneracy morphism for a word in application order,
    landing in E_{target_level}; computed once per object and word, from
    the morphism of the word without its last letter."""
    word = tuple(word)

    def make():
        if not word:
            return Morphism.identity(E.level(target_level))
        outer = E.deg(target_level, word[-1])
        return outer.compose(s_word_morphism(E, target_level - 1, word[:-1])) if word[1:] else outer

    return _memo(E, ("word", target_level, word), make)


def _projection_matrix(E, n: int) -> np.ndarray:
    """Matrix of the projection p on E_n: the composite of 1 - s_j d_j, j = 0 first."""
    A = E.level(n)
    P = np.eye(A.dim, dtype=np.int64)
    for j in range(n):
        P = (P - matmul(E.deg(n, j).matrix, matmul(E.face(n, j).matrix, P, A.p), A.p)) % A.p
    return P


def pairing_table(E, n: int) -> dict:
    """C_{alpha,beta}(u (x) v) for every pairing of p_set(n), u and v
    running over the Moore-basis rows of its two slots, indexed [u, v, k]
    and keyed by PairingIndex; computed once per object.

    Each distinct index s of the pairings lifts the Moore basis of its
    slot into E_n once, through s_word_morphism; each pairing multiplies
    the lifts of its two slots in E_n (Algebra.mul_vec), and its products
    are projected by p."""
    def make():
        A, pairs = E.level(n), p_set(n)
        lift = {s: matmul(moore_space(E, n - s.size).basis_matrix,
                          s_word_morphism(E, n, s.application_order()).matrix.T, A.p)
                for s in dict.fromkeys(x for q in pairs for x in (q.alpha, q.beta))}
        proj = _projection_matrix(E, n)
        table = {}
        for q in pairs:
            table[q] = matmul(A.mul_vec(lift[q.alpha][:, None], lift[q.beta][None]), proj.T, A.p)
            table[q].setflags(write=False)
        return table

    return _memo(E, ("pairings", n), make)


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
    if n > E.k:
        return CheckRecord(name, HYPOTHESIS_FAILED,
                           detail={"reason": f"requires truncation level {n}"})
    interp = {"K_I": "intersection of ker d_i over I = complement of alpha entries",
              "D_n": "subalgebra generated by the degeneracy images"}
    D = degenerate_subalgebra(E, n)
    if D.shape[0] != E.level(n).dim:
        return CheckRecord(name, HYPOTHESIS_FAILED,
                           detail={"reason": f"E_{n} != D_{n}",
                                   "codim": E.level(n).dim - int(D.shape[0]),
                                   **interp})
    lhs, rhs = boundary_image_and_pairing_product(E, n)
    if lhs == rhs:
        return CheckRecord(name, PASS, detail={"dim": lhs.dim, **interp})
    only_l = int(rhs.residue(lhs.basis_matrix).any(axis=1).sum())
    only_r = int(lhs.residue(rhs.basis_matrix).any(axis=1).sum())
    return CheckRecord(name, FAIL,
                       detail={"lhs_dim": lhs.dim, "rhs_dim": rhs.dim,
                               "lhs_outside_rhs": only_l, "rhs_outside_lhs": only_r,
                               **interp})


def boundary_image_and_pairing_product(E, n: int) -> tuple[Ideal, Ideal]:
    """The two subspaces of E_{n-1} the theorem compares, as Ideals.

    The products K_I . K_J are formed one pairing at a time in E_{n-1}
    (Algebra.mul_vec).  Only the rref span of the products is kept, each
    pairing's products reduced into it as they come, and its ideal
    closure is the right side."""
    p, A, pairs = E.level(0).p, E.level(n - 1), p_set(n)
    img = matmul(moore(E).boundaries[n - 1].matrix.T, moore_space(E, n - 1).basis_matrix, p)
    # K_I for the complement I of an index's entries
    kernels = {s: face_kernel(E, n - 1, set(range(n)) - set(s.entries)).basis_matrix
               for q in pairs for s in (q.alpha, q.beta)}
    span = np.zeros((0, A.dim), dtype=np.int64)
    for q in pairs:
        values = A.mul_vec(kernels[q.alpha][:, None], kernels[q.beta][None])
        span = rref(np.vstack([span, *values]), p)[0]
    return Ideal(A, img), ideal_closure(A, span)


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
                v, level = matmul(v, E.face(level, int(op[1:])).matrix.T, p), level - 1
            elif op[0] == "s":
                v, level = matmul(v, E.deg(level + 1, int(op[1:])).matrix.T, p), level + 1
        total = total - v if term.startswith("-") else total + v
    return total % p


def _printed_values(E, stacks: dict) -> dict:
    """The printed right side of each Table-1 row of stacks, which maps a
    row to its (bx, by), on every row u of bx and v of by (coefficient
    vectors in the slots' levels), indexed [u, v, k] and keyed by row:
    the two factors of a row are multiplied in E_3 (Algebra.mul_vec)."""
    out = {}
    for row, pair in stacks.items():
        x, y = (_factor_values(E, factor, 4 - len(s), stack)
                for factor, s, stack in zip(_TABLE1[row - 1], _P4[row - 1], pair))
        out[row] = E.level(3).mul_vec(x[:, None], y[None])
    return out


# C_{alpha,beta}, its faces and both sides of every Table-1 row are
# bilinear in (x, y), so each is tabulated once on pairs of Moore-basis
# rows: C_{alpha,beta} is read from pairing_table(E, 4), and the printed
# sides of all 25 rows come from one call to _printed_values; both form
# their products with Algebra.mul_vec.  Lemma 7 is decided on those pairs;
# Table 1 evaluates the supply pairs in chunks of x by two contractions, x
# first, reducing mod p after each.  Every contraction sums at most
# dim(E_c) products of residues, which the algebras' word-size checks keep
# below 2^63; mul_vec sums a segment of triples only where that sum fits.


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
    bases = {row: tuple(moore_space(E, 4 - s.size).basis_matrix for s in (pair.alpha, pair.beta))
             for row, pair in enumerate(table, start=1)}
    printed = _printed_values(E, bases)
    # each component's supply coordinates, and whether they are all of it
    supplies = {c: supply_rows(moore_space(E, c).dim, p, supply) for c in (1, 2, 3)}
    records = []
    for row, pair in enumerate(table, start=1):
        bx, by = bases[row]
        (xs, x_all), (ys, y_all) = (supplies[4 - s.size] for s in (pair.alpha, pair.beta))
        tensor = np.concatenate([matmul(table[pair], faces.T, p), printed[row]], axis=2)
        rb, m = tensor.shape[1:]
        flat = tensor.reshape(len(bx), rb * m)

        def pair_of(i, j):
            return {"x": matmul(xs[i], bx, p).tolist(), "y": matmul(ys[j], by, p).tolist()}

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
    if moore_space(E, 4).dim:
        return [CheckRecord("lemma7", HYPOTHESIS_FAILED,
                            detail={"reason": "hypothesis fails: length > 3"})]
    p = E.level(0).p
    table = pairing_table(E, 4)
    d4 = E.face(4, 4).matrix
    records = []
    for row, (pair, values) in enumerate(table.items(), start=1):
        bx, by = (moore_space(E, 4 - s.size).basis_matrix for s in (pair.alpha, pair.beta))
        bad = np.argwhere(matmul(values, d4.T, p).any(axis=2))
        witness = tuple({"row": row, "x": list(map(int, bx[i])), "y": list(map(int, by[j]))}
                        for i, j in bad[:1])
        records.append(CheckRecord(f"lemma7[row={row}]", FAIL if witness else PASS,
                                   witnesses=witness,
                                   detail={"mode": "basis-exact", "checked": len(bx) * len(by)}))
    return records
