"""Exact arithmetic for finite-dimensional commutative algebras over Z/p.

An algebra is presented by a rank-3 tensor of structure constants over a
prime field: e_i * e_j = sum_k c[i,j,k] e_k.  All linear algebra (row
reduction, kernels, quotients) is exact field arithmetic; subspaces are
kept in reduced row echelon form so that subspace equality is matrix
equality.  Membership, coordinates and residues against an rref basis
(basis, pivots) are one formula: the residue of v is
v - v[..., pivots] @ basis mod p and its coordinates are v[..., pivots].
Both take stacks of vectors, leading axes being batch axes, so every
subspace question about many vectors is one call.  Every value is
immutable after construction and every operation is a pure function.

Every contraction between algebra elements, maps and structure tensors
is one exact product, `matmul`.  It runs in float64 BLAS when the product
has at least _BLAS_MADDS = 2^20 multiply-adds and every sum is exact in a
double, k (p-1)^2 < 2^53 for contraction length k; otherwise in int64,
which numpy multiplies without BLAS and check_word_size keeps below 2^63.
Below the floor the first BLAS call costs more than it saves.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


class StructureError(ValueError):
    """A value violates a structural precondition (parent mismatch, bad shape)."""


class PreconditionError(ValueError):
    """An operation's mathematical hypothesis failed on the given input."""


# ---------------------------------------------------------------------------
# prime fields and exact row reduction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p for a small prime p.  Construction rejects any p that
    check_word_size rejects at dim 1 before trial division, which bounds
    the division to about 55k steps."""

    p: int

    def __post_init__(self):
        check_word_size(1, self.p)
        if not _is_prime(self.p):
            raise StructureError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)


def check_word_size(terms: int, p: int) -> None:
    """Reject p when a sum of `terms` products of two residues mod p can
    reach 2^63, the int64 guard of matmul.  Every contraction is reduced
    mod p before it is added to another or contracted again, so no sum is
    longer than the dimension of one algebra.  matmul uses float64 only
    where such a sum stays below 2^53, so that guard is exact too."""
    if terms * (p - 1) ** 2 >= 2 ** 63:
        raise StructureError(
            f"modulus {p} at dim {terms}: int64 sums of products can overflow")


# smallest product, in multiply-adds, that matmul runs in float64 BLAS
_BLAS_MADDS = 1 << 20


def _madds(a: np.ndarray, b: np.ndarray) -> int:
    """The multiply-adds of np.matmul(a, b)."""
    rows = a.shape[-2] if a.ndim > 1 else 1
    cols = b.shape[-1] if b.ndim > 1 else 1
    return math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])) * rows * a.shape[-1] * cols


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, with numpy's matmul shapes and broadcasting, for integer
    arrays of residues (entries in (-p, p)); the result is int64 in [0, p).

    Exact either way: float64 BLAS for a product of at least _BLAS_MADDS
    multiply-adds whose contraction length k has k (p-1)^2 < 2^53, int64
    otherwise."""
    k = a.shape[-1]
    # a.size * b.size / k bounds the multiply-adds and rejects small products cheaply
    if (a.size * b.size >= _BLAS_MADDS * max(k, 1) and k * (p - 1) ** 2 < 2 ** 53
            and _madds(a, b) >= _BLAS_MADDS):
        # the sums are exact integers; int64 remainders are faster than float ones
        out = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    else:
        out = np.matmul(a, b)
    out %= p
    return out


def bilinear(a: np.ndarray, b: np.ndarray, tensor: np.ndarray, p: int) -> np.ndarray:
    """sum_ij a_i b_j tensor[i, j, :] mod p for residue vectors a and b.

    Leading axes of a and b are batch axes and broadcast against each
    other, so a[:, None] and b[None] give the value on every pair of rows.
    Each of the two contractions is reduced mod p before the next; when
    the last batch axis of a has length 1 the second one is a product of
    b's rows with each matrix of the first."""
    m, n, t = tensor.shape
    half = matmul(a, tensor.reshape(m, n * t), p).reshape(a.shape[:-1] + (n, t))
    if a.ndim > 1 and a.shape[-2] == 1 and b.ndim > 1:
        return matmul(b, half[..., 0, :, :], p)
    return matmul(b[..., None, :], half, p)[..., 0, :]


# most cells (tuples times value coordinates) one batched sweep step holds
_SWEEP_CELLS = 1 << 16


def sweep_step(cells: int) -> int:
    """How many leading entries of a batched sweep one step takes when each
    entry spans `cells` cells."""
    return max(1, _SWEEP_CELLS // max(1, cells))


def quadratic_points(dim: int, p: int) -> np.ndarray:
    """The rows e_0 .. e_{dim-1}, then (p - 1) e_i when p > 2, then e_i + e_j
    for i < j in lexicographic order; no rows for dim = 0.

    A map f(x) = l(x) + q(x) on GF(p)^dim, l linear and q quadratic, is
    zero exactly when it vanishes on these rows.  For p odd, f(e_i) and
    f(-e_i) give l_i + q_ii and -l_i + q_ii, so both vanish since 2 is
    invertible; for p = 2, x_i^2 = x_i folds q_ii into l_i.  Then
    f(e_i + e_j) gives the cross coefficient q_ij.  A map F(x, y) that is
    such a map in x for every y and in y for every x is therefore zero
    exactly when it vanishes on every pair of rows: vanishing on the pairs
    makes F(x, .) zero for each row x, so F(., y) vanishes on the rows for
    every y."""
    eye = np.eye(dim, dtype=np.int64)
    i, j = np.triu_indices(dim, 1)
    return np.vstack([eye, *([(p - 1) * eye] if p > 2 else []), eye[i] + eye[j]])


def _as_array(data, p: int) -> np.ndarray:
    """data reduced mod p as a read-only int64 array; the reduction is the
    only copy of an int64 array."""
    arr = np.asarray(data, dtype=np.int64) % p
    arr.setflags(write=False)
    return arr


def _rows(x, dim: int) -> np.ndarray:
    """x, an Element or an array of vectors of length dim with any leading
    axes, as a two-dimensional stack of rows; an empty x has no rows."""
    v = np.asarray(x.coeffs if isinstance(x, Element) else x, dtype=np.int64)
    return np.zeros((0, dim), dtype=np.int64) if v.size == 0 else v.reshape(-1, dim)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over Z/p.

    Returns (R, pivots) where R has one row per pivot, pivot entries 1,
    zero rows dropped, rows ordered by pivot column.  This is the
    canonical form used for subspace comparison.  Each pivot column is
    cleared by one rank-1 update on the rows with a nonzero entry in it,
    restricted to the columns from the pivot on: every row at or below
    the pivot row is zero left of it.
    """
    A = np.array(mat, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.shape[0] > A.shape[1]:
        # at least m - n rows of a tall stack end up zero, and the product
        # stacks of ideal closures are mostly zero rows from the start
        A = A[A.any(axis=1)]
    m, n = A.shape
    pivots: list[int] = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        below = A[row:, col].nonzero()[0]
        if not below.size:
            continue
        piv = row + below[0]
        pivot = A[piv, col:] * pow(int(A[piv, col]), p - 2, p) % p
        A[piv] = A[row]
        A[row, col:] = pivot
        hit = A[:, col].nonzero()[0]
        hit = hit[hit != row]
        if hit.size:
            A[hit, col:] = (A[hit, col:] - A[hit, col, None] * pivot) % p
        pivots.append(col)
    R = A[:len(pivots)].copy()
    R.setflags(write=False)
    return R, tuple(pivots)


def null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rref rows) of {x : mat @ x = 0} over Z/p."""
    R, pivots = rref(mat, p)
    n = np.shape(mat)[-1]
    free = np.delete(np.arange(n), pivots)
    vecs = np.zeros((free.size, n), dtype=np.int64)
    vecs[np.arange(free.size), free] = 1
    vecs[:, list(pivots)] = -R[:, free].T % p
    return rref(vecs, p)[0]


def reduce_against(v: np.ndarray, basis: np.ndarray, pivots: Sequence[int], p: int) -> np.ndarray:
    """Residue v - v[..., pivots] @ basis of v modulo the row space of an
    rref basis; leading axes of v are batch axes.  v[..., pivots] are the
    coordinates of v when the residue is zero."""
    v = np.asarray(v, dtype=np.int64) % p
    return (v - matmul(v[..., list(pivots)], basis, p)) % p


def intersect_row_spaces(U: np.ndarray, V: np.ndarray, p: int) -> np.ndarray:
    """rref basis of the intersection of two row spaces."""
    if U.shape[0] == 0 or V.shape[0] == 0:
        return np.zeros((0, U.shape[1]), dtype=np.int64)
    # pairs (a, b) with a @ U = b @ V span the intersection via a @ U
    stacked = np.vstack([U, (-V) % p]).T % p
    pairs = null_space(stacked, p)
    if pairs.shape[0] == 0:
        return np.zeros((0, U.shape[1]), dtype=np.int64)
    vecs = pairs[:, : U.shape[0]] @ U % p
    return rref(vecs, p)[0]


# ---------------------------------------------------------------------------
# algebras, elements, morphisms


@dataclass(frozen=True, eq=False)
class Algebra:
    """Commutative algebra over Z/p given by structure constants.

    ``structure[i, j, k]`` is the e_k coefficient of e_i * e_j.  The
    algebra is not required to be unital; ``identity`` is optional
    metadata naming a verified two-sided identity basis element.
    """

    field: PrimeField
    structure: np.ndarray
    basis_names: tuple[str, ...]
    identity: int | None = None
    name: str = ""

    def __post_init__(self):
        dim = len(self.basis_names)
        arr = _as_array(self.structure, self.field.p)
        if arr.shape != (dim, dim, dim):
            raise StructureError(
                f"structure tensor shape {arr.shape} does not match dim {dim}")
        object.__setattr__(self, "structure", arr)
        check_word_size(dim, self.field.p)
        if self.identity is not None and not (0 <= self.identity < dim):
            raise StructureError("identity index out of range")

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
        return bilinear(a, b, self.structure, self.p)

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"<{label} dim={self.dim} over Z/{self.p}>"


@dataclass(frozen=True, eq=False)
class Element:
    """Coefficient vector in a fixed algebra.

    ``coeffs`` may carry leading batch axes, shape (..., dim): the value
    is then a stack of elements, and every operation below broadcasts
    over those axes as numpy does."""

    parent: Algebra
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.coeffs, self.parent.p)
        if arr.shape[-1:] != (self.parent.dim,):
            raise StructureError(
                f"coefficient vector length {arr.shape} does not match dim {self.parent.dim}")
        object.__setattr__(self, "coeffs", arr)

    def _check_parent(self, other: Element) -> None:
        if self.parent is not other.parent:
            raise StructureError("elements belong to different algebras")

    def __add__(self, other: Element) -> Element:
        self._check_parent(other)
        return Element(self.parent, (self.coeffs + other.coeffs) % self.parent.p)

    def __sub__(self, other: Element) -> Element:
        self._check_parent(other)
        return Element(self.parent, (self.coeffs - other.coeffs) % self.parent.p)

    def __neg__(self) -> Element:
        return Element(self.parent, (-self.coeffs) % self.parent.p)

    def __mul__(self, other: Element) -> Element:
        self._check_parent(other)
        return Element(self.parent, self.parent.mul_vec(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.parent is other.parent
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.parent), self.coeffs.tobytes()))

    def __repr__(self):
        return f"Element({self.coeffs.tolist()})"


def mul(a: Element, b: Element) -> Element:
    """Product in the ambient algebra; commutative by validated structure."""
    return a * b


@dataclass(frozen=True, eq=False)
class Morphism:
    """Linear map given by a target.dim x source.dim matrix over Z/p."""

    source: Algebra
    target: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        if self.source.p != self.target.p:
            raise StructureError("source and target over different primes")
        arr = _as_array(self.matrix, self.source.p)
        if arr.shape != (self.target.dim, self.source.dim):
            raise StructureError(
                f"matrix shape {arr.shape}, expected {(self.target.dim, self.source.dim)}")
        object.__setattr__(self, "matrix", arr)

    def __call__(self, x: Element) -> Element:
        if x.parent is not self.source:
            raise StructureError("element not in the source algebra")
        return Element(self.target, matmul(x.coeffs, self.matrix.T, self.source.p))

    def compose(self, inner: Morphism) -> Morphism:
        """self after inner."""
        if inner.target is not self.source:
            raise StructureError("morphisms do not compose")
        return Morphism(inner.source, self.target,
                        matmul(self.matrix, inner.matrix, self.source.p))

    def is_multiplicative(self) -> bool:
        """f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
        p, M = self.source.p, self.matrix
        (m, n), S, T = M.shape, self.source.structure, self.target.structure
        lhs = matmul(S.reshape(n * n, n), M.T, p).reshape(n, n, m)  # [i, j, k]
        half = matmul(M.T, T.reshape(m, m * m), p).reshape(n, m, m)  # [i, b, k]
        rhs = matmul(half.transpose(0, 2, 1), M, p)  # [i, k, j]
        return np.array_equal(lhs, rhs.transpose(0, 2, 1))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Morphism) and self.source is other.source
                and self.target is other.target
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.matrix.tobytes()))

    @staticmethod
    def identity(A: Algebra) -> Morphism:
        return Morphism(A, A, np.eye(A.dim, dtype=np.int64))

    @staticmethod
    def zero(A: Algebra, B: Algebra) -> Morphism:
        return Morphism(A, B, np.zeros((B.dim, A.dim), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Ideal:
    """Subspace of an algebra, closed under multiplication, in rref form."""

    parent: Algebra
    basis_matrix: np.ndarray
    pivots: tuple[int, ...] = field(default=())

    def __post_init__(self):
        R, piv = rref(_rows(self.basis_matrix, self.parent.dim), self.parent.p)
        object.__setattr__(self, "basis_matrix", R)
        object.__setattr__(self, "pivots", piv)

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]

    def residue(self, x: Element | np.ndarray) -> np.ndarray:
        """x modulo the subspace (see reduce_against); leading axes of x
        are batch axes."""
        v = x.coeffs if isinstance(x, Element) else x
        return reduce_against(v, self.basis_matrix, self.pivots, self.parent.p)

    def contains(self, x: Element | np.ndarray) -> bool:
        """Whether x lies in the subspace; leading axes of x are batch
        axes, and a stack lies in it when every one of its vectors does."""
        return not self.residue(x).any()

    def basis_elements(self) -> list[Element]:
        return [Element(self.parent, r) for r in self.basis_matrix]

    def coords(self, x: Element | np.ndarray) -> np.ndarray:
        """Coordinates of x in the rref basis, x[..., pivots]; leading axes
        of x are batch axes, and every vector must lie in the subspace."""
        if not self.contains(x):
            raise StructureError("vector outside subspace")
        v = np.asarray(x.coeffs if isinstance(x, Element) else x, dtype=np.int64)
        return v[..., list(self.pivots)] % self.parent.p

    def is_mult_closed(self) -> bool:
        """Closed under multiplication by every parent basis element."""
        A = self.parent
        # [i, r, k]: e_i times basis row r
        return self.contains(matmul(self.basis_matrix, A.structure, A.p))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and self.parent is other.parent
                and np.array_equal(self.basis_matrix, other.basis_matrix))

    def __hash__(self):
        return hash((id(self.parent), self.basis_matrix.tobytes()))

    def __repr__(self):
        return f"<Ideal dim={self.dim} of {self.parent!r}>"


@dataclass(frozen=True, eq=False)
class BilinearMap:
    """Bilinear map left x right -> target: tensor[i, j, k] over Z/p."""

    left: Algebra
    right: Algebra
    target: Algebra
    tensor: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.tensor, self.target.p)
        want = (self.left.dim, self.right.dim, self.target.dim)
        if arr.shape != want:
            raise StructureError(f"tensor shape {arr.shape}, expected {want}")
        object.__setattr__(self, "tensor", arr)

    def __call__(self, x: Element, y: Element) -> Element:
        if x.parent is not self.left or y.parent is not self.right:
            raise StructureError("arguments not in the declared algebras")
        return Element(self.target, bilinear(x.coeffs, y.coeffs, self.tensor,
                                                 self.target.p))

    def apply_vecs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        p = self.target.p
        return bilinear(u % p, v % p, self.tensor, p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearMap) and self.left is other.left
                and self.right is other.right and self.target is other.target
                and np.array_equal(self.tensor, other.tensor))

    def __hash__(self):
        return hash(self.tensor.tobytes())

    @staticmethod
    def zero(left: Algebra, right: Algebra, target: Algebra) -> BilinearMap:
        return BilinearMap(left, right, target,
                           np.zeros((left.dim, right.dim, target.dim), dtype=np.int64))

    @staticmethod
    def from_multiplication(A: Algebra) -> BilinearMap:
        return BilinearMap(A, A, A, A.structure)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple[int, ...]


def validate_algebra(A: Algebra) -> list[Violation]:
    """Commutativity / associativity / identity violations; empty iff valid."""
    p = A.p
    out: list[Violation] = []
    c = A.structure
    comm = (c - c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(comm.any(axis=2))):
        if i <= j:
            out.append(Violation("commutativity", (int(i), int(j))))
    # (e_i e_j) e_l against e_i (e_j e_l), one i-chunk at a time
    d = A.dim
    step = sweep_step(d ** 3)
    for start in range(0, d, step):
        left = matmul(c[start:start + step].reshape(-1, d), c.reshape(d, d * d), p)
        right = matmul(c.reshape(d * d, d), c[start:start + step], p)
        bad = (left.reshape(-1, d, d, d) != right.reshape(-1, d, d, d)).any(axis=3)
        for i, j, l in zip(*np.nonzero(bad)):
            out.append(Violation("associativity", (start + int(i), int(j), int(l))))
    if A.identity is not None:
        e = A.identity
        eye = np.eye(A.dim, dtype=np.int64)
        if not (np.array_equal(c[e] % p, eye) and np.array_equal(c[:, e] % p, eye)):
            out.append(Violation("identity", (e,)))
    return out


def annihilator(A: Algebra) -> np.ndarray:
    """rref basis of {x : x * A = 0}."""
    # x * e_i = sum_j x_j c[j, i, :]; stack the maps x -> x * e_i
    return null_space(A.structure.transpose(1, 2, 0).reshape(A.dim ** 2, A.dim), A.p)


def square_span(A: Algebra) -> np.ndarray:
    """rref basis of the span of all basis products (the subspace A*A)."""
    rows = A.structure.reshape(A.dim * A.dim, A.dim)
    return rref(rows, A.p)[0]


# ---------------------------------------------------------------------------
# ideals, quotients, kernels, subalgebras


def ideal_closure(A: Algebra, gens: Element | np.ndarray | Iterable) -> Ideal:
    """Smallest multiplication-closed subspace containing the generators.

    gens is an Element or array of generators (leading axes are batch
    axes) or an iterable of them.  Semi-naive: each round multiplies only
    the rows the last round added by the basis of A, a few basis elements
    at a time, reduces the products against the current basis, and
    eliminates the nonzero residues alone; it stops when a round adds
    nothing or the span is all of A.
    """
    p, d = A.p, A.dim
    parts = [gens] if isinstance(gens, (Element, np.ndarray)) else list(gens)
    basis, piv = rref(np.vstack([np.zeros((0, d), dtype=np.int64)]
                                + [_rows(g, d) for g in parts]), p)
    fresh = basis
    while len(fresh) and len(basis) < d:
        added = []
        step = sweep_step(len(fresh) * d)
        for start in range(0, d, step):
            # [i, r, k]: e_i times fresh row r
            prods = matmul(fresh, A.structure[start:start + step], p).reshape(-1, d)
            res = reduce_against(prods, basis, piv, p)
            res = res[res.any(axis=1)]
            if len(res):
                added.append(rref(res, p)[0])
                basis, piv = rref(np.vstack([basis, added[-1]]), p)
        fresh = np.vstack([np.zeros((0, d), dtype=np.int64)] + added)
    return Ideal(A, basis)


def kernel(f: Morphism) -> Ideal:
    """Null space of a multiplicative morphism, returned as an Ideal."""
    ker = null_space(f.matrix, f.source.p)
    ideal = Ideal(f.source, ker)
    if not ideal.is_mult_closed():
        raise PreconditionError("kernel not closed under multiplication: f is not multiplicative")
    return ideal


def image_space(f: Morphism) -> np.ndarray:
    return rref(f.matrix.T, f.source.p)[0]


def quotient(A: Algebra, I: Ideal, name: str = "") -> tuple[Algebra, Morphism]:
    """Quotient algebra on the complement basis plus the projection.

    The coset representatives are the non-pivot coordinates of I's rref
    basis; the projection is verified multiplicative with kernel I.  When
    A's identity is not a pivot of I it is one of the representatives, and
    its coset is the identity of A / I.
    """
    if I.parent is not A:
        raise StructureError("ideal of a different algebra")
    if not I.is_mult_closed():
        raise PreconditionError("subspace is not an ideal")
    keep = np.delete(np.arange(A.dim), I.pivots)
    # projection: reduce mod I, then read the surviving coordinates
    proj = I.residue(np.eye(A.dim, dtype=np.int64))[:, keep].T
    struct = A.structure[np.ix_(keep, keep)] @ proj.T % A.p
    names = tuple(A.basis_names[j] for j in keep)
    unit = (None if A.identity is None or A.identity in I.pivots
            else int(np.searchsorted(keep, A.identity)))
    Q = Algebra(A.field, struct, names, unit, name or (A.name + "/I" if A.name else ""))
    pi = Morphism(A, Q, proj)
    if not pi.is_multiplicative():
        raise PreconditionError("projection failed multiplicativity: subspace not an ideal")
    if kernel(pi) != I:
        raise PreconditionError("projection kernel differs from the ideal")
    return Q, pi


def subalgebra(A: Algebra, span_rows: np.ndarray, name: str = "") -> tuple[Algebra, Morphism]:
    """Algebra structure on a multiplication-closed subspace plus inclusion.

    The chosen basis is the rref basis of the subspace, so two calls on
    equal subspaces produce identical structure constants.
    """
    R, piv = rref(_rows(span_rows, A.dim), A.p)
    prods = A.mul_vec(R[:, None], R[None])
    if reduce_against(prods, R, piv, A.p).any():
        raise PreconditionError("subspace not closed under multiplication")
    struct = prods[..., list(piv)]
    r = R.shape[0]
    eye = np.eye(r, dtype=np.int64)
    unit = np.flatnonzero((struct == eye).all(axis=(1, 2))
                          & (struct.transpose(1, 0, 2) == eye).all(axis=(1, 2)))
    names = tuple(f"{name or 'v'}{i}" for i in range(r))
    S = Algebra(A.field, struct, names, int(unit[0]) if unit.size else None, name)
    return S, Morphism(S, A, R.T)


# ---------------------------------------------------------------------------
# module actions


def action_violations(action: BilinearMap) -> list[Violation]:
    """Failures of s.(n n') = (s.n) n' and (s s').n = s.(s'.n) on basis triples."""
    S, N = action.left, action.right
    p = N.p
    t = action.tensor
    out: list[Violation] = []
    # s.(n n') vs (s.n) n'
    lhs = np.einsum("nmk,skq->snmq", N.structure, t) % p
    rhs = np.einsum("snk,kmq->snmq", t, N.structure) % p
    for s, n, m in zip(*np.nonzero(((lhs - rhs) % p).any(axis=3))):
        out.append(Violation("module", (int(s), int(n), int(m))))
    # (s s').n vs s.(s'.n)
    lhs2 = np.einsum("stk,knq->stnq", S.structure, t) % p
    rhs2 = np.einsum("tnk,skq->stnq", t, t) % p
    for s, tt, n in zip(*np.nonzero(((lhs2 - rhs2) % p).any(axis=3))):
        out.append(Violation("associative-action", (int(s), int(tt), int(n))))
    return out


# ---------------------------------------------------------------------------
# element supply


@dataclass(frozen=True)
class Supply:
    """Test-point configuration: exhaustive below the bound, else sampled.
    Only the Table-1 sweep (moore.table1_audit) draws elements from it;
    every other check is decided exactly on basis tuples."""

    seed: int = 0
    budget: int = 256
    exhaustive_bound: int = 4096

    def is_exhaustive(self, dim: int, p: int) -> bool:
        """Whether the supply of a dim-dimensional space over Z/p is all of it."""
        return p ** dim <= self.exhaustive_bound


def supply_rows(dim: int, p: int, supply: Supply = Supply()) -> tuple[np.ndarray, bool]:
    """The supply's coordinate vectors of a dim-dimensional space over Z/p
    as the rows of one array, in vector_supply order, and whether they are
    all of it.  The zero space's supply is the zero vector alone."""
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64), True
    rows = np.array(list(vector_supply(dim, p, supply)), dtype=np.int64)
    return rows.reshape(-1, dim), supply.is_exhaustive(dim, p)


def elements(A: Algebra, supply: Supply = Supply()) -> Iterator[Element]:
    """All p^dim elements when small, else seeded pseudo-random elements."""
    yield from (Element(A, v) for v in vector_supply(A.dim, A.p, supply))


def vector_supply(dim: int, p: int, supply: Supply = Supply()) -> Iterator[np.ndarray]:
    if supply.is_exhaustive(dim, p):
        for tup in itertools.product(range(p), repeat=dim):
            yield np.array(tup, dtype=np.int64)
    else:
        rng = random.Random(supply.seed)
        for _ in range(supply.budget):
            yield np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)


def subspace_elements(parent: Algebra, basis: np.ndarray,
                      supply: Supply = Supply()) -> Iterator[Element]:
    """Elements of a subspace, enumerated through coordinate vectors."""
    r = basis.shape[0]
    if r == 0:
        yield parent.zero()
        return
    for coords in vector_supply(r, parent.p, supply):
        yield Element(parent, coords @ basis % parent.p)


def algebras_equal(A: Algebra, B: Algebra) -> bool:
    """On-the-nose equality of presentations (prime, dim, structure, identity)."""
    return (A.p == B.p and A.dim == B.dim
            and np.array_equal(A.structure, B.structure)
            and A.identity == B.identity)
