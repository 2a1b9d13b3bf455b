"""Exact arithmetic for finite-dimensional commutative algebras over Z/p.

An algebra is presented by structure constants over a prime field,
e_i * e_j = sum_k c[i,j,k] e_k, held as their nonzero triples (i, j, k, c)
in C order; the dense rank-3 tensor is a view built on first read.  The
level laws (validate_algebra) and the loader read the triples alone, so a
sparse level of a document never has its d^3 cells made unless a dense
contraction reads them.  All linear algebra (row
reduction, kernels, quotients) is exact field arithmetic; subspaces are
kept in reduced row echelon form so that subspace equality is matrix
equality.  An Ideal is the one value holding a subspace, as its rref
basis and pivots: a basis already in rref is kept as given and any other
is reduced once.  Membership, coordinates and residues against an rref
basis (basis, pivots) are one formula: the residue of v is
v - v[..., pivots] @ basis mod p and its coordinates are v[..., pivots].
Both take stacks of vectors, leading axes being batch axes, so every
subspace question about many vectors is one call.  Every value is
immutable after construction and every operation is a pure function.

Every product of stacks of algebra elements is one call, Algebra.mul_vec:
below dim _TRIPLES_DIM it contracts the dense view (bilinear), and from
that dim on it sums the products of the triples' coefficients in segments
of equal target k.  Every other contraction between elements, maps and
structure tensors is one exact product, `matmul`.  It runs in float64
BLAS when the product has at least _BLAS_MADDS = 2^20 multiply-adds and
every sum is exact in a double, k (p-1)^2 < 2^53 for contraction length
k; otherwise in int64, which numpy multiplies without BLAS and
check_word_size keeps below 2^63.  Below the floor the first BLAS call
costs more than it saves.  The package writes no other matrix product.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


def check_word_size(terms: int, p: int) -> None:
    """Reject p when a sum of `terms` products of two residues mod p can
    reach 2^63, the int64 guard of matmul.  Every contraction is reduced
    mod p before it is added to another or contracted again, so no sum but
    mul_vec's segment sums (which check their own length) is longer than
    one algebra's dim.  matmul uses float64 only where such a sum stays
    below 2^53, so that guard is exact too."""
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
    vecs = matmul(pairs[:, : U.shape[0]], U, p)
    return rref(vecs, p)[0]


# ---------------------------------------------------------------------------
# algebras, elements, morphisms


def checked_triples(rows, shape: tuple, p: int) -> np.ndarray:
    """The entries of a tensor of `shape` given as rows [i, j, k, c], as an
    (nnz, 4) int64 array of its nonzero entries in C order of
    (i, j, k), c reduced mod p.  The first row, in the given order, whose
    (i, j, k) lies outside the shape or repeats an earlier row's is refused,
    also when its coefficient is 0."""
    arr = np.asarray(rows, dtype=np.int64)
    arr = arr.reshape(0, 4) if arr.shape == (0,) else arr
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise StructureError("structure must be a list of [i, j, k, coeff]")
    idx = arr[:, :3]
    outside = ((idx < 0) | (idx >= shape)).any(axis=1)
    stop = int(outside.argmax()) if outside.any() else len(arr)
    key = np.ravel_multi_index(idx[:stop].T, shape)
    order = np.argsort(key, kind="stable")
    # a stable sort puts each repeat after the row it repeats
    repeat = key[order[1:]] == key[order[:-1]]
    if repeat.any():
        raise StructureError("triple ({},{},{}) given twice".format(*idx[order[1:][repeat].min()]))
    if stop < len(arr):
        raise StructureError("index ({},{},{}) outside dim {}".format(*idx[stop], shape))
    out = arr[order]
    out[:, 3] %= p
    return out[out[:, 3] != 0]


def triples_of(t: np.ndarray) -> np.ndarray:
    """The nonzero entries of a tensor of residues as rows [i, j, k, c] in
    C order of (i, j, k)."""
    idx = np.nonzero(t)
    return np.column_stack([*idx, t[idx]])


def dense_of(triples: np.ndarray, shape: tuple) -> np.ndarray:
    """The tensor of `shape` whose nonzero entries are the rows [i, j, k, c]
    of triples, each (i, j, k) given once."""
    t = np.zeros(shape, dtype=np.int64)
    t[tuple(triples[:, :3].T)] = triples[:, 3]
    return t


# smallest dim at which mul_vec forms its products from the triples; below
# it the dense contraction is faster
_TRIPLES_DIM = 32


@dataclass(frozen=True, eq=False, init=False)
class Algebra:
    """Commutative algebra over Z/p given by its nonzero structure constants.

    ``triples`` is the one stored multiplication: the rows [i, j, k, c],
    c != 0, with e_i * e_j = sum c e_k over the rows of (i, j), in C order
    of (i, j, k) and reduced mod p.  ``structure`` is its read-only dense
    view, ``structure[i, j, k]`` the e_k coefficient of e_i * e_j, built on
    first read and kept; an algebra built from a dense array (the
    constructor) keeps that array, reduced mod p, as its view, and
    ``Algebra.from_triples`` builds none until it is read.  The algebra is
    not required to be unital; ``identity`` is optional metadata naming a
    verified two-sided identity basis element.
    """

    field: PrimeField
    triples: np.ndarray
    basis_names: tuple[str, ...]
    identity: int | None = None
    name: str = ""

    def __init__(self, field: PrimeField, structure, basis_names: tuple[str, ...],
                 identity: int | None = None, name: str = ""):
        dense, dim = _as_array(structure, field.p), len(basis_names)
        if dense.shape != (dim, dim, dim):
            raise StructureError(
                f"structure tensor shape {dense.shape} does not match dim {dim}")
        self._set(field, triples_of(dense), basis_names, identity, name, dense)

    @classmethod
    def from_triples(cls, field: PrimeField, rows, basis_names: tuple[str, ...],
                     identity: int | None = None, name: str = "") -> Algebra:
        """The algebra whose structure tensor has the entries `rows`, each
        [i, j, k, c] given once (checked_triples)."""
        dim = len(basis_names)
        A = cls.__new__(cls)
        A._set(field, checked_triples(rows, (dim, dim, dim), field.p), basis_names,
               identity, name, None)
        return A

    def _set(self, field, triples, basis_names, identity, name, dense) -> None:
        for key, value in (("field", field), ("triples", triples),
                           ("basis_names", tuple(basis_names)), ("identity", identity),
                           ("name", name), ("_dense", dense), ("_by_k", None)):
            object.__setattr__(self, key, value)
        triples.setflags(write=False)
        check_word_size(self.dim, self.field.p)
        if self.identity is not None and not (0 <= self.identity < self.dim):
            raise StructureError("identity index out of range")
        if self.identity is not None and isinstance(self, LieAlgebra):
            raise StructureError("a Lie algebra has no identity")

    @property
    def structure(self) -> np.ndarray:
        """The dense view of ``triples``, built on first read."""
        if self._dense is None:
            dense = dense_of(self.triples, (self.dim,) * 3)
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def _k_order(self) -> tuple:
        """The columns i, j and c of the triples sorted by k, the distinct k
        and the start of each k's segment, built on first use and kept; ()
        when a sum over the longest segment can reach check_word_size's 2^63."""
        if self._by_k is None:
            i, j, k, c = self.triples[np.argsort(self.triples[:, 2], kind="stable")].T.copy()
            starts = np.flatnonzero(np.diff(k, prepend=-1))
            fits = int(np.diff(starts, append=len(k)).max(initial=0)) * (self.p - 1) ** 2 < 2 ** 63
            object.__setattr__(self, "_by_k", (i, j, c, k[starts], starts) if fits else ())
        return self._by_k

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

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products a b mod p of residue vectors; leading axes of a and
        b are batch axes and broadcast as in bilinear, so a[:, None] and
        b[None] give the product of every pair of rows.

        Below dim _TRIPLES_DIM, and where a segment sum could overflow
        (_k_order), this is bilinear on the dense view.  Otherwise it is
        read off the triples (i, j, k, c) sorted by k: the e_k coefficient
        is the segment sum over the triples of k of (a[i] c mod p) b[j]."""
        by_k = self._k_order() if self.dim >= _TRIPLES_DIM else ()
        if not by_k:
            return bilinear(a, b, self.structure, self.p)
        p, (i, j, c, _, _) = self.p, by_k
        x, y = np.take(a, i, axis=-1) * c % p, np.take(b, j, axis=-1)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = np.zeros(shape[:-1] + (self.dim,), dtype=np.int64)
        x, y = (v.reshape((1,) * (len(shape) - v.ndim) + v.shape) for v in (x, y))
        self._segment_sums(x, y, out)
        return out

    def _segment_sums(self, x, y, out) -> None:
        """Write the segment sums of x y, the gathered (a[i] c mod p) and
        b[j], into out: in one step if the products fit in _SWEEP_CELLS, else
        a chunk of the first batch axis longer than 1 at a time, each split
        again so.  Only one batch entry's products can exceed the bound; x
        and y hold the triple count times the entries of a and of b."""
        _, _, _, ks, starts = self._by_k
        shape = out.shape[:-1] + x.shape[-1:]
        ax = None if math.prod(shape) <= _SWEEP_CELLS else next(
            (n for n, size in enumerate(shape[:-1]) if size > 1), None)
        if ax is None:
            out[..., ks] = np.add.reduceat(x * y, starts, axis=-1) % self.p
            return
        step = sweep_step(math.prod(shape[ax + 1:]))
        for lo in range(0, shape[ax], step):
            at = (slice(None),) * ax + (slice(lo, lo + step),)
            self._segment_sums(*(v[at] if v.shape[ax] > 1 else v for v in (x, y)), out[at])

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"<{label} dim={self.dim} over Z/{self.p}>"


class LieAlgebra(Algebra):
    """Finite-dimensional Lie algebra by bracket structure constants, held
    as an Algebra's are: [e_i, e_j] = sum_k structure[i, j, k] e_k;
    ``identity`` is always None."""


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
        return Element(self.parent, self.coeffs + other.coeffs)

    def __sub__(self, other: Element) -> Element:
        self._check_parent(other)
        return Element(self.parent, self.coeffs - other.coeffs)

    def __neg__(self) -> Element:
        return Element(self.parent, -self.coeffs)

    def __mul__(self, other: Element) -> Element:
        self._check_parent(other)
        return Element(self.parent, self.parent.mul_vec(self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.parent is other.parent
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"Element({self.coeffs.tolist()})"


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
        (m, n), images = self.matrix.shape, self.matrix.T
        lhs = matmul(self.source.structure.reshape(n * n, n), images, self.source.p)
        rhs = self.target.mul_vec(images[:, None], images[None])
        return np.array_equal(lhs.reshape(n, n, m), rhs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Morphism) and self.source is other.source
                and self.target is other.target
                and np.array_equal(self.matrix, other.matrix))

    @staticmethod
    def identity(A: Algebra) -> Morphism:
        return Morphism(A, A, np.eye(A.dim, dtype=np.int64))

    @staticmethod
    def zero(A: Algebra, B: Algebra) -> Morphism:
        return Morphism(A, B, np.zeros((B.dim, A.dim), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Ideal:
    """Subspace of an algebra, an ideal when is_mult_closed, as its rref
    basis and pivots.  A basis already in rref is kept as given, reduced
    mod p, and any other is reduced once, so basis_matrix is rref(M)[0]
    for the M it is given; pivots is computed, never given."""

    parent: Algebra
    basis_matrix: np.ndarray
    pivots: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        R = _as_array(_rows(self.basis_matrix, self.parent.dim), self.parent.p)
        lead = (R != 0).argmax(axis=1) if len(R) else np.zeros(0, dtype=np.int64)
        # rref exactly when the leading columns strictly increase and carry
        # the identity; a zero row's leading entry, read at column 0, is 0
        if not ((np.diff(lead) > 0).all()
                and np.array_equal(R[:, lead], np.eye(len(R), dtype=np.int64))):
            R, lead = rref(R, self.parent.p)
        object.__setattr__(self, "basis_matrix", R)
        object.__setattr__(self, "pivots", tuple(map(int, lead)))

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearMap) and self.left is other.left
                and self.right is other.right and self.target is other.target
                and np.array_equal(self.tensor, other.tensor))

    @staticmethod
    def zero(left: Algebra, right: Algebra, target: Algebra) -> BilinearMap:
        return BilinearMap(left, right, target,
                           np.zeros((left.dim, right.dim, target.dim), dtype=np.int64))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple[int, ...]


# the three-index law of each carrier, (e_i e_j) e_l = e_i (e_j e_l) and
# [[e_i, e_j], e_l] + [[e_j, e_l], e_i] + [[e_l, e_i], e_j] = 0, as its
# name and terms (slot, r, sign): the products (e_a e_b) e_c when slot is 0
# and e_c (e_a e_b) when it is 1, read at (i, j, l) = (a, b, c), (c, a, b)
# or (b, c, a) for r = 0, 1 or 2
_LAWS = {False: ("associativity", ((0, 0, 1), (1, 1, -1))),
         True: ("jacobi", ((0, 0, 1), (0, 1, 1), (0, 2, 1)))}

# the law is swept on the triples from dim _LAW_DIM on, unless that costs
# more than the dense sweep, _JOIN_MADDS of whose multiply-adds cost as much
# as one product of two triples; below the floor the sparse sweep's fixed
# cost of about 0.25 ms, some 150 numpy calls, outweighs the dense one
_LAW_DIM = 10
_JOIN_MADDS = 256


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array of codes >= 0.  Not
    np.unique: numpy 2's reads np.ma.is_masked, and the first read imports
    numpy.ma, about 1 MiB and 10 ms in a fresh process."""
    return codes[np.diff(codes, prepend=-1) != 0]


def _nonzero_sums(codes: np.ndarray, values: np.ndarray, p: int) -> np.ndarray:
    """The distinct codes, ascending, whose values sum to nonzero mod p."""
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[starts][np.add.reduceat(values[order], starts) % p != 0]


def _products(t1: np.ndarray, t2: np.ndarray, slot: int, d: int, p: int):
    """For each row (a, b, m, x) of t1 and each row of t2 with m at position
    `slot`, its other index c, its target k and its coefficient y: the
    indices (a, b, c, k) and the value x y mod p of the e_k term of
    (e_a e_b) e_c when slot is 0, of e_c (e_a e_b) when it is 1."""
    t2 = t2[np.argsort(t2[:, slot], kind="stable")]
    starts = np.searchsorted(t2[:, slot], np.arange(d + 1))
    n = (starts[1:] - starts[:-1])[t1[:, 2]]
    rep = np.repeat(np.arange(len(t1)), n)
    q = np.arange(n.sum()) + np.repeat(starts[t1[:, 2]] - np.cumsum(n) + n, n)
    return (t1[rep, 0], t1[rep, 1], t2[q, 1 - slot], t2[q, 2]), t1[rep, 3] * t2[q, 3] % p


def _law_sparse(t: np.ndarray, d: int, p: int, lie: bool) -> list | None:
    """The triples (i, j, l), in C order, at which the carrier's law fails,
    each Jacobi class at its leader, formed from the products of pairs of
    triples alone, a chunk of i at a time: both sides vanish unless e_i e_j
    or e_j e_l is a nonzero product.  None below dim _LAW_DIM and when those
    products cost more than the dense sweep."""
    if d < _LAW_DIM:
        return None
    terms = _LAWS[lie][1]
    # each term's rows at i come from the t1 rows with a = i (r = 0) or
    # b = i (r = 2), or from the t2 rows whose other index is i (r = 1)
    select = [(0, 0) if r == 0 else (0, 1) if r == 2 else (1, 1 - slot) for slot, r, _ in terms]
    per_i = np.zeros(d)
    for (slot, _, _), (side, col) in zip(terms, select):
        meet, count = (2, slot)[side], (slot, 2)[side]
        weights = np.bincount(t[:, count], minlength=d)[t[:, meet]]
        per_i += np.bincount(t[:, col], weights=weights, minlength=d)
    if per_i.sum() * _JOIN_MADDS > d ** 5:
        return None
    out, lo, total = [], 0, np.cumsum(per_i)
    while lo < d:
        hi = max(lo + 1, int(np.searchsorted(total, total[lo] - per_i[lo] + _SWEEP_CELLS, "right")))
        codes, values = [], []
        for (slot, r, sign), (side, col) in zip(terms, select):
            sel = t[(t[:, col] >= lo) & (t[:, col] < hi)]
            abc, v = _products(*((sel, t) if side == 0 else (t, sel)), slot, d, p)
            i, j, l = abc[-r % 3], abc[(1 - r) % 3], abc[(2 - r) % 3]
            keep = (i < j) & (i < l) | (i == j) & (i <= l) if lie else slice(None)
            codes.append((((i * d + j) * d + l) * d + abc[3])[keep])
            values.append((v if sign > 0 else p - v)[keep])
        trips = _distinct(_nonzero_sums(np.concatenate(codes), np.concatenate(values), p) // d)
        out += [tuple(map(int, x)) for x in zip(*np.unravel_index(trips, (d, d, d)))]
        lo = hi
    return out


def _law_dense(c: np.ndarray, d: int, p: int, lie: bool) -> list:
    """_law_sparse's triples from the dense tensor c, one i-chunk at a time:
    (e_i e_j) e_l at [i, j, l] against e_i (e_j e_l) or against
    -[[e_j, e_l], e_i] - [[e_l, e_i], e_j]; Jacobi forms only j, l >= s,
    since a triple leads its cyclic class only if i <= j, l."""
    out, step = [], sweep_step(d ** 3)
    for s in range(0, d, step):
        n, lo = min(step, d - s), s if lie else 0
        e = d - lo
        tail = c[:, lo:].reshape(d, e * d)
        ijl = matmul(c[s:s + n, lo:].reshape(n * e, d), tail, p).reshape(n, e, e, d)
        if lie:
            jli = matmul(c[s:, s:].reshape(e * e, d), c[:, s:s + n].reshape(d, n * d), p)
            lij = matmul(c[s:, s:s + n].reshape(e * n, d), tail, p).reshape(e, n, e, d)
            other = -(jli.reshape(e, e, n, d).transpose(2, 0, 1, 3)
                      + lij.transpose(1, 2, 0, 3)) % p
        else:
            other = matmul(c.reshape(d * d, d), c[s:s + n], p).reshape(n, d, d, d)
        for i, j, l in zip(*np.nonzero((ijl != other).any(axis=3))):
            trip = (s + int(i), lo + int(j), lo + int(l))
            if not lie or trip == min(trip, trip[1:] + trip[:1], trip[2:] + trip[:2]):
                out.append(trip)
    return out


def validate_algebra(A: Algebra) -> list[Violation]:
    """The violations of the laws of A's carrier, empty iff A is valid: on an
    Algebra commutativity (i <= j), associativity and the identity; on a
    LieAlgebra, read with the bracket, alternating ([e_i, e_i] = 0, which
    also covers characteristic 2), antisymmetry (i < j) and Jacobi, one
    witness per cyclic class.  Every law but the three-index one is read on
    the triples; that one too (_law_sparse) unless the products of pairs of
    triples cost more than the dense sweep (_law_dense)."""
    lie = isinstance(A, LieAlgebra)
    p, t, d = A.p, A.triples, A.dim
    i, j, k, c = t.T
    out = [Violation("alternating", (int(x),)) for x in _distinct(i[i == j])] if lie else []
    # c[i, j, k] - c[j, i, k], or + on a Lie algebra, at the pairs (i, j)
    two = _nonzero_sums(np.concatenate([(i * d + j) * d + k, (j * d + i) * d + k]),
                        np.concatenate([c, c if lie else p - c]), p) // max(d, 1)
    for x, y in zip(*np.unravel_index(_distinct(two), (d, d))):
        if x < y or x == y and not lie:
            out.append(Violation("antisymmetry" if lie else "commutativity", (int(x), int(y))))
    law, _ = _LAWS[lie]
    trips = _law_sparse(t, d, p, lie)
    if trips is None:
        trips = _law_dense(A.structure, d, p, lie)
    out += [Violation(law, trip) for trip in trips]
    u = A.identity
    if u is not None:
        # e_u e_j = e_j e_u = e_j: the rows of u are (u, j, j, 1) and (j, u, j, 1)
        unit = np.c_[np.arange(d), np.arange(d), np.ones(d, dtype=np.int64)]
        if not (np.array_equal(t[t[:, 0] == u, 1:], unit)
                and np.array_equal(t[t[:, 1] == u][:, [0, 2, 3]], unit)):
            out.append(Violation("identity", (u,)))
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
    struct = matmul(A.structure[np.ix_(keep, keep)], proj.T, A.p)
    names = tuple(A.basis_names[j] for j in keep)
    unit = (None if A.identity is None or A.identity in I.pivots
            else int(np.searchsorted(keep, A.identity)))
    Q = type(A)(A.field, struct, names, unit, name or (A.name + "/I" if A.name else ""))
    pi = Morphism(A, Q, proj)
    if not pi.is_multiplicative():
        raise PreconditionError("projection failed multiplicativity: subspace not an ideal")
    if kernel(pi) != I:
        raise PreconditionError("projection kernel differs from the ideal")
    return Q, pi


def subalgebra(A: Algebra, I: Ideal, name: str = "") -> tuple[Algebra, Morphism]:
    """Algebra structure on a multiplication-closed subspace I of A plus
    the inclusion.

    The chosen basis is I's rref basis, read with its pivots and
    membership and reduced no further, so two calls on equal subspaces
    produce identical structure constants.
    """
    if I.parent is not A:
        raise StructureError("subspace of a different algebra")
    R = I.basis_matrix
    prods = A.mul_vec(R[:, None], R[None])
    if not I.contains(prods):
        raise PreconditionError("subspace not closed under multiplication")
    struct = prods[..., list(I.pivots)]
    r = R.shape[0]
    eye = np.eye(r, dtype=np.int64)
    # a Lie algebra has no identity
    unit = np.flatnonzero((struct == eye).all(axis=(1, 2)) & (not isinstance(A, LieAlgebra))
                          & (struct.transpose(1, 0, 2) == eye).all(axis=(1, 2)))
    names = tuple(f"{name or 'v'}{i}" for i in range(r))
    S = type(A)(A.field, struct, names, int(unit[0]) if unit.size else None, name)
    return S, Morphism(S, A, R.T)


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
    as the rows of one array, and whether they are all of it: all p^dim in
    lexicographic order within the bound, else supply.budget draws of
    random.Random(supply.seed); the zero space's supply is its zero vector."""
    every = dim == 0 or supply.is_exhaustive(dim, p)
    rng = random.Random(supply.seed)
    rows = (list(itertools.product(range(p), repeat=dim)) if every else
            [[rng.randrange(p) for _ in range(dim)] for _ in range(supply.budget)])
    return np.array(rows, dtype=np.int64).reshape(len(rows), dim), every


def algebras_equal(A: Algebra, B: Algebra) -> bool:
    """On-the-nose equality of presentations (prime, dim, structure, identity),
    read on the triples."""
    return (A.p == B.p and A.dim == B.dim
            and np.array_equal(A.triples, B.triples)
            and A.identity == B.identity)
