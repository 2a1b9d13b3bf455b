import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorekit import coeff, corpus
from moorekit.document import DocumentBuilder
from moorekit.coeff import (Algebra, BilinearMap, Element, Ideal, LieAlgebra, Morphism,
                            PreconditionError, PrimeField, StructureError,
                            Supply, algebras_equal, ideal_closure, kernel,
                            null_space, quadratic_points, quotient, rref, subalgebra,
                            supply_rows, validate_algebra)
from reference import elements, validate_algebra_dense, validate_lie_dense


def poly_mul_mod(a, b, rel, p):
    """Oracle: multiply coefficient lists modulo a monic relation x^n = rel."""
    n = len(a)
    out = [0] * (2 * n)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for d in range(2 * n - 1, n - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for t, r in enumerate(rel):
                out[d - n + t] = (out[d - n + t] + c * r) % p
    return out[:n]


def test_prime_field_rejects_composite():
    with pytest.raises(StructureError):
        PrimeField(6)


def test_mul_dual_numbers_nilpotent():
    A = corpus.dual_numbers(2)
    eps = A.basis_element(1)
    assert not (eps * eps).coeffs.any()
    assert not (A.zero() * eps).coeffs.any()


def test_mul_group_line_against_poly_oracle():
    # t^2 = 1 in Z/3[t]/(t^2 - 1); expected values from the polynomial oracle
    A = corpus.group_line(3)
    for a in itertools.product(range(3), repeat=2):
        for b in itertools.product(range(3), repeat=2):
            want = poly_mul_mod(list(a), list(b), [1, 0], 3)
            got = Element(A, a) * Element(A, b)
            assert list(got.coeffs) == want
    t = A.basis_element(1)
    assert t * t == A.basis_element(0)


@pytest.mark.parametrize("floor", [0, 32])
def test_mul_vec_reduces_after_each_contraction(floor, monkeypatch):
    # every coefficient is -1: each product coordinate is -(dim^2) mod p,
    # while one unreduced sum of dim^2 (p-1)^3 terms overflows int64; with
    # the triples' dim floor at 0 the segment sums are checked too
    monkeypatch.setattr(coeff, "_TRIPLES_DIM", floor)
    p, dim = 1000003, 4
    A = Algebra(PrimeField(p), np.full((dim, dim, dim), p - 1), tuple("abcd"))
    top = np.full(dim, p - 1)
    assert list(A.mul_vec(top, top)) == [p - dim * dim] * dim
    f = BilinearMap(A, A, A, A.structure)
    assert list(f(Element(A, top), Element(A, top)).coeffs) == [p - dim * dim] * dim


# a full tensor on the triples costs seconds per case, so it runs dense only
@pytest.mark.parametrize("path, kind", [("dense", "full"), ("dense", "sparse"),
                                        ("triples", "sparse"), ("dense", "zero"),
                                        ("triples", "zero"), ("dense", "lie"), ("triples", "lie")])
@pytest.mark.parametrize("floor", ["default", "all-float"])
@pytest.mark.parametrize("p", [2, 5, 7])
def test_mul_vec_equals_every_pair_product(p, floor, path, kind, monkeypatch):
    # a non-commutative full tensor, 5 % of it, no triples at all and a Lie
    # bracket, on either side of the triples' dim floor; sparse stacks of
    # several lengths, one empty, longer than one chunk of rows, multiplied
    # on every pair of rows; a vector by a vector, and three-axis grids as
    # crossed._evaluate passes them, one of them with a leading axis of 1
    if floor == "all-float":
        monkeypatch.setattr(coeff, "_BLAS_MADDS", 0)
    d = 40
    monkeypatch.setattr(coeff, "_TRIPLES_DIM", d + (path == "dense"))
    rng = np.random.default_rng(p)
    full = rng.integers(0, p, (d, d, d))
    sparse = full * (rng.random(full.shape) < 0.05)
    tensor = {"full": full, "sparse": sparse, "zero": 0 * full,
              "lie": sparse - sparse.transpose(1, 0, 2)}[kind]
    A = (LieAlgebra if kind == "lie" else Algebra)(PrimeField(p), tensor,
                                                    tuple(f"e{i}" for i in range(d)))
    stacks = {r: rng.integers(0, p, (r, d)) * (rng.random((r, d)) < 0.2) for r in (0, 1, 3, 50, 90)}
    jobs = [(50, 3), (3, 50), (90, 50), (1, 90), (0, 3), (3, 0), (50, 50), (1, 1)]
    pairs = [(stacks[a][:, None], stacks[b][None]) for a, b in jobs]
    pairs += [(stacks[3][0], stacks[3][1]),
              (stacks[3].reshape(3, 1, 1, d), stacks[50].reshape(1, 1, 50, d)),
              (stacks[50].reshape(1, 50, 1, d), stacks[90].reshape(1, 1, 90, d))]
    for x, y in pairs:
        half = np.einsum("...i,ijk->...jk", x, A.structure)
        want = np.einsum("...j,...jk->...k", y, half) % p
        got = A.mul_vec(x, y)
        assert got.shape == want.shape and np.array_equal(got, want), (x.shape, y.shape)


def test_mul_vec_contracts_densely_where_a_segment_sum_could_overflow(monkeypatch):
    # with the triples' floor at 0, at p = 2^31 - 1: the full dim-2 tensor
    # has segments of 4 triples, whose sums can reach 4 (p-1)^2 >= 2^63, so
    # it is contracted densely; the idempotents e_i e_i = e_i have segments
    # of one triple and are read off the triples; both are exact
    monkeypatch.setattr(coeff, "_TRIPLES_DIM", 0)
    dense, calls = coeff.bilinear, []
    monkeypatch.setattr(coeff, "bilinear", lambda *args: calls.append(args) or dense(*args))
    p = 2 ** 31 - 1
    top = np.full(2, p - 1)
    full = Algebra(PrimeField(p), np.full((2, 2, 2), p - 1), ("a", "b"))
    assert list(full.mul_vec(top, top)) == [p - 4] * 2 and len(calls) == 1
    idem = np.zeros((2, 2, 2), dtype=np.int64)
    idem[[0, 1], [0, 1], [0, 1]] = p - 1
    A = Algebra(PrimeField(p), idem, ("a", "b"))
    assert list(A.mul_vec(top, top)) == [p - 1] * 2 and len(calls) == 1


def test_mul_vec_bounds_its_steps_on_every_batch_axis():
    # products of every pair of columns per face, as extend_level asks for
    # them: one face alone is 40 x 40 x 2553 products, so the steps split
    # the face and the row axes too; a chunk of faces alone held 33 MB
    p, d = 5, 40
    rng = np.random.default_rng(0)
    t = rng.integers(0, p, (d, d, d)) * (rng.random((d, d, d)) < 0.05)
    A = Algebra(PrimeField(p), t, tuple(f"e{i}" for i in range(d)))
    cols = rng.integers(0, p, (4, d, d))
    A.mul_vec(cols[:1, :1, None], cols[:1, None])
    tracemalloc.start()
    try:
        got = A.mul_vec(cols[:, :, None], cols[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.einsum("fuj,fvk,jki->fuvi", cols, cols, t) % p
    assert np.array_equal(got, want)
    assert peak < 16 << 20, peak


def test_is_multiplicative_at_a_large_prime():
    # k^4 with orthogonal idempotents and the same algebra in a random basis:
    # the basis change is an isomorphism with entries up to p - 1, and twice
    # it is not multiplicative
    p, dim = 3000017, 4
    rng = np.random.default_rng(0)
    G = rng.integers(0, p, (dim, dim))
    # inverse of G over Z/p by reducing [G | I]
    R, piv = rref(np.hstack([G, np.eye(dim, dtype=np.int64)]), p)
    assert piv == tuple(range(dim))
    Ginv = R[:, dim:]
    K = Algebra(PrimeField(p), np.einsum("ij,jk->ijk", np.eye(dim, dtype=np.int64),
                                          np.eye(dim, dtype=np.int64)), tuple("abcd"))
    # f_a f_b = sum_i G[a,i] G[b,i] e_i, written in the basis f = G e
    struct = np.zeros((dim, dim, dim), dtype=object)
    for a in range(dim):
        for b in range(dim):
            e_coeffs = [int(G[a, i]) * int(G[b, i]) % p for i in range(dim)]
            struct[a, b] = [sum(e_coeffs[i] * int(Ginv[i, c]) for i in range(dim)) % p
                            for c in range(dim)]
    F = Algebra(PrimeField(p), struct.astype(np.int64), tuple("fghi"))
    iso = Morphism(K, F, Ginv.T)
    assert iso.is_multiplicative()
    assert not Morphism(K, F, (2 * Ginv.T) % p).is_multiplicative()


def test_word_size_limit_rejects_overflowing_primes():
    # 2^31 - 1 is prime: dim (p-1)^2 stays below 2^63 at dim 2, not at dim 3
    p = 2 ** 31 - 1
    A = Algebra(PrimeField(p), np.full((2, 2, 2), p - 1), ("a", "b"))
    top = np.full(2, p - 1)
    assert list(A.mul_vec(top, top)) == [p - 4] * 2
    with pytest.raises(StructureError):
        Algebra(PrimeField(p), np.zeros((3, 3, 3), dtype=np.int64), ("a", "b", "c"))


def test_mul_parent_mismatch():
    A, B = corpus.dual_numbers(2), corpus.dual_numbers(3)
    with pytest.raises(StructureError):
        A.basis_element(0) * B.basis_element(0)


def test_validate_algebra_accepts_quotient_ring():
    assert validate_algebra(corpus.dual_numbers(2)) == []
    assert validate_algebra(corpus.truncated_poly(5, 4)) == []


def test_validate_algebra_flags_asymmetry():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1  # c[1, 0, 0] stays 0
    A = Algebra(PrimeField(2), c, ("a", "b"))
    kinds = {(v.kind, v.indices) for v in validate_algebra(A)}
    assert ("commutativity", (0, 1)) in kinds


def test_validate_algebra_upper_triangular_matrices():
    # basis E11, E12, E22 of upper triangular 2x2 matrices; not commutative
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 0, 0] = 1  # E11 E11 = E11
    c[0, 1, 1] = 1  # E11 E12 = E12
    c[2, 2, 2] = 1  # E22 E22 = E22
    c[1, 2, 1] = 1  # E12 E22 = E12
    A = Algebra(PrimeField(2), c, ("E11", "E12", "E22"))
    bad = validate_algebra(A)
    assert any(v.kind == "commutativity" for v in bad)


def test_ideal_closure_examples():
    A = corpus.dual_numbers(2)
    assert ideal_closure(A, [A.zero()]).dim == 0
    I = ideal_closure(A, [A.basis_element(1)])
    assert I.dim == 1

    B = corpus.truncated_poly(2, 3)
    J = ideal_closure(B, [B.basis_element(1)])
    # closure of (x) in k[x]/(x^3) picks up x^2; fixed point checked by hand
    assert J.dim == 2
    assert J.contains(B.basis_element(2))
    assert not J.contains(B.basis_element(0))


def test_ideal_closure_idempotent_and_monotone():
    B = corpus.truncated_poly(3, 4)
    gens = [B.basis_element(2)]
    I = ideal_closure(B, gens)
    again = ideal_closure(B, [Element(B, r) for r in I.basis_matrix])
    assert I == again
    bigger = ideal_closure(B, gens + [B.basis_element(1)])
    assert bigger.contains(I.basis_matrix)


def test_quotient_by_zero_ideal_is_identity():
    A = corpus.dual_numbers(2)
    Q, pi = quotient(A, ideal_closure(A, [A.zero()]))
    assert Q.dim == A.dim
    assert np.array_equal(Q.structure, A.structure)
    assert np.array_equal(pi.matrix, np.eye(2, dtype=np.int64))


def test_quotient_dual_by_eps_is_base_field():
    A = corpus.dual_numbers(2)
    Q, pi = quotient(A, ideal_closure(A, [A.basis_element(1)]))
    assert Q.dim == 1 and Q.structure[0, 0, 0] == 1
    assert not pi(A.basis_element(1)).coeffs.any()


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_keeps_the_identity_when_it_is_a_representative(p):
    # Z/p by the zero ideal is Z/p again, unital
    A = corpus.zmod(p)
    Q, _ = quotient(A, Ideal(A, np.zeros((0, 1), dtype=np.int64)))
    assert (Q.dim, Q.identity) == (1, 0) and algebras_equal(Q, A)
    # k[x]/(x^2) by (x) is k, with the coset of 1 as its identity
    D = corpus.dual_numbers(p)
    Q, pi = quotient(D, ideal_closure(D, [D.basis_element(1)]))
    assert (Q.dim, Q.identity) == (1, 0)
    assert pi(D.basis_element(D.identity)) == Q.basis_element(Q.identity)
    # dividing by the whole algebra leaves no identity to keep
    Q, _ = quotient(D, ideal_closure(D, [D.basis_element(0)]))
    assert (Q.dim, Q.identity) == (0, None)


def test_quotient_cubic_by_square_matches_dual_numbers():
    # k[x]/(x^3) / (x^2): multiplication on coset representatives 1, x
    B = corpus.truncated_poly(2, 3)
    I = ideal_closure(B, [B.basis_element(2)])
    Q, pi = quotient(B, I)
    assert np.array_equal(Q.structure, corpus.dual_numbers(2).structure)
    assert kernel(pi) == I


def test_kernel_examples():
    A = corpus.dual_numbers(2)
    assert kernel(Morphism.identity(A)).dim == 0
    Z = corpus.zmod(2)
    assert kernel(Morphism.zero(A, Z)).dim == 2
    ev = Morphism(A, Z, np.array([[1, 0]]))  # evaluation at x = 0
    K = kernel(ev)
    assert K.dim == 1 and K.contains(A.basis_element(1))


def test_kernel_rejects_non_multiplicative():
    A = corpus.dual_numbers(2)
    Z = corpus.zmod(2)
    f = Morphism(A, Z, np.array([[0, 1]]))  # kills 1, keeps x: not multiplicative
    with pytest.raises(PreconditionError):
        kernel(f)


def test_supply_rows_exhaustive_and_sampled():
    rows, every = supply_rows(1, 2)
    assert rows.tolist() == [[0], [1]] and every
    rows, every = supply_rows(2, 2)
    assert len(rows) == 4 and every

    run1, every = supply_rows(20, 2)
    assert run1.shape == (256, 20) and not every
    assert np.array_equal(run1, supply_rows(20, 2)[0])
    assert not np.array_equal(run1, supply_rows(20, 2, Supply(seed=1))[0])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_quadratic_points_decide_linear_plus_quadratic_maps(p, dim):
    eye = np.eye(dim, dtype=np.int64)
    want = [*eye, *((p - 1) * eye if p > 2 else []),
            *(eye[i] + eye[j] for i, j in itertools.combinations(range(dim), 2))]
    rows = quadratic_points(dim, p)
    assert rows.shape[1] == dim and rows.tolist() == [list(v) for v in want]
    every = np.array(list(itertools.product(range(p), repeat=dim)),
                     dtype=np.int64).reshape(p ** dim, dim)
    rng = np.random.default_rng(10 * p + dim)
    verdicts = set()
    for _ in range(100):
        lin = rng.integers(0, p, dim) * (rng.random(dim) < 0.3)
        quad = rng.integers(0, p, (dim, dim)) * (rng.random((dim, dim)) < 0.3)

        def f(v):
            return (v @ lin + np.einsum("ni,ij,nj->n", v, quad, v)) % p

        verdicts.add(not f(every).any())
        assert (not f(rows).any()) == (not f(every).any())
    assert verdicts == ({True} if dim == 0 else {True, False})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_commutative_associative_on_enumerated_elements(p):
    for A in (corpus.dual_numbers(p), corpus.group_line(p), corpus.truncated_poly(p, 3)):
        assert validate_algebra(A) == []
        elts = list(elements(A, Supply(budget=16, exhaustive_bound=128)))
        for x in elts[:8]:
            for y in elts[:8]:
                assert x * y == y * x
                for z in elts[:4]:
                    assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_projection_is_multiplicative_with_kernel(p):
    B = corpus.truncated_poly(p, 4)
    I = ideal_closure(B, [B.basis_element(2)])
    Q, pi = quotient(B, I)
    for x in list(elements(B, Supply(budget=20)))[:20]:
        for y in list(elements(B, Supply(budget=20, seed=1)))[:20]:
            assert pi(x) * pi(y) == pi(x * y)
    assert kernel(pi) == I


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_property_ring_laws_truncated_poly(a, b, c):
    A = corpus.truncated_poly(5, 3)
    x, y, z = Element(A, a), Element(A, b), Element(A, c)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_property_ideal_closure_contains_generator(vec):
    A = corpus.truncated_poly(3, 4)
    g = Element(A, vec)
    I = ideal_closure(A, [g])
    assert I.contains(g)
    assert I.is_mult_closed()


@pytest.mark.parametrize("p", [2, 5])
def test_batched_elements_broadcast_like_single_ones(p):
    rng = np.random.default_rng(p)
    A = corpus.group_line(p) if p != 2 else corpus.dual_numbers(2)
    f = Morphism(A, A, rng.integers(0, p, (A.dim, A.dim)))
    g = BilinearMap(A, A, A, rng.integers(0, p, (A.dim, A.dim, A.dim)))
    xs, ys = rng.integers(0, p, (4, A.dim)), rng.integers(0, p, (3, A.dim))
    X, Y = Element(A, xs[:, None]), Element(A, ys[None])
    for op in (lambda a, b: a * b, lambda a, b: a - b, lambda a, b: a + -b,
               lambda a, b: g(f(a), b)):
        batch = op(X, Y).coeffs
        assert batch.shape == (4, 3, A.dim)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert np.array_equal(batch[i, j], op(Element(A, x), Element(A, y)).coeffs)


# ---------------------------------------------------------------------------
# the zero algebra, empty generator stacks, and canonical rref


def test_zero_dimensional_algebra_subspaces():
    Z0 = corpus.square_zero(2, 0)
    assert Z0.dim == 0
    I = ideal_closure(Z0, [])
    assert I.dim == 0 and I.basis_matrix.shape == (0, 0)
    assert ideal_closure(Z0, np.zeros((3, 0), dtype=np.int64)) == I
    assert ideal_closure(Z0, [Z0.zero()]) == I
    Q, pi = quotient(Z0, I)
    assert Q.dim == 0 and pi.matrix.shape == (0, 0)
    S, incl = subalgebra(Z0, Ideal(Z0, np.zeros((0, 0), dtype=np.int64)))
    assert S.dim == 0 and S.identity is None and incl.matrix.shape == (0, 0)
    assert null_space(np.zeros((0, 0), dtype=np.int64), 2).shape == (0, 0)
    assert null_space(np.zeros((4, 0), dtype=np.int64), 2).shape == (0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_empty_generator_stacks(p):
    B = corpus.truncated_poly(p, 3)
    zero = ideal_closure(B, [B.zero()])
    for gens in ([], np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0, 3), dtype=np.int64),
                 Element(B, np.zeros((0, 3), dtype=np.int64))):
        assert ideal_closure(B, gens) == zero
    assert zero.basis_matrix.shape == (0, 3)
    Q, pi = quotient(B, zero)
    assert np.array_equal(Q.structure, B.structure)
    S, incl = subalgebra(B, Ideal(B, np.zeros((0, 3), dtype=np.int64)))
    assert S.dim == 0 and incl.matrix.shape == (3, 0)
    assert np.array_equal(null_space(np.zeros((0, 3), dtype=np.int64), p),
                          np.eye(3, dtype=np.int64))
    assert zero.contains(np.zeros((0, 3), dtype=np.int64))
    assert zero.coords(np.zeros((2, 3), dtype=np.int64)).shape == (2, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_stacked_membership_and_coordinates(p):
    B = corpus.truncated_poly(p, 4)
    I = ideal_closure(B, [B.basis_element(2)])  # (x^2) = span(x^2, x^3)
    inside = np.array([[0, 0, 1, 1], [0, 0, p - 1, 0]], dtype=np.int64)
    assert I.contains(inside) and I.contains(inside[None, :, :])
    assert not I.contains(np.vstack([inside, [[0, 1, 0, 0]]]))
    assert np.array_equal(I.coords(inside[:, None]), inside[:, None][..., [2, 3]])
    with pytest.raises(StructureError):
        I.coords(np.vstack([inside, [[1, 0, 0, 0]]]))


def _reference_rref(rows, p):
    """Gauss-Jordan elimination over Z/p on Python integers, one row at a time."""
    A = [[int(x) % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 3000017]), m=st.integers(0, 7), n=st.integers(1, 7),
       rank=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_property_rref_is_canonical_under_row_mixing(p, m, n, rank, seed):
    rng = np.random.default_rng(seed)
    # m rows spanning a space of dimension at most rank
    A = rng.integers(0, p, (m, min(rank, n))) @ rng.integers(0, p, (min(rank, n), n)) % p
    R, pivots = rref(A, p)
    want_rows, want_pivots = _reference_rref(A.tolist(), p)
    assert pivots == want_pivots
    assert R.tolist() == want_rows and R.shape == (len(pivots), n)
    # an invertible mixing of the rows, with a row permutation, has the same rref
    G = rng.integers(0, p, (m, m))
    while rref(G, p)[0].shape[0] < m:
        G = rng.integers(0, p, (m, m))
    mixed = G[rng.permutation(m)] @ A % p
    R2, pivots2 = rref(mixed, p)
    assert pivots2 == pivots and np.array_equal(R2, R)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 3000017]), m=st.integers(0, 7), n=st.integers(1, 7),
       density=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_property_null_space_rows_lead_at_the_rref_pivots(p, m, n, density, seed):
    # multiplication_cm reads the pivots of a null_space basis off the
    # leading column of each row instead of reducing the basis again
    rng = np.random.default_rng(seed)
    basis = null_space(rng.integers(0, p, (m, n)) * (rng.random((m, n)) < density), p)
    R, pivots = rref(basis, p)
    assert np.array_equal(basis, R)
    assert tuple(int(np.flatnonzero(row)[0]) for row in basis) == pivots


def _near_rref(R, p, rng) -> list:
    """Mutants of an rref basis R, each in rref but for one flaw: a leading
    2, a pivot column left uncleared, two rows swapped, a zero row and a
    repeated row; those R is too short for are left out."""
    out = []
    if len(R):
        r = rng.integers(len(R))
        if p > 2:
            out.append(np.vstack([R[:r], 2 * R[r] % p, R[r + 1:]]))
        out.append(np.insert(R, r, 0, axis=0))
        out.append(np.insert(R, r, R[r], axis=0))
    if len(R) > 1:
        r, t = sorted(rng.choice(len(R), 2, replace=False))
        uncleared = R.copy()
        uncleared[r] = (R[r] + R[t]) % p
        out += [uncleared, R[[*range(r), t, *range(r + 1, t), r, *range(t + 1, len(R))]]]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 3000017]), m=st.integers(0, 7), n=st.integers(0, 7),
       rank=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_property_ideal_has_the_rref_basis_and_pivots(p, m, n, rank, seed):
    rng = np.random.default_rng(seed)
    A = Algebra(PrimeField(p), np.zeros((n, n, n), dtype=np.int64), tuple(f"e{i}" for i in range(n)))
    k = min(rank, n)
    M = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
    R = rref(M, p)[0]
    for given in [M, R, *_near_rref(R, p, rng)]:
        ideal = Ideal(A, given)
        want, pivots = rref(given, p)
        assert np.array_equal(ideal.basis_matrix, want) and ideal.pivots == pivots


def test_ideal_keeps_an_rref_basis_without_reducing_it(monkeypatch):
    A = corpus.truncated_poly(3, 4)
    R, pivots = rref(np.array([[1, 2, 0, 0], [0, 0, 1, 5]]), 3)

    def refuse(mat, p):
        raise AssertionError("rref called")

    monkeypatch.setattr(coeff, "rref", refuse)
    ideal = Ideal(A, R)
    assert np.array_equal(ideal.basis_matrix, R) and ideal.pivots == pivots == (0, 2)
    assert Ideal(A, np.zeros((0, 4), dtype=np.int64)).pivots == ()
    with pytest.raises(AssertionError, match="rref called"):
        Ideal(A, R[::-1])


def test_ideal_pivots_are_computed_not_given():
    A = corpus.truncated_poly(2, 3)
    with pytest.raises(TypeError):
        Ideal(A, np.eye(3, dtype=np.int64), pivots=())


# ---------------------------------------------------------------------------
# the exact product, rref and the ideal closure against references

MATMUL_SHAPES = [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((2, 1, 3, 4), (5, 4, 2)),
                 ((4,), (4, 5)), ((3, 4), (4,)), ((0, 4), (4, 5)), ((3, 0), (0, 5)),
                 ((2, 0, 3, 4), (4, 5)), ((64, 128), (128, 128)), ((64, 128), (128, 127))]


@pytest.mark.parametrize("floor", ["default", "all-float", "all-int"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_matmul_equals_the_int64_product_mod_p(p, floor, monkeypatch):
    # the last two shapes sit at 2^20 multiply-adds and just below it
    if floor != "default":
        monkeypatch.setattr(coeff, "_BLAS_MADDS", 0 if floor == "all-float" else 1 << 62)
    rng = np.random.default_rng(p)
    for sa, sb in MATMUL_SHAPES:
        a = rng.integers(-p + 1, p, size=sa)  # residues of either sign
        b = rng.integers(0, p, size=sb)
        got = coeff.matmul(a, b, p)
        want = np.matmul(a, b) % p
        assert got.dtype == np.int64 and got.shape == want.shape, (sa, sb)
        assert np.array_equal(got, want), (sa, sb)


def test_matmul_keeps_int64_where_doubles_would_round():
    # k (p-1)^2 >= 2^53 at k = 10000; 1.2M multiply-adds lie above the floor
    p, k = 1000003, 10000
    assert k * (p - 1) ** 2 >= 2 ** 53 and 2 * k * 60 >= coeff._BLAS_MADDS
    rng = np.random.default_rng(0)
    a = rng.integers(p - 1000, p, size=(2, k))
    b = rng.integers(p - 1000, p, size=(k, 60))
    exact = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(coeff.matmul(a, b, p), exact.astype(np.int64))
    rounded = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    assert not np.array_equal(rounded, exact.astype(np.int64))


def _rref_rank_one(mat, p):
    """rref with every pivot column cleared from all rows by one rank-1
    update, as before the targeted clearing."""
    A = np.array(mat, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.shape[0] > A.shape[1]:
        A = A[A.any(axis=1)]
    m, n = A.shape
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        below = A[row:, col].nonzero()[0]
        if not below.size:
            continue
        piv = row + below[0]
        pivot = A[piv] * pow(int(A[piv, col]), p - 2, p) % p
        A[piv] = A[row]
        A -= A[:, col, None] * pivot
        A[row] = pivot
        A %= p
        pivots.append(col)
    return A[:len(pivots)], tuple(pivots)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_matches_the_rank_one_reference(p):
    rng = np.random.default_rng(100 + p)
    for m, n, rank in [(5, 8, 5), (8, 5, 5), (20, 6, 3), (6, 20, 2), (12, 12, 7),
                       (1, 4, 1), (4, 4, 0), (30, 9, 9), (9, 30, 4)]:
        for _ in range(5):
            mat = rng.integers(0, p, size=(m, rank)) @ rng.integers(0, p, size=(rank, n)) % p
            R, piv = rref(mat, p)
            R0, piv0 = _rref_rank_one(mat, p)
            assert piv == piv0 and np.array_equal(R, R0), (m, n, rank)


def _naive_closure(A, gens):
    """span U span * (basis of A) to a fixed point, multiplying every row
    of the span in every round."""
    span = rref(np.vstack([np.zeros((0, A.dim), dtype=np.int64), gens]), A.p)[0]
    while True:
        prods = np.tensordot(span, A.structure, axes=([1], [1])).reshape(-1, A.dim) % A.p
        grown = rref(np.vstack([span, prods]), A.p)[0]
        if grown.shape == span.shape:
            return span
        span = grown


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ideal_closure_matches_the_naive_fixed_point(p, monkeypatch):
    rng = np.random.default_rng(p)
    rand = Algebra(PrimeField(p), rng.integers(0, p, size=(7, 7, 7)) * (rng.random((7, 7, 7)) < 0.1),
                   tuple(f"e{i}" for i in range(7)))
    algebras = [corpus.truncated_poly(p, 5), corpus.group_line(p), rand]
    algebras += [E.level(n) for E in corpus.simplicial_corpus(p, {"cubic-chain"}).values()
                 for n in (2, 3)]
    for cells in (1 << 16, 7):  # one chunk of A's basis per round, then one element each
        monkeypatch.setattr(coeff, "_SWEEP_CELLS", cells)
        for A in algebras:
            for r in (0, 1, 2):
                gens = rng.integers(0, p, size=(r, A.dim))
                got = ideal_closure(A, gens)
                assert np.array_equal(got.basis_matrix, _naive_closure(A, gens)), (A, r)
                assert got.is_mult_closed()


@pytest.mark.parametrize("p", [2, 3])
def test_validate_algebra_lists_violations_in_the_einsum_order(p, monkeypatch):
    rng = np.random.default_rng(p)
    d = 5
    struct = rng.integers(0, p, size=(d, d, d))
    A = Algebra(PrimeField(p), struct, tuple(f"e{i}" for i in range(d)), 0)
    want = [(v.kind, v.indices) for v in validate_algebra_dense(A)]
    assert want[-1] == ("identity", (0,))
    assert sum(kind == "associativity" for kind, _ in want) > 10
    for cells in (1 << 16, 7):  # all of i in one chunk, then one i per chunk
        monkeypatch.setattr(coeff, "_SWEEP_CELLS", cells)
        assert [(v.kind, v.indices) for v in validate_algebra(A)] == want


def _random_levels(p, d, density, rng):
    """Random structure tensors of both carriers: a raw and an antisymmetrised
    bracket, a raw product with no identity, a symmetrised one with a true
    identity, and a raw one claiming an identity it may not have."""
    t = rng.integers(0, p, (d, d, d)) * (rng.random((d, d, d)) < density)
    names, fld = tuple(f"e{i}" for i in range(d)), PrimeField(p)
    anti = t - t.transpose(1, 0, 2)
    sym = t + t.transpose(1, 0, 2)
    unit = int(rng.integers(0, d)) if d else None
    if d:
        sym[unit] = sym[:, unit] = np.eye(d, dtype=np.int64)
    return [LieAlgebra(fld, t, names), LieAlgebra(fld, anti, names), Algebra(fld, t, names),
            Algebra(fld, sym, names, unit), Algebra(fld, t, names, unit)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_validate_algebra_equals_the_dense_reference_of_its_carrier(p, monkeypatch):
    rng = np.random.default_rng(p)
    cases = [A for d in range(9) for density in (0.05, 0.3, 1)
             for A in _random_levels(p, d, density, rng)]
    want = [(validate_lie_dense if isinstance(A, LieAlgebra) else validate_algebra_dense)(A)
            for A in cases]
    kinds = {v.kind for bad in want for v in bad}
    assert kinds >= {"alternating", "antisymmetry", "jacobi", "commutativity",
                     "associativity", "identity"}
    assert sum(not bad for bad in want) > len(cases) // 10
    for cells in (1 << 16, 7):  # all of i in one chunk, then one i per chunk
        monkeypatch.setattr(coeff, "_SWEEP_CELLS", cells)
        assert [validate_algebra(A) for A in cases] == want


@pytest.mark.parametrize("path", ["triples", "dense"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_both_law_sweeps_equal_the_dense_reference(p, path, monkeypatch):
    # _LAW_DIM and _JOIN_MADDS 0 sweep every law on the triples, _JOIN_MADDS 2^62
    # every nonzero one densely; sparse levels of dim 40 take several chunks
    # of i at the default _SWEEP_CELLS
    monkeypatch.setattr(coeff, "_LAW_DIM", 0)
    monkeypatch.setattr(coeff, "_JOIN_MADDS", 0 if path == "triples" else 1 << 62)
    rng = np.random.default_rng(10 + p)
    cases = [A for d in range(9) for density in (0.05, 0.3, 1)
             for A in _random_levels(p, d, density, rng)]
    cases += _random_levels(p, 40, 0.002, rng)
    for cells in (1 << 16, 7):
        monkeypatch.setattr(coeff, "_SWEEP_CELLS", cells)
        for A in cases if cells > 7 else cases[:-5]:
            want = (validate_lie_dense if isinstance(A, LieAlgebra) else validate_algebra_dense)(A)
            assert validate_algebra(A) == want, (A, cells)


def _dumped(A: Algebra) -> str:
    b = DocumentBuilder()
    b.algebra(A, "A", "lie_algebras" if isinstance(A, LieAlgebra) else "algebras")
    return b.dumps()


@pytest.mark.parametrize("cls", [Algebra, LieAlgebra])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_an_algebra_born_from_triples_equals_one_born_dense(p, cls):
    # unreduced coefficients, some of them 0 mod p, given in a shuffled order
    rng = np.random.default_rng(p)
    sizes = [(d, density) for d in range(9) for density in (0.05, 0.3, 1)]
    for d, density in sizes + [(40, 0.002), (55, 0.001), (70, 0.0005)]:
        t = rng.integers(-2 * p, 2 * p, (d, d, d)) * (rng.random((d, d, d)) < density)
        names = tuple(f"e{i}" for i in range(d))
        rows = np.column_stack([np.argwhere(t), t[t != 0]])
        dense = cls(PrimeField(p), t, names)
        born = cls.from_triples(PrimeField(p), rows[rng.permutation(len(rows))], names)
        assert np.array_equal(born.triples, dense.triples), (d, density)
        assert np.array_equal(born.structure, dense.structure)
        assert np.array_equal(dense.structure, t % p)
        assert not born.structure.flags.writeable and not born.triples.flags.writeable
        assert algebras_equal(born, dense) and algebras_equal(dense, born)
        x, y = rng.integers(0, p, (2, 6, d))
        assert np.array_equal(born.mul_vec(x[:, None], y[None]), dense.mul_vec(x[:, None], y[None]))
        assert _dumped(born) == _dumped(dense)
