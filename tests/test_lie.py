import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from moorekit.coeff import (BilinearMap, Ideal, LieAlgebra, Morphism, PrimeField, StructureError,
                            matmul, quotient, rref, subalgebra, validate_algebra)
from moorekit.cli import parse_args, run_command
from moorekit.crossed import (SIGNATURES, CrossedChain, _action_laws, verify_2cm, verify_cm,
                              zero_extension)
from moorekit.document import DocumentBuilder
from moorekit.lie import degenerate_lie_3cm, lie_abelian, lie_heisenberg, verify_lie_3cm
from reference import named_entry, validate_lie_dense


def test_validate_lie_abelian_and_heisenberg():
    assert validate_algebra(lie_abelian(3, 4)) == []
    for p in (2, 3, 5):
        assert validate_algebra(lie_heisenberg(p)) == []


def _heisenberg_squared(p: int) -> LieAlgebra:
    """h + h on x1, y1, z1, x2, y2, z2, each [x, y] = z."""
    h, c = lie_heisenberg(p).structure, np.zeros((6, 6, 6), dtype=np.int64)
    c[:3, :3, :3] = c[3:, 3:, 3:] = h
    return LieAlgebra(PrimeField(p), c, ("x1", "y1", "z1", "x2", "y2", "z2"))


def test_quotient_and_subalgebra_of_a_lie_algebra_are_lie_algebras():
    L = _heisenberg_squared(3)
    z2 = Ideal(L, np.eye(6, dtype=np.int64)[5:])  # central
    Q, _ = quotient(L, z2)
    S, _ = subalgebra(L, Ideal(L, np.eye(6, dtype=np.int64)[[0, 1, 2, 5]]))
    for M in (Q, S):
        assert type(M) is LieAlgebra and M.identity is None
        assert M.structure.any() and validate_algebra(M) == []


def test_a_lie_algebra_refuses_an_identity():
    with pytest.raises(StructureError, match="no identity"):
        LieAlgebra(PrimeField(3), np.zeros((2, 2, 2), dtype=np.int64), ("a", "b"), 0)


def test_heisenberg_jacobi_by_hand():
    # [x,y] = z central: every iterated bracket of basis vectors vanishes,
    # so all Jacobi sums reduce to 0; enumerate the triples directly
    L = lie_heisenberg(5)
    for i in range(3):
        for j in range(3):
            for l in range(3):
                a, b, c = L.basis_element(i), L.basis_element(j), L.basis_element(l)
                total = (a * b) * c + (b * c) * a + (c * a) * b
                assert not total.coeffs.any()


def test_validate_lie_rejects_alternating_violation():
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 1] = 1  # [e0, e0] = e1
    bad = LieAlgebra(PrimeField(3), t, ("a", "b"))
    kinds = [v.kind for v in validate_algebra(bad)]
    assert "alternating" in kinds


def test_validate_lie_rejects_jacobi_violation():
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0, 1, 0] = 1
    t[1, 0, 0] = -1 % 5
    t[1, 2, 1] = 1
    t[2, 1, 1] = -1 % 5
    t[2, 0, 2] = 1
    t[0, 2, 2] = -1 % 5
    bad = LieAlgebra(PrimeField(5), t, ("x", "y", "z"))
    assert any(v.kind == "jacobi" for v in validate_algebra(bad))


def _gl_in_random_basis(n: int, p: int, rng) -> np.ndarray:
    """The bracket tensor of gl_n, [E_ij, E_kl] = d_jk E_il - d_li E_kj, in
    a random basis of dim n^2: a valid Lie algebra of no special shape."""
    d = n * n
    c = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        c[i * n + j, k * n + l, i * n + l] += j == k
        c[i * n + j, k * n + l, k * n + j] -= l == i
    while True:
        P = rng.integers(0, p, (d, d))
        R, pivots = rref(np.hstack([P, np.eye(d, dtype=np.int64)]), p)
        if pivots[:d] == tuple(range(d)):
            break
    Q = R[:, d:]  # P^-1: f_a = sum_i P[a, i] E_i and E_k = sum_b Q[k, b] f_b
    c = matmul(P, c.reshape(d, d * d), p).reshape(d, d, d)
    c = matmul(P, c.transpose(1, 0, 2).reshape(d, d * d), p).reshape(d, d, d)
    return matmul(c.transpose(1, 0, 2), Q, p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_validate_lie_witnesses_equal_the_dense_formula(n, p):
    # n = 5 gives dim 25, more than one i-chunk of the sweep
    rng = np.random.default_rng(100 * n + p)
    c = _gl_in_random_basis(n, p, rng)
    d = n * n
    mutants = [c, rng.integers(0, p, (d, d, d))]
    for _ in range(4):
        a, b, k = rng.integers(0, d, 3)
        one = c.copy()
        one[a, b, k] = (one[a, b, k] + 1) % p  # breaks antisymmetry as well
        both = one.copy()
        both[b, a, k] = (both[b, a, k] - 1) % p
        mutants += [one, both]
    found = set()
    for t in mutants:
        L = LieAlgebra(PrimeField(p), t, tuple(f"e{i}" for i in range(d)))
        got = validate_algebra(L)
        assert got == validate_lie_dense(L)
        found.update(v.kind for v in got)
    assert validate_algebra(LieAlgebra(PrimeField(p), c, tuple(f"e{i}" for i in range(d)))) == []
    assert "jacobi" in found and "antisymmetry" in found


def test_validate_lie_peak_memory_at_dim_50():
    rng = np.random.default_rng(3)
    d = 50
    L = LieAlgebra(PrimeField(3), rng.integers(0, 3, (d, d, d)), tuple(f"e{i}" for i in range(d)))
    tracemalloc.start()
    try:
        assert validate_algebra(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


def test_lie_action_laws():
    L = lie_heisenberg(3)
    adj = BilinearMap(L, L, L, L.structure)  # adjoint action is a Lie action
    entry = _action_laws("lie-action", adj)
    assert (entry.status, entry.checked, entry.witness) == ("pass", 3 ** 4, None)
    bad = BilinearMap(L, L, L, np.ones((3, 3, 3), dtype=np.int64))
    entry = _action_laws("lie-action", bad)
    # x.[x, x] = 0, but [x.x, x] + [x, x.x] = [x+y+z, x] + [x, x+y+z] = 0 too;
    # [x, x].x = 0 against x.(x.x) - x.(x.x) = 0: the first tuple passes, and
    # x.[x, y] = x.z = x+y+z against [x+y+z, y] + [x, x+y+z] = 2z fails
    assert entry.status == "fail"
    assert entry.witness == {"arg0": [1, 0, 0], "arg1": [1, 0, 0],
                             "arg2": [1, 0, 0], "arg3": [0, 1, 0]}


def test_verify_cm_lie_inclusion():
    # abelian ideal inside heisenberg: span(y, z) with the adjoint action
    L = lie_heisenberg(3)
    sub = lie_abelian(3, 2)  # coordinates (y, z)
    incl = Morphism(sub, L, np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64))
    act = np.zeros((3, 2, 2), dtype=np.int64)
    act[0, 0, 1] = 1  # [x, y] = z
    rep = verify_cm(CrossedChain((L, sub), (incl,), {"01": BilinearMap(L, sub, sub, act)}))
    assert named_entry(rep, "CM1").status == "pass"
    assert named_entry(rep, "action-algebra").status == "pass"
    # CM2 (Peiffer with brackets) fails: the abelianized ideal forgets [y,z]=0
    # but ad(y) z = 0 = [y,z], so it actually passes here
    assert rep.verdict == "pass"


def test_verify_2cm_lie_degenerate():
    zero = lie_abelian(3, 0)
    one = lie_abelian(3, 1)
    base = lie_heisenberg(3)
    rep = verify_2cm(zero_extension(CrossedChain((base,)), 2, (one, zero)))
    assert rep.verdict == "pass"


def abelian_chain(dims, boundary, action, name="") -> CrossedChain:
    """The Lie chain over Z/3 on abelian levels of the dims, every boundary
    and map zero but boundary = (n, matrix of d_n) and action = (key, tensor)."""
    levels = [lie_abelian(3, d) for d in dims]
    zero = zero_extension(CrossedChain(levels[:1]), len(dims) - 1, levels[1:])
    (n, matrix), (key, tensor) = boundary, action
    d = Morphism(levels[n], levels[n - 1], np.array(matrix, dtype=np.int64))
    act = BilinearMap(*(levels[i] for i in SIGNATURES[key]), np.array(tensor, dtype=np.int64))
    return CrossedChain(zero.levels, zero.boundaries[:n - 1] + (d,) + zero.boundaries[n:],
                        {**zero.maps, key: act}, name)


def test_verify_2cm_finds_a_lie_d1_that_is_not_equivariant():
    # L0 abelian on z0, z1, L1 = <y>, L2 = 0, d1(y) = z0 and z1 . y = y:
    # d1(z1 . y) = z0, but [z1, d1(y)] = 0
    t = abelian_chain((2, 1, 0), (1, [[1], [0]]), ("01", [[[0]], [[1]]]))
    rep = verify_2cm(t)
    assert [e.name for e in rep.failing()] == ["d1-equivariant"]
    assert named_entry(rep, "d1-equivariant").witness == {"arg0": [0, 1], "arg1": [1]}


@pytest.mark.parametrize("n, key, dims, entry", [
    (3, "13", (0, 2, 1, 1), "3CM1/d2-equivariant"),
    (2, "12", (0, 2, 1, 0), "3CM1/d1-equivariant")])
def test_lie_verify_finds_a_boundary_that_is_not_equivariant(n, key, dims, entry, tmp_path):
    # L1 abelian on z0, z1, L_n = <y>, d_n(y) the first basis vector of
    # L_{n-1} and z1 . y = y: d_n(z1 . y) = d_n(y) != 0, but z1 . d_n(y) = 0
    matrix = [[1]] + [[0]] * (dims[n - 1] - 1)
    m = abelian_chain(dims, (n, matrix), (key, [[[0]], [[1]]]), "m")
    b = DocumentBuilder()
    b.crossed(m, "m", "lie_three_crossed")
    path = tmp_path / "chain.json"
    path.write_text(b.dumps())
    out = io.StringIO()
    assert run_command(parse_args(["--input", str(path), "lie-verify", "m"]), out) == 1
    records = {r["check"]: r for r in map(json.loads, out.getvalue().splitlines())}
    record = records[f"lie-verify[m]/{entry}"]
    assert record["status"] == "fail"
    assert record["witnesses"] == [{"arg0": [0, 1], "arg1": [1]}]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_lie_3cm_degenerate_corpus(p):
    for base in (lie_abelian(p, 2), lie_heisenberg(p)):
        rep = verify_lie_3cm(degenerate_lie_3cm(base))
        assert rep.verdict == "pass", [e.name for e in rep.failing()]


def test_verify_lie_3cm_mutant_fails_with_witness():
    # let the central element of heisenberg act nontrivially: the
    # homomorphism law [x,y].a = x.(y.a) - y.(x.a) breaks
    m = degenerate_lie_3cm(lie_heisenberg(3))
    L0, L1 = m.levels[:2]
    bad = np.zeros((3, 1, 1), dtype=np.int64)
    bad[2, 0, 0] = 1
    mutated = CrossedChain(m.levels, m.boundaries,
                           {**m.maps, "01": BilinearMap(L0, L1, L1, bad)}, "mutated")
    rep = verify_lie_3cm(mutated)
    assert named_entry(rep, "action-01-algebra").status == "fail"
    assert rep.verdict == "fail"


def test_verify_lie_3cm_lifting_mutant_fails():
    m = degenerate_lie_3cm(lie_heisenberg(3))
    # make the (1)(0) lifting land in a fattened L3 and perturb one entry
    L3 = lie_abelian(3, 1)
    L2 = lie_abelian(3, 1)
    chain = zero_extension(CrossedChain(m.levels[:2], m.boundaries[:1], {"01": m.map("01")}),
                           3, (L2, L3))
    t = np.zeros((1, 1, 1), dtype=np.int64)
    t[0, 0, 0] = 1
    # nonzero on a zero complex
    mutated = CrossedChain(chain.levels, chain.boundaries,
                           {**chain.maps, "(1)(0)": BilinearMap(L2, L2, L3, t)}, "mutant")
    rep = verify_lie_3cm(mutated)
    # the zero boundaries hide the lifting from 3CM4, but 3CM3 reads it raw:
    # {l2 (x) d2 m2}_(0)(2,1) = 0 while {l2 (x) m2}_(2)(1) - {l2 (x) m2}_(1)(0)
    # picks up the perturbation
    assert named_entry(rep, "3CM3").status == "fail"
    assert named_entry(rep, "3CM3").witness is not None
