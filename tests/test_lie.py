import numpy as np
import pytest

from moorekit.coeff import BilinearMap, Morphism, PrimeField
from moorekit.crossed import CrossedChain, zero_extension
from moorekit.lie import (LieAlgebra, _lie_action_laws, degenerate_lie_3cm, lie_abelian,
                          lie_heisenberg, validate_lie, verify_lie_3cm, verify_lie_crossed,
                          verify_lie_2cm)
from reference import named_entry


def test_validate_lie_abelian_and_heisenberg():
    assert validate_lie(lie_abelian(3, 4)) == []
    for p in (2, 3, 5):
        assert validate_lie(lie_heisenberg(p)) == []


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
    kinds = [v.kind for v in validate_lie(bad)]
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
    assert any(v.kind == "jacobi" for v in validate_lie(bad))


def test_lie_action_laws():
    L = lie_heisenberg(3)
    adj = BilinearMap(L, L, L, L.structure)  # adjoint action is a Lie action
    entry = _lie_action_laws("lie-action", adj)
    assert (entry.status, entry.checked, entry.witness) == ("pass", 3 ** 4, None)
    bad = BilinearMap(L, L, L, np.ones((3, 3, 3), dtype=np.int64))
    entry = _lie_action_laws("lie-action", bad)
    # x.[x, x] = 0, but [x.x, x] + [x, x.x] = [x+y+z, x] + [x, x+y+z] = 0 too;
    # [x, x].x = 0 against x.(x.x) - x.(x.x) = 0: the first tuple passes, and
    # x.[x, y] = x.z = x+y+z against [x+y+z, y] + [x, x+y+z] = 2z fails
    assert entry.status == "fail"
    assert entry.witness == {"arg0": [1, 0, 0], "arg1": [1, 0, 0],
                             "arg2": [1, 0, 0], "arg3": [0, 1, 0]}


def test_verify_lie_crossed_inclusion():
    # abelian ideal inside heisenberg: span(y, z) with the adjoint action
    L = lie_heisenberg(3)
    sub = lie_abelian(3, 2)  # coordinates (y, z)
    incl = Morphism(sub, L, np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64))
    act = np.zeros((3, 2, 2), dtype=np.int64)
    act[0, 0, 1] = 1  # [x, y] = z
    rep = verify_lie_crossed(CrossedChain((L, sub), (incl,), {"01": BilinearMap(L, sub, sub, act)}))
    assert named_entry(rep, "LCM1").status == "pass"
    assert named_entry(rep, "lie-action").status == "pass"
    # LCM2 (Peiffer with brackets) fails: the abelianized ideal forgets [y,z]=0
    # but ad(y) z = 0 = [y,z], so it actually passes here
    assert rep.verdict == "pass"


def test_verify_lie_2cm_degenerate():
    zero = lie_abelian(3, 0)
    one = lie_abelian(3, 1)
    base = lie_heisenberg(3)
    rep = verify_lie_2cm(zero_extension(CrossedChain((base,)), 2, (one, zero)))
    assert rep.verdict == "pass"


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
    assert named_entry(rep, "lie-action-01").status == "fail"
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
