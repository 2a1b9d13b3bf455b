import numpy as np
import pytest

from moorekit import corpus
from moorekit.coeff import (Algebra, BilinearMap, LieAlgebra, Morphism, PreconditionError,
                            annihilator, square_span)
from moorekit.crossed import (CrossedChain, _divide_top, multiplication_cm, verify_2cm,
                              verify_3cm, verify_cm, zero_extension)
from moorekit.functors import hypercrossed
from moorekit.lie import degenerate_lie_3cm, lie_heisenberg, verify_lie_3cm
from reference import cm_zero_module_bad, induced_cm, named_entry


# ---------------------------------------------------------------------------
# crossed modules


def test_verify_cm_ideal_pairs():
    for p in (2, 3, 5):
        for cm in (corpus.cm_ideal_dual(p), corpus.cm_ideal_cubic(p)):
            assert verify_cm(cm).verdict == "pass"


def test_verify_cm_zero_module_passes_when_square_zero():
    assert verify_cm(corpus.cm_zero_module(2)).verdict == "pass"


def test_verify_cm_zero_module_fails_cm2_with_witness():
    rep = verify_cm(cm_zero_module_bad(2))
    entry = named_entry(rep, "CM2")
    assert entry.status == "fail"
    assert entry.witness is not None  # c, c' with c c' != 0
    assert rep.verdict == "fail"


def test_ideal_pair_action_is_multiplication():
    cm = corpus.cm_ideal_dual(2)
    (R, C), action = cm.levels, cm.map("01")
    eps = R.basis_element(1)
    one = R.basis_element(0)
    c = C.basis_element(0)
    assert cm.d(1)(c) == eps
    assert action(one, c) == c
    assert not action(eps, c).coeffs.any()


def test_image_ideal_lemma_is_checked():
    for cm in (corpus.cm_ideal_cubic(3), corpus.cm_zero_module(3)):
        rep = verify_cm(cm)
        assert named_entry(rep, "image-is-ideal").status == "pass"
        assert named_entry(rep, "image-acts-trivially-on-kernel").status == "pass"


# ---------------------------------------------------------------------------
# multiplication crossed module


def test_multiplication_cm_zmod():
    cm = multiplication_cm(corpus.zmod(2))
    assert cm.levels[0].dim == 1  # M(Z/2) is one-dimensional
    assert np.array_equal(cm.d(1).matrix, np.eye(1, dtype=np.int64))
    assert verify_cm(cm).verdict == "pass"


@pytest.mark.parametrize("p", [3, 5])
def test_multiplication_cm_group_line(p):
    R = corpus.group_line(p)
    assert annihilator(R).shape[0] == 0  # unital, so Ann(R) = 0
    cm = multiplication_cm(R)
    assert cm.levels[0].dim == 2
    # mu injective since Ann(R) = 0
    from moorekit.coeff import null_space
    assert null_space(cm.d(1).matrix, p).shape[0] == 0
    assert verify_cm(cm).verdict == "pass"


def test_multiplication_cm_identity_multiplier():
    R = corpus.group_line(3)
    cm = multiplication_cm(R)
    one = R.basis_element(0)
    mu1 = cm.d(1)(one)
    for r in (R.basis_element(i) for i in range(R.dim)):
        assert cm.map("01")(mu1, r) == r  # delta_1 acts as the identity


def test_multiplication_cm_square_full_hypothesis():
    # square-zero algebra: Ann = everything and R^2 = 0, hypothesis fails
    with pytest.raises(PreconditionError):
        multiplication_cm(corpus.square_zero(2, 2))
    assert square_span(corpus.group_line(3)).shape[0] == 2


# ---------------------------------------------------------------------------
# 2-crossed modules


def test_verify_2cm_remark1_degeneration():
    t = zero_extension(corpus.cm_ideal_dual(2), 2)
    assert verify_2cm(t).verdict == "pass"


def test_zero_extension_builds_tops_of_the_base_carrier():
    lie = zero_extension(CrossedChain((lie_heisenberg(3),)), 3)
    assert [type(level) for level in lie.levels] == [LieAlgebra] * 4
    commutative = zero_extension(corpus.cm_ideal_dual(3), 3)
    assert [type(level) for level in commutative.levels] == [Algebra] * 4


def test_a_chain_refuses_levels_of_two_carriers():
    L = lie_heisenberg(3)
    C = corpus.square_zero(3, 1)
    with pytest.raises(PreconditionError, match="all algebras or all Lie algebras"):
        CrossedChain((L, C), (Morphism.zero(C, L),), {"01": BilinearMap.zero(L, C, C)})
    with pytest.raises(PreconditionError, match="all algebras or all Lie algebras"):
        zero_extension(CrossedChain((L,)), 2, (C, C))


def test_verify_2cm_corpus():
    for p in (2, 3):
        for t in corpus.two_crossed_corpus(p).values():
            assert verify_2cm(t).verdict == "pass"


def test_verify_2cm_detects_zeroed_lifting(built):
    # extraction from a length-2 object, then zero the lifting: 2CM1 breaks
    E = built("cubic-chain")
    t = hypercrossed(E, 2)[0]
    assert verify_2cm(t).verdict == "pass"
    _, C1, C2 = t.levels
    mutated = CrossedChain(t.levels, t.boundaries,
                           {**t.maps, "()": BilinearMap.zero(C1, C1, C2)}, "mutated")
    rep = verify_2cm(mutated)
    assert named_entry(rep, "2CM1").status == "fail"
    assert named_entry(rep, "2CM1").witness is not None


def test_induced_cm_zero_boundary_returns_same():
    t = zero_extension(corpus.cm_ideal_dual(2), 2)
    cm = induced_cm(t)
    assert cm.levels[1].dim == t.levels[1].dim
    assert np.array_equal(cm.d(1).matrix, t.d(1).matrix)
    assert verify_cm(cm).verdict == "pass"


def test_induced_cm_surjective_boundary_collapses():
    t = corpus.tcm_module_identity(2)  # d2 the identity, so image is all of C1
    cm = induced_cm(t)
    assert cm.levels[1].dim == 0
    assert verify_cm(cm).verdict == "pass"


def test_induced_cm_from_length_two_instance(built):
    t = hypercrossed(built("cubic-chain"), 2)[0]
    cm = induced_cm(t)
    assert verify_cm(cm).verdict == "pass"


def ones(shape, *entries) -> np.ndarray:
    """The zero array of the given shape with a 1 at each entry."""
    out = np.zeros(shape, dtype=np.int64)
    for e in entries:
        out[e] = 1
    return out


# the division of the top level by the image of the level above: each
# chain breaks one condition the division needs, or none
@pytest.mark.parametrize("broken,message", [
    ("ideal", "subspace is not an ideal"), ("boundary", "does not kill the divided ideal"),
    ("action", "induced map 01 ill-defined on cosets"), (None, None)])
def test_induced_cm_guards_the_division(broken, message):
    # C2 = <e> -> C1 = <m0, m1> -> C0 = Z/2 with d2(e) = m0, so I = <m0>
    def when(case, entry):
        return [entry] if broken == case else []

    C0, C2 = corpus.zmod(2), corpus.square_zero(2, 1)
    C1 = Algebra(C0.field, ones((2, 2, 2), *when("ideal", (0, 0, 1))), ("m0", "m1"))
    d1 = Morphism(C1, C0, ones((1, 2), *when("boundary", (0, 0))))
    act = BilinearMap(C0, C1, C1, ones((1, 2, 2), (0, 1, 1), *when("action", (0, 0, 1))))
    t = CrossedChain((C0, C1, C2), (d1, Morphism(C2, C1, ones((2, 1), (0, 0)))),
                     {"01": act, "02": BilinearMap.zero(C0, C2, C2),
                      "()": BilinearMap.zero(C1, C1, C2)})
    if broken is None:
        cm = induced_cm(t)
        assert cm.levels[1].basis_names == ("m1",) and cm.map("01").tensor.tolist() == [[[1]]]
        return
    with pytest.raises(PreconditionError, match=message):
        induced_cm(t)


@pytest.mark.parametrize("broken,message", [
    ("outside", "lies outside the top level"), ("boundary", "does not kill the divided ideal"),
    ("action", "induced map 23 ill-defined on cosets"), (None, None)])
def test_the_division_of_a_third_level_guards_it(broken, message):
    # C4 = <e> -> C3 = <m0, m1> -> C2 = <f> with d4(e) = m0, so I = <m0>; the
    # lifting (1)(0) is valued in C3 and only projected
    def when(case, entry):
        return [entry] if broken == case else []

    C2, C4, C3 = (corpus.square_zero(2, n) for n in (1, 1, 2))
    above = Morphism(C4, C3 if broken != "outside" else corpus.square_zero(2, 2), ones((2, 1), (0, 0)))
    d3 = Morphism(C3, C2, ones((1, 2), *when("boundary", (0, 0))))
    # the top of a 3-crossed module over C1 = C0 = 0 with every other map zero
    zero = Algebra(C2.field, np.zeros((0, 0, 0), dtype=np.int64), ())
    chain = zero_extension(CrossedChain((zero,)), 3, (zero, C2, C3))
    chain = CrossedChain(chain.levels, chain.boundaries[:2] + (d3,), {**chain.maps, **{
        "23": BilinearMap(C2, C3, C3, ones((1, 2, 2), *when("action", (0, 0, 1)))),
        "(1)(0)": BilinearMap(C2, C2, C3, ones((1, 1, 2), (0, 0, 0), (0, 0, 1)))}})
    if broken is None:
        divided = _divide_top(chain, above, np.eye(1, dtype=np.int64))
        Q = divided.levels[3]
        assert Q.basis_names == ("m1",) and divided.d(3).matrix.tolist() == [[0]]
        assert divided.map("(1)(0)").tensor.tolist() == [[[1]]]
        assert divided.map("23").left is C2 and divided.map("23").right is Q
        return
    with pytest.raises(PreconditionError, match=message):
        _divide_top(chain, above, np.eye(1, dtype=np.int64))


# ---------------------------------------------------------------------------
# 3-crossed modules


def test_verify_3cm_degenerate_over_crossed_module():
    for p in (2, 3):
        m = zero_extension(corpus.cm_ideal_dual(p), 3)
        assert verify_3cm(m).verdict == "pass"


def test_verify_3cm_functor_output_passes(built):
    m = hypercrossed(built("cubic-chain"), 3)[0]
    assert verify_3cm(m).verdict == "pass"


def test_verify_3cm_mutation_breaks_3cm4(built):
    # the corpus has C3 = 0, so the degree-1 lifting is the one that can
    # carry a perturbation; 3CM4 reads it through the boundaries
    m = hypercrossed(built("cubic-chain"), 3)[0]
    _, C1, C2, _ = m.levels
    t = np.array(m.map("()").tensor)
    t[1, 1, 0] = (t[1, 1, 0] + 1) % C2.p  # bump {w (x) w}, w = d2-image
    mutated = CrossedChain(m.levels, m.boundaries,
                           {**m.maps, "()": BilinearMap(C1, C1, C2, t)}, "mutated")
    rep = verify_3cm(mutated)
    assert named_entry(rep, "3CM4").status == "fail"
    assert named_entry(rep, "3CM4").witness is not None


def test_axiom_report_records(built):
    rep = verify_cm(corpus.cm_ideal_dual(2))
    recs = rep.records()
    assert all(r.status == "pass" for r in recs)
    assert any("CM2" in r.check for r in recs)


# every record name of the 3-crossed verifier on each carrier, in order; the
# JSONL output of verify-3xmod, to-3xmod and lie-verify is a function of these lists
AXIOMS_3CM2_TO_16 = [f"3CM{n}" for n in range(2, 17)]
TABLE_KEYS = ["()", "(1,0)(2)", "(0)(2,1)", "(2,0)(1)", "(1)(0)", "(2)(0)", "(2)(1)"]
ACTION_KEYS = ["01", "02", "03", "12", "13", "23"]
VERIFY_3CM_NAMES = (
    ["complex-d2d3", "complex-d1d2", "d3-multiplicative", "d2-multiplicative",
     "d1-multiplicative"]
    + [f"action-{k}-algebra" for k in ACTION_KEYS]
    + ["d3-crossed-CM1", "d3-crossed-CM2"]
    + ["3CM1/" + n for n in ("complex", "d2-multiplicative", "d1-multiplicative",
                             "action-c1-algebra", "action-c2-algebra", "d2-equivariant",
                             "d1-equivariant", "2CM1", "2CM2", "2CM3", "2CM4i", "2CM4ii",
                             "2CM5")]
    + AXIOMS_3CM2_TO_16
    + [f"table3[{k}]" for k in TABLE_KEYS] + [f"table4[{k}]" for k in TABLE_KEYS])
# Tables 3-4 print the commutative equivariances
VERIFY_LIE_3CM_NAMES = [n for n in VERIFY_3CM_NAMES if not n.startswith(("table3[", "table4["))]


def test_verify_3cm_record_names_pinned(built):
    rep = verify_3cm(hypercrossed(built("cubic-chain"), 3)[0])
    assert [e.name for e in rep.entries] == VERIFY_3CM_NAMES


def test_verify_lie_3cm_record_names_pinned():
    rep = verify_lie_3cm(degenerate_lie_3cm(lie_heisenberg(3)))
    assert [e.name for e in rep.entries] == VERIFY_LIE_3CM_NAMES
    assert rep.title == "degenerate(heisenberg)"
