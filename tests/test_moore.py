import hashlib
import importlib
import itertools

import numpy as np
import pytest

from moorekit import coeff, corpus
from moorekit.coeff import (Algebra, Element, Morphism, PreconditionError, PrimeField,
                            Supply, ideal_closure, supply_rows)
from moorekit.moore import (PairingIndex, SurjIndex, face_kernel, lemma7_check, moore,
                            moore_space, normal_form, p_set, push_face, s_set,
                            s_word_morphism, table1_audit,
                            boundary_image_and_pairing_product, theorem5_check)
from moorekit.report import CheckRecord
from moorekit.simplicial import (TruncatedSimplicialAlgebra, constant_simplicial,
                                 degenerate_ideal, degenerate_subalgebra, realize)
from reference import c_pairing, elements, in_moore, proj_p, table1_eval
from test_axiom_sweep import tensor_simplicial

# the package exports the function moore under the module's own name
moore_module = importlib.import_module("moorekit.moore")

SMALL = Supply(budget=16, exhaustive_bound=256)

# frozen printed orders
S2 = ["()", "(1)", "(0)", "(1,0)"]
S3 = ["()", "(2)", "(1)", "(2,1)", "(0)", "(2,0)", "(1,0)", "(2,1,0)"]
S4 = ["()", "(3)", "(2)", "(3,2)", "(1)", "(3,1)", "(2,1)", "(3,2,1)",
      "(0)", "(3,0)", "(2,0)", "(3,2,0)", "(1,0)", "(3,1,0)", "(2,1,0)",
      "(3,2,1,0)"]
P3 = ["(1,0)(2)", "(2,0)(1)", "(0)(2,1)", "(2)(0)", "(2)(1)", "(1)(0)"]
P4 = ["(3,2,1)(0)", "(3,2,0)(1)", "(3,1,0)(2)", "(2,1,0)(3)",
      "(3,2)(1,0)", "(3,1)(2,0)", "(3,0)(2,1)",
      "(3,2)(1)", "(3,2)(0)", "(3,1)(2)", "(3,1)(0)", "(3,0)(2)", "(3,0)(1)",
      "(2,1)(3)", "(0)(2,1)", "(2,0)(3)", "(2,0)(1)", "(1,0)(3)", "(1,0)(2)",
      "(3)(2)", "(3)(1)", "(3)(0)", "(2)(1)", "(2)(0)", "(1)(0)"]


def test_s_set_printed_orders():
    assert [str(a) for a in s_set(2)] == S2
    assert [str(a) for a in s_set(3)] == S3
    assert [str(a) for a in s_set(4)] == S4
    for n in range(7):
        assert len(s_set(n)) == 2 ** n


def test_s_set_returns_a_fresh_list_each_call():
    # the sorted indices are kept once per process; a caller's list is its own
    first = s_set(3)
    first.reverse()
    first.append(SurjIndex((0,), 1))
    del first[:2]
    assert [str(a) for a in s_set(3)] == S3
    assert s_set(3) is not s_set(3)


def test_p_set_printed_lists():
    assert [str(q) for q in p_set(2)] == ["(1)(0)"]
    assert [str(q) for q in p_set(3)] == P3
    assert [str(q) for q in p_set(4)] == P4
    for n in (2, 3, 4):
        for q in p_set(n):
            assert not set(q.alpha.entries) & set(q.beta.entries)
    with pytest.raises(ValueError):
        p_set(5)


def test_surj_index_validation():
    from moorekit.coeff import StructureError
    with pytest.raises(StructureError):
        SurjIndex((0, 1), 3)  # not decreasing
    with pytest.raises(StructureError):
        SurjIndex((5,), 3)  # out of range
    with pytest.raises(StructureError):
        PairingIndex(SurjIndex((1,), 3), SurjIndex((1,), 3))  # overlap


def test_normal_form_rewrites():
    assert normal_form([0, 0]) == (0, 1)   # s_0 s_0 = s_1 s_0
    assert normal_form([1, 0]) == (0, 2)   # s_0 s_1 = s_2 s_0
    assert normal_form([0, 1]) == (0, 1)
    assert normal_form([2, 0, 1]) == (0, 1, 4)


def test_push_face_rules():
    assert push_face(0, (0,)) == ((), None)        # d0 s0 = 1
    assert push_face(1, (0,)) == ((), None)        # d1 s0 = 1
    assert push_face(2, (0,)) == ((0,), 1)         # d2 s0 = s0 d1
    assert push_face(0, (1,)) == ((0,), 0)         # d0 s1 = s0 d0
    assert push_face(2, (0, 1)) == ((0,), None)    # d2 s1 s0 = s0
    assert push_face(4, (1, 2)) == ((1, 2), 2)     # d4 s2 s1 = s2 s1 d2


def test_moore_of_constant_and_lengths(built):
    E = constant_simplicial(corpus.dual_numbers(2), 4)
    mc = moore(E)
    assert [A.dim for A in mc.algebras] == [2, 0, 0, 0, 0]
    assert mc.length() == 0

    mc2 = moore(built("ideal-pair"))
    assert [A.dim for A in mc2.algebras] == [2, 1, 0, 0, 0]
    assert mc2.length() == 1

    mc3 = moore(built("cubic-chain"))
    assert mc3.length() == 2
    for n in range(1, 4):
        comp = mc3.boundaries[n - 1].matrix @ mc3.boundaries[n].matrix % 2 \
            if n < 4 and mc3.boundaries[n].matrix.size else None
        if comp is not None:
            assert not comp.any()


def test_proj_p_fixes_normal_and_kills_degenerate(built):
    E = built("cubic-chain")
    v = Element(E.level(2), moore_space(E, 2).basis_matrix[0])
    assert proj_p(E, 2, v) == v
    a = Element(E.level(0), moore_space(E, 0).basis_matrix[0])
    assert not proj_p(E, 1, E.deg(1, 0)(a)).coeffs.any()


@pytest.mark.parametrize("p", [2, 3])
def test_proj_p_idempotent_and_lands_in_moore(p, built):
    E = built("cubic-chain", p)
    for n in (1, 2, 3):
        for x in elements(E.level(n), SMALL):
            y = proj_p(E, n, x)
            assert proj_p(E, n, y) == y
            assert in_moore(E, n, y)


def test_c_pairing_zero_and_membership(built):
    E = built("cubic-chain")
    pair = p_set(3)[4]  # (2)(1)
    z2 = E.level(2).zero()
    assert not c_pairing(E, pair, z2, z2).coeffs.any()
    v = Element(E.level(2), moore_space(E, 2).basis_matrix[0])
    val = c_pairing(E, pair, v, v)
    assert in_moore(E, 3, val)


def test_c_pairing_requires_membership(built):
    E = built("cubic-chain")
    pair = p_set(3)[4]
    outside = E.level(2).basis_element(1)  # degenerate coordinate, not in NE_2
    if not in_moore(E, 2, outside):
        with pytest.raises(PreconditionError):
            c_pairing(E, pair, outside, outside)


@pytest.mark.parametrize("p", [2, 3])
def test_c_pairing_printed_closed_forms_n3(p, built):
    # (2)(0): composite equals (s2 x)(s0 y); (1)(0): composite equals
    # s1 x (s0 y - s1 y) + s2(x y), exhaustively over NE_2
    E = built("cubic-chain", p)
    s0, s1, s2 = (E.deg(3, i) for i in range(3))
    ne2 = moore_space(E, 2).basis_matrix
    A2 = E.level(2)
    supply = [Element(A2, c @ ne2 % p) for c in
              ([i] for i in range(p))]
    pair20 = p_set(3)[3]
    pair10 = p_set(3)[5]
    for x in supply:
        for y in supply:
            got = c_pairing(E, pair20, x, y)
            want = s2(x) * s0(y)
            assert got == want
            got10 = c_pairing(E, pair10, x, y)
            want10 = s1(x) * (s0(y) - s1(y)) + s2(x * y)
            assert got10 == want10


def pairing_ideal(E, n):
    """The ideal of E_n that the pairing values on Moore-basis rows generate."""
    return ideal_closure(E.level(n), list(moore_module.pairing_table(E, n).values()))


def test_pairing_ideal_examples(built):
    E0 = constant_simplicial(corpus.dual_numbers(2), 4)
    for n in (2, 3, 4):
        assert pairing_ideal(E0, n).dim == 0

    E = built("cubic-chain")
    I2 = pairing_ideal(E, 2)
    from moorekit.coeff import Ideal, intersect_row_spaces
    cap = intersect_row_spaces(moore_space(E, 2).basis_matrix,
                               degenerate_ideal(E, 2).basis_matrix, 2)
    assert Ideal(E.level(2), cap).contains(I2.basis_matrix)


def test_theorem5_pass_and_gate(built):
    assert theorem5_check(built("ideal-pair"), 2).status == "pass"
    rec = theorem5_check(built("cubic-chain"), 2)
    assert rec.status == "pass" and rec.detail["dim"] == 1
    assert theorem5_check(built("sq0-lifting"), 2).status == "pass"
    gate = theorem5_check(corpus.simplicial_corpus(2)["top-degree-4"], 4)
    assert gate.status == "hypothesis-failed"
    # module-id at n = 2: the degenerate ideal is all of E_2, yet the two
    # sides of the equation differ, so the ideal cannot be the gate
    E = built("module-id")
    assert degenerate_ideal(E, 2).dim == E.level(2).dim
    lhs, rhs = boundary_image_and_pairing_product(E, 2)
    assert (lhs.dim, rhs.dim) == (2, 0)
    assert degenerate_subalgebra(E, 2).shape[0] == 5
    rec = theorem5_check(E, 2)
    assert rec.status == "hypothesis-failed"
    assert rec.detail["codim"] == 2
    assert rec.detail["D_n"] == "subalgebra generated by the degeneracy images"


def test_table1_row20_and_zero(built):
    E = built("cubic-chain")
    z3 = E.level(3).zero()
    lhs, rhs = table1_eval(E, 20, z3, z3)
    assert not lhs.coeffs.any() and not rhs.coeffs.any()
    # row 20 closed form x3(s2 d3 y3 - y3) at the only available points
    ne3 = moore_space(E, 3).basis_matrix
    assert ne3.shape[0] == 0  # nothing above length 2 in the corpus
    with pytest.raises(ValueError):
        table1_eval(E, 26, z3, z3)


def test_table1_row4_exhaustive(built):
    # row 4: (2,1,0)(3) with x1 in NE_1, y3 in NE_3
    E = built("cubic-chain")
    ne1 = moore_space(E, 1).basis_matrix
    y3 = E.level(3).zero()
    for c in range(2):
        for d in range(2):
            x1 = Element(E.level(1), (c * ne1[0] + d * ne1[1]) % 2)
            lhs, rhs = table1_eval(E, 4, x1, y3)
            assert lhs == rhs  # both vanish by bilinearity in y3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_table1_audit_confirms_all_rows(p, built):
    recs = table1_audit(built("cubic-chain", p), SMALL)
    by_status = {r.status for r in recs}
    assert by_status == {"confirmed"}
    assert len([r for r in recs if r.check.startswith("table1[row=")]) == 25


# sha256 of Table 1's printed side, every row on every pair of level-basis
# vectors in row order, on module-id's levels with seeded random faces and
# degeneracies (where no row vanishes), as computed by the former 25-branch
# transcription that evaluated each row on Element objects
PRINTED_DIGESTS = {
    2: "ab2d1e0d8720ef8cc2ec2ef4ba091c566aa844d001b3bb6636aa622eb1fb9eba",
    3: "1c4192024fd67478292aec2fd108ba1ae2ff28ca92363e6c497eb57f2b8d1584",
    5: "2120e76dcc9827029e81980b18b2ec063fd05fe9d469ee95199fdd343d71afa1",
}


def randomized_module_id(p):
    E = realize(corpus.tcm_module_identity(p), 4)
    rng = np.random.default_rng(p)

    def rand(maps):
        return {key: Morphism(m.source, m.target, rng.integers(0, p, m.matrix.shape))
                for key, m in sorted(maps.items())}
    return TruncatedSimplicialAlgebra(E.levels, rand(E.faces), rand(E.degeneracies))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_printed_side_on_random_faces_and_degeneracies(p):
    E = randomized_module_id(p)
    digest = hashlib.sha256()
    for row, pair in enumerate(p_set(4), start=1):
        eyes = [np.eye(E.level(4 - s.size).dim, dtype=np.int64) for s in (pair.alpha, pair.beta)]
        values = moore_module._printed_values(E, {row: eyes})[row]
        assert values.any(), row
        digest.update(values.astype("<i8").tobytes())
    assert digest.hexdigest() == PRINTED_DIGESTS[p]


def test_lemma7_pass_and_gate(built):
    recs = lemma7_check(built("cubic-chain"))
    assert all(r.status == "pass" for r in recs) and len(recs) == 25
    gate = lemma7_check(corpus.simplicial_corpus(2)["top-degree-4"])
    assert gate[0].status == "hypothesis-failed"
    assert "length > 3" in gate[0].detail["reason"]


def test_s_word_morphism_matches_composition(built):
    E = built("ideal-pair")
    m = s_word_morphism(E, 2, (0, 1))  # s_1 s_0
    direct = E.deg(2, 1).compose(E.deg(1, 0))
    assert np.array_equal(m.matrix, direct.matrix)
    # computed once per object and word, and read-only
    assert s_word_morphism(E, 2, [0, 1]) is m and not m.matrix.flags.writeable


# ---------------------------------------------------------------------------
# Table 1 against a plain per-pair sweep over the supply, Lemma 7 against a
# plain sweep over the pairs of Moore-basis rows

SIMPLICIAL = list(corpus.simplicial_corpus(2))


def _coeffs(z):
    return list(map(int, z.coeffs))


def _lines(records):
    return [r.json_line() for r in records]


def _supply(E, c, supply):
    """Supply elements of NE_c, and whether they are all of NE_c."""
    basis, p = moore_space(E, c).basis_matrix, E.level(c).p
    rows, every = supply_rows(basis.shape[0], p, supply)
    return [Element(E.level(c), v @ basis % p) for v in rows], every


def reference_table1(E, supply):
    """Table-1 records from one table1_eval and one in_moore call per
    supply pair."""
    table1 = []
    for row, pair in enumerate(p_set(4), start=1):
        xs, x_all = _supply(E, 4 - pair.alpha.size, supply)
        ys, y_all = _supply(E, 4 - pair.beta.size, supply)
        mode = "exhaustive" if x_all and y_all else "sampled"
        status, witness = "confirmed", ()
        for x, y in itertools.product(xs, ys):
            if not in_moore(E, 4, c_pairing(E, pair, x, y)):
                table1.append(CheckRecord(f"table1[row={row}].membership", "fail",
                                          witnesses=({"x": _coeffs(x), "y": _coeffs(y)},)))
            lhs, rhs = table1_eval(E, row, x, y)
            if lhs != rhs and status == "confirmed":
                status = "discrepant"
                witness = ({"x": _coeffs(x), "y": _coeffs(y),
                            "lhs": _coeffs(lhs), "rhs": _coeffs(rhs)},)
        table1.append(CheckRecord(f"table1[row={row}]", status, witnesses=witness,
                                  detail={"pair": str(pair), "checked": len(xs) * len(ys),
                                          "mode": mode}))
    return table1


def reference_lemma7(E):
    """Lemma-7 records from one c_pairing and one d_4 per pair of
    Moore-basis rows; the NE_4 = 0 gate is left to the caller."""
    lemma7 = []
    for row, pair in enumerate(p_set(4), start=1):
        xs, ys = ([Element(E.level(c), v) for v in moore_space(E, c).basis_matrix]
                  for c in (4 - pair.alpha.size, 4 - pair.beta.size))
        bad = [(x, y) for x, y in itertools.product(xs, ys)
               if E.face(4, 4)(c_pairing(E, pair, x, y)).coeffs.any()]
        lemma7.append(CheckRecord(
            f"lemma7[row={row}]", "fail" if bad else "pass",
            witnesses=tuple({"row": row, "x": _coeffs(x), "y": _coeffs(y)} for x, y in bad[:1]),
            detail={"mode": "basis-exact", "checked": len(xs) * len(ys)}))
    return lemma7


def assert_lemma7_matches_reference(E):
    """lemma7_check reproduces the reference records byte for byte, or
    answers hypothesis-failed when NE_4 != 0; returns its records."""
    got = lemma7_check(E)
    if moore_space(E, 4).dim == 0:
        assert _lines(got) == _lines(reference_lemma7(E))
    else:
        assert [r.status for r in got] == ["hypothesis-failed"]
    return got


def assert_matches_reference(E, supply):
    """Both audits reproduce the reference records byte for byte; returns
    the Table-1 and Lemma-7 records."""
    got_t1 = table1_audit(E, supply)
    assert _lines(got_t1) == _lines(reference_table1(E, supply))
    return got_t1, assert_lemma7_matches_reference(E)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", SIMPLICIAL)
def test_audits_match_reference_sweep(name, p, built):
    recs, _ = assert_matches_reference(built(name, p), Supply())
    assert {r.detail["mode"] for r in recs} == {"exhaustive"}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", SIMPLICIAL)
def test_lemma7_matches_basis_pair_reference(name, p, built):
    recs = assert_lemma7_matches_reference(built(name, p))
    assert {r.detail.get("mode") for r in recs} <= {"basis-exact", None}


def test_audits_match_reference_on_sampled_supply(built):
    # module-id at p = 3 has NE dims (1, 2, 2, 0, 0): 9 elements exceed the
    # bound on NE_1 and NE_2, and NE_3 = 0 holds the zero element alone
    supply = Supply(seed=5, budget=3, exhaustive_bound=4)
    recs, _ = assert_matches_reference(built("module-id", 3), supply)
    rows = {r.check: r.detail for r in recs}
    assert rows["table1[row=1]"] == {"pair": "(3,2,1)(0)", "checked": 3, "mode": "sampled"}
    assert rows["table1[row=5]"]["checked"] == 9
    assert rows["table1[row=20]"] == {"pair": "(3)(2)", "checked": 1, "mode": "exhaustive"}


def test_discrepant_witness_is_first_failing_pair(built, monkeypatch):
    # perturb row 5 by a bilinear term, non-zero where both coefficient
    # sums are: the first failing pair is not the first pair of the sweep
    E = built("module-id", 3)
    printed = moore_module._printed_values

    def perturbed(E, stacks):
        values = printed(E, stacks)
        if 5 in values:
            bx, by = stacks[5]
            values[5][..., 0] += np.outer(bx.sum(axis=1), by.sum(axis=1))
            values[5] %= 3
        return values

    monkeypatch.setattr(moore_module, "_printed_values", perturbed)
    recs, _ = assert_matches_reference(E, Supply())
    bad = [r for r in recs if r.status == "discrepant"]
    assert [r.check for r in bad] == ["table1[row=5]"]
    w = bad[0].witnesses[0]
    xs, _ = _supply(E, 2, Supply())
    first = next((x, y) for x, y in itertools.product(xs, xs)
                 if int(x.coeffs.sum()) * int(y.coeffs.sum()) % 3)
    assert (w["x"], w["y"]) == (_coeffs(first[0]), _coeffs(first[1]))
    assert (w["x"], w["y"]) != (_coeffs(xs[0]), _coeffs(xs[0]))
    assert w["lhs"] != w["rhs"]


def test_membership_failures_in_sweep_order(built):
    # p projects onto NE_4 on any simplicial algebra, so C_{alpha,beta}
    # leaves NE_4, and Lemma 7 can fail, only when the level-4 degeneracies
    # are broken: with NE_4 = 0, C_{alpha,beta} is zero otherwise
    # a new object: the pairing table of the built one is kept with it
    E = built("module-id", 2)
    rng = np.random.default_rng(0)
    degs = dict(E.degeneracies)
    for j in range(4):
        s = E.deg(4, j)
        degs[(4, j)] = Morphism(s.source, s.target, rng.integers(0, 2, s.matrix.shape))
    E = TruncatedSimplicialAlgebra(E.levels, E.faces, degs)
    recs, lemma7 = assert_matches_reference(E, Supply())
    checks = [r.check for r in recs]
    fails = [i for i, c in enumerate(checks) if c.endswith(".membership")]
    assert fails and all(recs[i].status == "fail" for i in fails)
    # a row's membership records come right before the row's own record
    for i in fails:
        row = next(c for c in checks[i:] if not c.endswith(".membership"))
        assert checks[i] == row + ".membership"
    assert any(r.status == "fail" for r in lemma7)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["top-degree-3", "top-degree-4"])
def test_theorem5_on_zero_lower_levels(name, p):
    # every level below the top degree is the zero algebra: the equation
    # holds with dimension 0 there, and the top degree fails the gate
    E = corpus.simplicial_corpus(p)[name]
    top = int(name[-1])
    assert [E.level(n).dim for n in range(top)] == [0] * top
    for n in (2, 3, 4):
        rec = theorem5_check(E, n)
        if n == top:
            assert (rec.status, rec.detail["codim"]) == ("hypothesis-failed", 1)
            assert rec.detail["reason"] == f"E_{n} != D_{n}"
        else:
            assert (rec.status, rec.detail["dim"]) == ("pass", 0)


def test_theorem5_failure_counts_rows_outside_the_other_side(built, monkeypatch):
    # no corpus object reaches the failing branch, so feed it two subspaces
    # of E_1: span(e0, e1) and span(e1 + e2), each row counted on its own
    from moorekit.coeff import Ideal
    moore_mod = importlib.import_module("moorekit.moore")
    simplicial_mod = importlib.import_module("moorekit.simplicial")
    E = built("cubic-chain", 3)
    A = E.level(1)
    assert A.dim >= 3
    lhs = Ideal(A, np.eye(A.dim, dtype=np.int64)[:2])
    rhs = Ideal(A, np.eye(A.dim, dtype=np.int64)[1] + np.eye(A.dim, dtype=np.int64)[2])
    monkeypatch.setattr(simplicial_mod, "degenerate_subalgebra",
                        lambda E, n: np.eye(E.level(n).dim, dtype=np.int64))
    monkeypatch.setattr(moore_mod, "boundary_image_and_pairing_product",
                        lambda E, n: (lhs, rhs))
    rec = theorem5_check(E, 2)
    assert rec.status == "fail"
    assert (rec.detail["lhs_dim"], rec.detail["rhs_dim"]) == (2, 1)
    assert (rec.detail["lhs_outside_rhs"], rec.detail["rhs_outside_lhs"]) == (2, 1)


def test_moore_space_is_the_face_kernel_of_the_faces_below(built):
    E = built("cubic-chain")
    for n in range(E.k + 1):
        assert moore_space(E, n) is face_kernel(E, n, range(n))
    assert moore_space(E, 0).basis_matrix.tolist() == np.eye(E.level(0).dim).tolist()


def test_theorem5_builds_the_moore_complex_and_each_face_kernel_once(monkeypatch):
    complexes, kernels = [], []
    real_complex, real_null = moore_module._moore_complex, moore_module.null_space
    monkeypatch.setattr(moore_module, "_moore_complex",
                        lambda E: complexes.append(E) or real_complex(E))
    monkeypatch.setattr(moore_module, "null_space",
                        lambda mat, p: kernels.append(mat.shape) or real_null(mat, p))
    # a fresh object, built under the counters: extend_level hands the
    # kernels of the levels it extends down to the object it returns
    E = corpus.simplicial_corpus(2, {"cubic-chain"})["cubic-chain"]
    first = [theorem5_check(E, n) for n in (2, 3, 4)]
    assert complexes == [E]
    counted = len(kernels)
    # at most one null space per distinct face set over building and
    # theorem5: the Moore bases of E_1..E_4, which building reads too, and
    # the kernels K_I in E_{n-1}, I the complement of a pairing's entries;
    # theorem5 needs every one of them, so each is computed exactly once
    sets = {(m, tuple(range(m))) for m in range(1, 5)}
    sets |= {(n - 1, tuple(sorted(set(range(n)) - set(s.entries))))
             for n in (2, 3, 4) for q in p_set(n) for s in (q.alpha, q.beta)}
    assert counted == len({key for key in sets if key[1]})
    assert [theorem5_check(E, n) for n in (2, 3, 4)] == first
    assert moore(E) is moore(E) and complexes == [E] and len(kernels) == counted


# ---------------------------------------------------------------------------
# the pairing table and the stacked products against per-pair references

DEGREE3 = "ideal-pair(x)sq0-lifting"


@pytest.fixture(scope="module")
def table_object(built):
    """A corpus object by name, or DEGREE3, whose degree-3 data is non-zero."""
    cache = {}

    def get(name, p):
        if name != DEGREE3:
            return built(name, p)
        if p not in cache:
            cache[p] = tensor_simplicial(built("ideal-pair", p), built("sq0-lifting", p))
        return cache[p]

    return get


def test_table_objects_include_zero_dimensional_levels(built):
    for name, top in (("top-degree-3", 3), ("top-degree-4", 4)):
        E = built(name, 2)
        assert [E.level(n).dim for n in range(2, top)] == [0] * (top - 2)
        assert all(v.shape[2] == 0 for v in moore_module.pairing_table(E, 2).values())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", SIMPLICIAL + [DEGREE3])
def test_pairing_table_equals_c_pairing_on_basis_rows(name, p, table_object):
    E = table_object(name, p)
    for n in (2, 3, 4):
        table = moore_module.pairing_table(E, n)
        assert list(table) == p_set(n)
        for pair in p_set(n):
            (cx, bx), (cy, by) = ((n - s.size, moore_space(E, n - s.size).basis_matrix)
                                  for s in (pair.alpha, pair.beta))
            want = np.zeros((len(bx), len(by), E.level(n).dim), dtype=np.int64)
            for (i, x), (j, y) in itertools.product(enumerate(bx), enumerate(by)):
                want[i, j] = c_pairing(E, pair, Element(E.level(cx), x),
                                       Element(E.level(cy), y)).coeffs
            assert np.array_equal(table[pair], want), (n, str(pair))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", SIMPLICIAL + [DEGREE3])
def test_theorem5_product_ideal_is_the_closure_of_every_pair_product(name, p, table_object):
    E = table_object(name, p)
    for n in (2, 3, 4):
        A = E.level(n - 1)
        kernels = [[face_kernel(E, n - 1, set(range(n)) - set(s.entries)).basis_matrix
                    for s in (q.alpha, q.beta)] for q in p_set(n)]
        want = ideal_closure(A, [A.mul_vec(kx[:, None], ky[None]) for kx, ky in kernels])
        assert boundary_image_and_pairing_product(E, n)[1] == want, n
