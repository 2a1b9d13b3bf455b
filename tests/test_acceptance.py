"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s`.

All tolerances are exact: every comparison is equality of integers mod p,
of coefficient vectors, or of canonical rref matrices.
"""

import io
import time

import numpy as np

from moorekit import corpus
from moorekit.cli import parse_args, run_command
from moorekit.coeff import Element, Supply, validate_algebra
from moorekit.crossed import (verify_2cm, verify_3cm, verify_cm, zero_extension,
                              multiplication_cm, CrossedChain)
from moorekit.functors import hypercrossed, roundtrip_check
from moorekit.lie import (degenerate_lie_3cm, lie_abelian, lie_heisenberg,
                          verify_lie_3cm, LieAlgebra)
from moorekit.moore import (SurjIndex, lemma7_check, moore, p_set, s_set,
                            s_word_morphism, table1_audit, theorem5_check)
from moorekit.simplicial import decompose, degenerate_subalgebra
from reference import cm_zero_module_bad, elements, in_moore, induced_cm, named_entry, proj_p

EXHAUSTIVE = Supply(seed=0, budget=256, exhaustive_bound=4096)

S_LISTS = {
    2: ["()", "(1)", "(0)", "(1,0)"],
    3: ["()", "(2)", "(1)", "(2,1)", "(0)", "(2,0)", "(1,0)", "(2,1,0)"],
    4: ["()", "(3)", "(2)", "(3,2)", "(1)", "(3,1)", "(2,1)", "(3,2,1)",
        "(0)", "(3,0)", "(2,0)", "(3,2,0)", "(1,0)", "(3,1,0)", "(2,1,0)",
        "(3,2,1,0)"],
}
P3_LIST = ["(1,0)(2)", "(2,0)(1)", "(0)(2,1)", "(2)(0)", "(2)(1)", "(1)(0)"]
P4_LIST = ["(3,2,1)(0)", "(3,2,0)(1)", "(3,1,0)(2)", "(2,1,0)(3)",
           "(3,2)(1,0)", "(3,1)(2,0)", "(3,0)(2,1)", "(3,2)(1)", "(3,2)(0)",
           "(3,1)(2)", "(3,1)(0)", "(3,0)(2)", "(3,0)(1)", "(2,1)(3)",
           "(0)(2,1)", "(2,0)(3)", "(2,0)(1)", "(1,0)(3)", "(1,0)(2)",
           "(3)(2)", "(3)(1)", "(3)(0)", "(2)(1)", "(2)(0)", "(1)(0)"]

CORPUS_NAMES = ("ideal-pair", "ideal-pair-cubic", "zero-module",
                "sq0-lifting", "cubic-chain", "module-id", "constant")


def verdict(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_combinatorics():
    t0 = time.time()
    ok = all([str(a) for a in s_set(n)] == S_LISTS[n] for n in (2, 3, 4))
    ok = ok and [str(q) for q in p_set(3)] == P3_LIST
    ok = ok and [str(q) for q in p_set(4)] == P4_LIST
    ok = ok and [str(q) for q in p_set(2)] == ["(1)(0)"]
    elapsed = time.time() - t0
    verdict(1, ok and elapsed < 1.0,
            f"printed S(2..4) and P(2..4) reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_table1_audit(built):
    t0 = time.time()
    E = built("ideal-pair")
    recs = table1_audit(E, EXHAUSTIVE)
    rows = [r for r in recs if r.check.startswith("table1[row=")]
    membership_fails = [r for r in recs if r.check.endswith("membership")]
    ok = (len(rows) == 25
          and all(r.status in ("confirmed", "discrepant") for r in rows)
          and all(r.witnesses for r in rows if r.status == "discrepant")
          and not membership_fails)
    elapsed = time.time() - t0
    verdict(2, ok and elapsed < 60,
            f"all 25 rows evaluated exhaustively on the ideal-pair object, "
            f"composite values in NE4 ({elapsed:.1f}s)")


def test_criterion_3_lemma7(built):
    t0 = time.time()
    ok = True
    from moorekit.moore import moore_space
    for name in CORPUS_NAMES:
        E = built(name)
        if moore_space(E, 4).dim != 0:
            continue
        recs = lemma7_check(E)
        ok = ok and all(r.status == "pass" for r in recs)
    elapsed = time.time() - t0
    verdict(3, ok and elapsed < 60,
            f"all 25 boundary images vanish on every NE4 = 0 corpus object "
            f"({elapsed:.1f}s)")


def test_criterion_4_proposition3_pipeline(built):
    ok = True
    details = []
    for name in ("constant", "ideal-pair", "cubic-chain"):  # lengths 0, 1, 2
        m = hypercrossed(built(name), 3)[0]
        report = verify_3cm(m)
        p = m.levels[0].p
        ok = ok and not (m.d(2).matrix @ m.d(3).matrix % p).any()
        ok = ok and not (m.d(1).matrix @ m.d(2).matrix % p).any()
        invariant_fails = [e for e in report.failing()
                           if e.name.startswith(("complex-", "action-",
                                                 "table3[", "table4["))
                           or "multiplicative" in e.name]
        ok = ok and not invariant_fails
        audit = [e for e in report.failing() if e not in invariant_fails]
        ok = ok and all(e.witness is not None for e in audit)
        details.append(f"{name}: {len(audit)} audit findings")
    verdict(4, ok, "d o d = 0, liftings bilinear and equivariant, no "
            f"implementation-invariant failures ({'; '.join(details)})")


def test_criterion_5_crossed_corpus():
    mods = [corpus.cm_ideal_dual(2), corpus.cm_zero_module(2),
            multiplication_cm(corpus.zmod(2)),
            multiplication_cm(corpus.group_line(3))]
    ok = all(verify_cm(m).verdict == "pass" for m in mods)
    bad = verify_cm(cm_zero_module_bad(2))
    entry = named_entry(bad, "CM2")
    ok = ok and entry.status == "fail" and entry.witness is not None
    verdict(5, ok, "ideal pair, zero module and both multiplication crossed "
            "modules pass; the mutant fails CM2 with a witness")


def test_criterion_6_two_crossed_remarks():
    r1 = zero_extension(corpus.cm_ideal_dual(2), 2)
    ok = verify_2cm(r1).verdict == "pass"
    ok = ok and verify_cm(induced_cm(r1)).verdict == "pass"
    r2 = induced_cm(corpus.tcm_cubic_chain(2))
    ok = ok and verify_cm(r2).verdict == "pass"
    # remark 3: trivial lifting degeneration
    r3 = corpus.tcm_module_identity(2)
    ok = ok and not r3.map("()").tensor.any() and verify_2cm(r3).verdict == "pass"
    verdict(6, ok, "remark-1 degeneration, remark-2 induced crossed module "
            "and remark-3 trivial lifting all mechanized")


def test_criterion_7_roundtrips():
    ok = True
    count = 0
    for p in (2, 3):
        for rec in roundtrip_check(1, p) + roundtrip_check(2, p):
            ok = ok and rec.status == "pass"
            count += 1
    verdict(7, ok, f"{count} build/extract round trips equal on the nose")


def test_criterion_8_theorem5(built):
    ok = True
    for name in CORPUS_NAMES:
        E = built(name)
        rec = theorem5_check(E, 2)
        D = degenerate_subalgebra(E, 2)
        if D.shape[0] == E.level(2).dim:
            ok = ok and rec.status == "pass"
        else:
            ok = ok and rec.status == "hypothesis-failed"
    gate = theorem5_check(built("top-degree-4"), 4)
    ok = ok and gate.status == "hypothesis-failed"
    verdict(8, ok, "boundary image equals the pairing-product ideal at n = 2 "
            "on every E2 = D2 corpus object; gates report hypothesis-failed")


def test_criterion_9_moore_structure(built):
    t0 = time.time()
    ok = True
    for name in CORPUS_NAMES:
        E = built(name)
        mc = moore(E)  # raises if boundary composites fail
        p = E.level(0).p
        for n in range(2, 5):
            comp = mc.boundaries[n - 2].matrix @ mc.boundaries[n - 1].matrix % p
            ok = ok and not comp.any()
        for n in (1, 2, 3):
            dec = decompose(E, n)
            for x in elements(E.level(n), EXHAUSTIVE):
                y = proj_p(E, n, x)
                ok = ok and proj_p(E, n, y) == y
                back = sum(s_word_morphism(E, n, a.application_order()).matrix
                           @ (M @ x.coeffs % p) for a, M in dec.items()) % p
                ok = ok and np.array_equal(back, x.coeffs)
                normal = Element(E.level(n), dec[SurjIndex((), n)] @ x.coeffs % p)
                ok = ok and in_moore(E, n, normal)
            if not ok:
                break
    elapsed = time.time() - t0
    verdict(9, ok and elapsed < 300,
            f"boundary composites vanish, projection idempotent, "
            f"decomposition exact on every corpus object ({elapsed:.1f}s)")


def test_criterion_10_lie():
    ok = validate_algebra(lie_abelian(3, 2)) == []
    ok = ok and validate_algebra(lie_heisenberg(3)) == []
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 1] = 1
    from moorekit.coeff import PrimeField, BilinearMap
    bad = LieAlgebra(PrimeField(3), t, ("a", "b"))
    ok = ok and any(v.kind == "alternating" for v in validate_algebra(bad))
    for base in (lie_abelian(3, 2), lie_heisenberg(3)):
        ok = ok and verify_lie_3cm(degenerate_lie_3cm(base)).verdict == "pass"
    m = degenerate_lie_3cm(lie_heisenberg(3))
    L0, L1 = m.levels[:2]
    badt = np.zeros((3, 1, 1), dtype=np.int64)
    badt[2, 0, 0] = 1
    mut = CrossedChain(m.levels, m.boundaries, {**m.maps, "01": BilinearMap(L0, L1, L1, badt)})
    ok = ok and verify_lie_3cm(mut).verdict == "fail"
    verdict(10, ok, "Lie validation accepts abelian and heisenberg, rejects "
            "the alternating mutant; chain verifier passes degenerates and "
            "fails mutants")


def test_criterion_11_determinism():
    def stream(argv):
        out = io.StringIO()
        args = parse_args(argv)
        run_command(args, out)
        return out.getvalue()

    ok = True
    for argv in (["corpus"], ["table1", "cubic-chain"],
                 ["--char", "2,3", "roundtrip"],
                 ["--seed", "7", "lemma7", "module-id"]):
        ok = ok and stream(argv) == stream(argv)
    verdict(11, ok, "identical input and config produce byte-identical "
            "report streams")
