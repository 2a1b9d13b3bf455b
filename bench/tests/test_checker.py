"""Tests of the benchmark's independent checker, its input generators and its
trace arithmetic.  Each check passes on real CLI output and fails on a
corrupted copy of it.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from moorekit.cli import make_parser, run_command  # noqa: E402
from moorekit.corpus import simplicial_corpus  # noqa: E402

from bench import checker, inputs, tracing, workloads  # noqa: E402


def cli(*argv):
    out = io.StringIO()
    code = run_command(make_parser().parse_args(list(argv)), out)
    return code, out.getvalue()


def edit(text: str, fn) -> str:
    """Apply fn to each parsed line of a record stream; fn may return None to drop it."""
    lines = [fn(json.loads(line)) for line in text.splitlines()]
    return "\n".join(json.dumps(obj) for obj in lines if obj is not None) + "\n"


def parsed(text):
    return checker.parse_output(text)


@pytest.fixture(scope="module")
def corpus2():
    code, text = cli("--char", "2", "corpus")
    assert code == 0
    return json.loads(text)


def ref(doc, name, prediction=None):
    return checker.reference(checker.levels_from_document(doc, name), prediction)


# -- elimination -------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rank_and_kernel_agree(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        rows, cols = rng.integers(1, 8, size=2)
        A = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.6)
        K = checker.kernel(A, p, cols)
        assert not (A @ K % p).any()
        assert checker.rank(A, p) + K.shape[1] == cols
        assert checker.rank(K.T, p) == K.shape[1]


def test_rank_of_known_matrix():
    assert checker.rank([[1, 1], [1, 1]], 2) == 1
    assert checker.rank([[1, 1], [1, 2]], 3) == 2
    assert checker.rank([[2, 4], [1, 2]], 5) == 1


# -- CLI contract ------------------------------------------------------------


def test_contract():
    code, text = cli("verify-xmod", "ideal-pair")
    assert checker.check_contract(parsed(text), code) == []

    def wrong_exit(obj):
        if obj["check"] == "summary":
            obj["detail"]["exit"] = 1
        return obj

    assert checker.check_contract(parsed(edit(text, wrong_exit)), code)
    dropped = edit(text, lambda o: None if o["check"].endswith("/CM1") else o)
    assert checker.check_contract(parsed(dropped), code)
    no_summary = edit(text, lambda o: None if o["check"] == "summary" else o)
    assert checker.check_contract(parsed(no_summary), code)
    assert checker.check_contract(parsed(text), 2)


def test_contract_statuses_match_exit():
    code, text = cli("verify-xmod", "ideal-pair")

    def failing(obj):
        if obj["check"].endswith("/CM1"):
            obj["status"] = "fail"
        return obj

    assert checker.check_contract(parsed(edit(text, failing)), code)


# -- listings ----------------------------------------------------------------


def test_sset():
    code, text = cli("sset", "3")
    assert checker.check_sset(parsed(text), 3) == []

    def short(obj):
        if obj["check"] != "summary":
            obj["detail"]["elements"] = obj["detail"]["elements"][:-1]
        return obj

    assert checker.check_sset(parsed(edit(text, short)), 3)


@pytest.mark.parametrize("n", [3, 4])
def test_pset(n):
    code, text = cli("pset", str(n))
    assert checker.check_pset(parsed(text), n) == []

    def overlap(obj):
        if obj["check"] != "summary":
            obj["detail"]["elements"][0] = "(1,0)(1)"
        return obj

    assert checker.check_pset(parsed(edit(text, overlap)), n)


def test_pairings():
    code, text = cli("pairings")
    assert checker.check_pairings(parsed(text)) == []

    def overlap(obj):
        if obj["check"] == "pairings[4]":
            obj["detail"]["elements"][3]["beta"] = "(2)"
        return obj

    assert checker.check_pairings(parsed(edit(text, overlap)))


# -- checks against the input's Moore complex ---------------------------------


def test_moore(corpus2):
    code, text = cli("moore", "cubic-chain")
    assert checker.check_moore(parsed(text), ref(corpus2, "cubic-chain")) == []

    def wrong(obj):
        if obj["check"] != "summary":
            obj["detail"]["dims"][2] += 1
        return obj

    assert checker.check_moore(parsed(edit(text, wrong)), ref(corpus2, "cubic-chain"))


def test_validate_and_identity_check(corpus2):
    code, text = cli("validate", "module-id")
    r = ref(corpus2, "module-id")
    assert r.violations == []
    assert checker.check_validate(parsed(text), r) == []

    def flipped(obj):
        if obj["check"] != "summary":
            obj["status"] = "fail"
        return obj

    assert checker.check_validate(parsed(edit(text, flipped)), r)
    broken = checker.levels_from_document(corpus2, "module-id")
    broken.faces[(2, 1)] = (broken.faces[(2, 1)] + 1) % 2
    assert checker.identity_violations(broken)
    assert checker.check_validate(parsed(text), checker.reference(broken))


def test_lemma7(corpus2):
    code, text = cli("lemma7", "cubic-chain")
    r = ref(corpus2, "cubic-chain")
    assert r.moore.dims[4] == 0
    assert checker.check_lemma7(parsed(text), r) == []

    def one_fails(obj):
        if obj["check"] == "lemma7[row=7]":
            obj["status"] = "fail"
        return obj

    assert checker.check_lemma7(parsed(edit(text, one_fails)), r)
    code, text = cli("lemma7", "top-degree-4")
    r4 = ref(corpus2, "top-degree-4")
    assert checker.check_lemma7(parsed(text), r4) == []
    passing = edit(text, lambda o: dict(o, status="pass") if o["check"] == "lemma7" else o)
    assert checker.check_lemma7(parsed(passing), r4)


def test_theorem5(corpus2):
    code, text = cli("theorem5", "cubic-chain")
    r = ref(corpus2, "cubic-chain")
    out = parsed(text)
    assert any(rec["status"] == "pass" for rec in out.records)
    assert checker.check_theorem5(out, r) == []

    def wrong(obj):
        if obj["status"] == "pass" and obj["check"] != "summary":
            obj["detail"]["dim"] += 1
        return obj

    assert checker.check_theorem5(parsed(edit(text, wrong)), r)


def test_table1(corpus2):
    code, text = cli("table1", "cubic-chain")
    r = ref(corpus2, "cubic-chain")
    assert checker.check_table1(parsed(text), r) == []

    def wrong(obj):
        if obj["check"] == "table1[row=12]":
            obj["detail"]["checked"] += 1
        return obj

    assert checker.check_table1(parsed(edit(text, wrong)), r)
    dropped = edit(text, lambda o: None if o["check"] == "table1[row=3]" else o)
    assert checker.check_table1(parsed(dropped), r)


def test_table1_sampled_supply(tmp_path):
    p = 2
    E = inputs.from_moorekit(simplicial_corpus(p)["cubic-chain"])
    path = tmp_path / "doc.json"
    path.write_text(inputs.document_json({"cc": E}, p))
    doc = json.loads(path.read_text())
    code, text = cli("--exhaustive-bound", "2", "--budget", "3", "--input", str(path),
                     "table1", "cc")
    r = ref(doc, "cc")
    assert checker.sampled_rows(r, 2, 3) > 0
    assert checker.check_table1(parsed(text), r, 2, 3) == []
    assert checker.check_table1(parsed(text), r)


@pytest.mark.parametrize("table", [2, 3, 4])
def test_tables(table):
    code, text = cli("tables", str(table), "cubic-chain")
    out = parsed(text)
    assert checker.check_tables(out, table) == []
    first = out.records[0]["check"]
    assert checker.check_tables(parsed(edit(text, lambda o: None if o["check"] == first else o)),
                                table)


def test_roundtrip():
    code, text = cli("roundtrip", "--level", "1")
    assert checker.check_all_pass(parsed(text)) == []
    broken = edit(text, lambda o: dict(o, status="fail") if o["check"].startswith("roundtrip1") else o)
    assert checker.check_all_pass(parsed(broken))


# -- emitted documents ---------------------------------------------------------


@pytest.mark.parametrize("cmd,name", [("to-xmod", "ideal-pair"), ("to-2xmod", "cubic-chain"),
                                      ("to-3xmod", "sq0-lifting")])
def test_extraction(corpus2, cmd, name):
    code, text = cli(cmd, name)
    r = ref(corpus2, name)
    assert checker.check_extraction(parsed(text), r) == []
    out = parsed(text)
    doc = out.documents[0]
    section = next(k for k in ("three_crossed_modules", "two_crossed_modules",
                               "crossed_modules") if doc.get(k))
    (body,) = doc[section].values()
    key = "boundary" if section == "crossed_modules" else "d1"
    dims, _, _ = checker.emitted_complex(doc)
    fill = 0 if np.any(body[key]) else 1  # change the rank of the lowest boundary
    body[key] = np.full((dims[0], dims[1]), fill).tolist()
    assert checker.check_extraction(out, r)


def test_extraction_kunneth(tmp_path):
    p = 2
    c = {n: inputs.from_moorekit(E) for n, E in simplicial_corpus(p).items()}
    T = inputs.tensor_simplicial(c["ideal-pair"], c["ideal-pair"])
    path = tmp_path / "t.json"
    path.write_text(inputs.document_json({"t": T}, p))
    doc = json.loads(path.read_text())
    h = checker.moore_data(checker.levels_from_document(doc, "t")).homology
    prediction = checker.kunneth(*[checker.moore_data(
        checker.levels_from_document(json.loads(inputs.document_json({"f": c["ideal-pair"]}, p)),
                                     "f")).homology] * 2)
    assert h == prediction
    code, text = cli("--input", str(path), "to-3xmod", "t")
    assert checker.check_extraction(parsed(text), ref(doc, "t", prediction)) == []
    wrong = (prediction[0] + 1,) + prediction[1:]
    assert checker.check_extraction(parsed(text), ref(doc, "t", wrong))


def test_verify_3xmod_against_to_3xmod(tmp_path):
    code, text = cli("to-3xmod", "cubic-chain")
    out = parsed(text)
    to3 = checker.axiom_statuses(out, "to-3xmod[cubic-chain]")
    path = tmp_path / "emitted.json"
    path.write_text(json.dumps(out.documents[0]))
    code, vtext = cli("--input", str(path), "verify-3xmod", "cubic-chain-3xmod")
    assert checker.check_verify_against(parsed(vtext), to3) == []
    key = sorted(to3)[0]
    flipped = dict(to3, **{key: "fail" if to3[key] == "pass" else "pass"})
    assert checker.check_verify_against(parsed(vtext), flipped)


def test_verify_relabelling_is_one_way():
    out = checker.Output([], [{"check": "v/3CM2", "status": "fail"}], None)
    assert checker.check_verify_against(out, {"3CM2": "discrepant"}) == []
    out = checker.Output([], [{"check": "v/3CM2", "status": "discrepant"}], None)
    assert checker.check_verify_against(out, {"3CM2": "fail"})


# -- input generators ----------------------------------------------------------


def test_permutation_keeps_identities_and_moore_data():
    E = inputs.from_moorekit(simplicial_corpus(3)["cubic-chain"])
    rng = np.random.default_rng(5)
    P = inputs.permute_simplicial(E, rng)
    assert any(not np.array_equal(a, b) for a, b in zip(E.structures, P.structures))
    for X in (E, P):
        doc = json.loads(inputs.document_json({"x": X}, 3))
        r = ref(doc, "x")
        assert r.violations == []
        assert r.moore.dims == (1, 2, 1, 0, 0)


def test_tensor_of_degree3_object():
    c = {n: inputs.from_moorekit(E) for n, E in simplicial_corpus(2).items()}
    T = inputs.tensor_simplicial(c["ideal-pair"], c["sq0-lifting"])
    assert T.dims == (2, 6, 16, 35, 66)
    doc = json.loads(inputs.document_json({"t": T}, 2))
    r = ref(doc, "t")
    assert r.violations == []
    assert r.moore.dims == (2, 4, 6, 3, 0)
    assert r.moore.homology == (1, 1, 1, 0)


# -- workloads and traces --------------------------------------------------------


def test_job_lists():
    cli_jobs = workloads.jobs("corpus-cli", 3)
    assert len(cli_jobs) == 26
    kept = {(j.p, j.command[0], j.name) for j in cli_jobs} & workloads.KEPT_FAILING
    assert kept == workloads.KEPT_FAILING
    assert sorted(map(repr, cli_jobs)) == sorted(map(repr, workloads.jobs("corpus-cli", 4)))
    for seed in range(20):
        order = workloads.jobs("tensor-extract", seed)
        for i, job in enumerate(order):
            if job.command[0] == "verify-3xmod":
                assert any(o.command[0] == "to-3xmod" and o.name + "-3xmod" == job.name
                           for o in order[:i])


def test_self_time_subtracts_children():
    names = ["a.f", "a.g"]
    spans = np.array([[0, -1, 0.0, 10.0],   # f, the root
                      [1, 0, 1.0, 4.0],     # g inside f
                      [1, 0, 5.0, 6.0],     # g inside f
                      [0, 2, 5.2, 5.7]])    # f inside the second g
    totals = tracing.layer_totals(names, spans, {"x.y.calls": 3})
    assert totals["a.f.calls"] == 2
    assert totals["a.f.self_s"] == pytest.approx(10 - 4 + 0.5)
    assert totals["a.g.self_s"] == pytest.approx(3 + 1 - 0.5)
    assert totals["a.self_s"] == pytest.approx(10)
    assert totals["x.y.calls"] == 3
