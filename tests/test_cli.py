import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorekit import cli, coeff, corpus
from moorekit.cli import main, parse_args, run_command
from moorekit.coeff import Algebra, algebras_equal
from moorekit.document import Document, corpus_document, load_document
from moorekit.simplicial import TruncatedSimplicialAlgebra
from reference import cm_zero_module_bad, truncate

S2 = ["()", "(1)", "(0)", "(1,0)"]
S4 = ["()", "(3)", "(2)", "(3,2)", "(1)", "(3,1)", "(2,1)", "(3,2,1)",
      "(0)", "(3,0)", "(2,0)", "(3,2,0)", "(1,0)", "(3,1,0)", "(2,1,0)",
      "(3,2,1,0)"]


def run(argv):
    out = io.StringIO()
    args = parse_args(argv)
    code = run_command(args, out)
    return code, out.getvalue()


def records(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_sset_listings():
    code, out = run(["sset", "2"])
    assert code == 0
    assert records(out)[0]["detail"]["elements"] == S2
    code, out = run(["sset", "4"])
    assert records(out)[0]["detail"]["elements"] == S4


def test_pset_listing_and_pairings():
    code, out = run(["pset", "4"])
    assert code == 0
    assert len(records(out)[0]["detail"]["elements"]) == 25
    code, out = run(["pairings"])
    recs = records(out)
    assert recs[1]["detail"]["elements"][0] == {
        "alpha": "(1,0)", "beta": "(2)", "x_in": "NE1", "y_in": "NE2"}


def test_every_line_is_json_and_last_is_summary():
    code, out = run(["verify-xmod", "ideal-pair"])
    recs = records(out)
    assert code == 0
    assert recs[-1]["check"] == "summary"
    assert all("status" in r for r in recs)


def test_corpus_pipes_into_named_checks(tmp_path):
    code, out = run(["corpus"])
    assert code == 0
    doc_path = tmp_path / "corpus.json"
    doc_path.write_text(out.strip().splitlines()[0])
    code2, out2 = run(["--input", str(doc_path), "verify-xmod", "ideal-pair"])
    assert code2 == 0
    code3, out3 = run(["--input", str(doc_path), "moore", "cubic-chain"])
    assert code3 == 0
    assert records(out3)[0]["detail"]["dims"] == [1, 2, 1, 0, 0]


def test_validate_dispatch():
    for name in ("ideal-pair", "constant", "abelian"):
        code, out = run(["validate", name])
        assert code == 0, out


def test_exit_code_2_for_audit_discrepancies():
    code, out = run(["--char", "3", "to-3xmod", "cubic-chain"])
    assert code == 2
    recs = [r for r in records(out) if "status" in r]  # skip the document line
    disc = [r for r in recs if r["status"] == "discrepant"]
    assert any("3CM2" in r["check"] for r in disc)
    assert all(r["witnesses"] for r in disc if "3CM2" in r["check"])


def test_exit_code_0_for_hypothesis_failed():
    code, out = run(["lemma7", "top-degree-4"])
    assert code == 0
    assert records(out)[0]["status"] == "hypothesis-failed"


def test_exit_code_1_for_failures():
    code, out = run(["verify-xmod", "zero-module-bad"]) if False else (None, None)
    # the bad example is not in the corpus document; simulate via validate
    from moorekit.document import DocumentBuilder
    b = DocumentBuilder()
    b.crossed(cm_zero_module_bad(2), "bad")
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(b.dumps())
        path = fh.name
    try:
        code, out = run(["--input", path, "verify-xmod", "bad"])
        assert code == 1
        assert any(r["status"] == "fail" for r in records(out))
    finally:
        os.unlink(path)


def test_exit_code_65_for_unknown_name(capsys):
    assert main(["verify-xmod", "nope"]) == 65


def test_exit_code_64_for_usage(capsys):
    assert main(["no-such-command"]) == 64


@pytest.mark.parametrize("argv, message", [
    (["sset", "-1"], "-1 is negative"), (["sset", "17"], "argument n: 17 is above 16"),
    (["pset", "5"], "invalid choice: 5"),
    (["--char", "x", "validate", "ideal-pair"], "invalid literal for int()"),
    (["--char", "4", "validate", "ideal-pair"], "modulus 4 is not prime"),
    (["--char", "2,x", "corpus"], "invalid literal for int()"),
    (["--char", "4", "corpus"], "modulus 4 is not prime"),
    (["--char", "x", "roundtrip"], "invalid literal for int()"),
    (["--char", "2,4", "roundtrip"], "modulus 4 is not prime"),
    (["--char", ",", "table1", "ideal-pair"], "invalid literal for int()"),
    (["--char", ",", "roundtrip"], "invalid literal for int()"),
    (["--char", "", "corpus"], "invalid literal for int()"),
    (["--char", "2,", "moore", "ideal-pair"], "invalid literal for int()"),
    (["--char", "2,2", "moore", "ideal-pair"], "2,2: a prime is repeated"),
    (["--char", "3,2,3", "corpus"], "3,2,3: a prime is repeated")])
def test_exit_code_64_for_listing_out_of_range(argv, message, capsys):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_to_2xmod_emits_loadable_document():
    code, out = run(["to-2xmod", "cubic-chain"])
    assert code == 0
    from moorekit.document import load_document
    doc = load_document(out.strip().splitlines()[0])
    assert "cubic-chain-2xmod" in doc.two_crossed_modules


def test_theorem5_levels_and_roundtrip_cmd():
    code, out = run(["theorem5", "cubic-chain"])
    assert code == 0
    assert len(records(out)) == 4  # three levels + summary
    code2, out2 = run(["roundtrip", "--level", "1"])
    assert code2 == 0


def test_tables_command():
    code, out = run(["tables", "3", "ideal-pair"])
    assert code == 0
    assert all(r["status"] in ("confirmed", "pass") for r in records(out)[:-1])


def test_lie_verify_dispatch():
    code, out = run(["lie-verify", "heisenberg-chain"])
    assert code == 0
    code2, out2 = run(["lie-verify", "heisenberg"])
    assert code2 == 0


def test_determinism_byte_identical():
    argv = ["--char", "2,3", "roundtrip", "--level", "both"]
    _, out1 = run(argv)
    _, out2 = run(argv)
    assert out1 == out2
    _, v1 = run(["table1", "cubic-chain"])
    _, v2 = run(["table1", "cubic-chain"])
    assert v1 == v2


def test_human_rendering():
    code, out = run(["--human", "sset", "2"])
    assert code == 0
    assert "sset[2]" in out and "{" not in out.splitlines()[0][:5]



def _main_on_document(doc: dict, argv, tmp_path) -> int:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["--input", str(path), *argv])


# 4 is not prime; 2^31 - 1 overflows int64 sums at dim 3; 2^61 - 1 overflows
# them at any dim and is rejected before trial division up to its square root
@pytest.mark.parametrize("p", [4, 2 ** 31 - 1, 2 ** 61 - 1])
def test_exit_code_65_for_bad_lie_algebra_prime(p, tmp_path, capsys):
    body = {"p": p, "dim": 3, "basis": ["x", "y", "z"], "bracket": [[0, 1, 2, 1]]}
    assert _main_on_document({"lie_algebras": {"L": body}}, ["lie-verify", "L"], tmp_path) == 65
    captured = capsys.readouterr()
    assert "lie_algebras.L" in captured.err and captured.out == ""


@pytest.mark.parametrize("p", [4, 2 ** 61 - 1])
def test_exit_code_65_for_bad_algebra_prime(p, tmp_path, capsys):
    body = {"p": p, "dim": 1, "structure": [[0, 0, 0, 1]]}
    assert _main_on_document({"algebras": {"A": body}}, ["validate", "A"], tmp_path) == 65
    captured = capsys.readouterr()
    assert "algebras.A" in captured.err and captured.out == ""


# only [] holds no triples; an empty list inside it is no [i, j, k, coeff]
@pytest.mark.parametrize("structure", [[[]], [[[]]]], ids=["empty-triple", "nested-empty"])
def test_exit_code_65_for_nested_empty_structure_triples(structure, tmp_path, capsys):
    body = {"p": 2, "dim": 1, "structure": structure}
    assert _main_on_document({"algebras": {"A": body}}, ["validate", "A"], tmp_path) == 65
    assert _document_error(capsys) == "algebras.A: structure must be a list of [i, j, k, coeff]"


def test_a_failing_action_law_names_its_first_failing_tuple(tmp_path, capsys):
    # R = k[x]/(x^2) acts on a square-zero line by x.c = c and 1.c = 0, so
    # (1 x).c = c but 1.(x.c) = 0
    R = {"p": 2, "dim": 2, "basis": ["1", "x"], "identity": 0,
         "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]}
    doc = {"algebras": {"R": R, "C": {"p": 2, "dim": 1}},
           "crossed_modules": {"unital-fails": {"R": "R", "C": "C", "boundary": [],
                                                "action": [[1, 0, 0, 1]]}}}
    assert _main_on_document(doc, ["verify-xmod", "unital-fails"], tmp_path) == 1
    entry = next(r for r in records(capsys.readouterr().out)
                 if r["check"].endswith("/action-algebra"))
    assert entry["status"] == "fail"
    assert entry["witnesses"] == [{"arg0": [1, 0], "arg1": [0, 1], "arg2": [1], "arg3": [1]}]


def _three_crossed_body(section):
    from moorekit import corpus
    from moorekit.crossed import zero_extension
    from moorekit.document import DocumentBuilder
    from moorekit.lie import degenerate_lie_3cm, lie_heisenberg
    b = DocumentBuilder()
    if section == "three_crossed_modules":
        b.crossed(zero_extension(corpus.cm_ideal_dual(3), 3), "m", section)
    else:
        b.crossed(degenerate_lie_3cm(lie_heisenberg(3)), "m", section)
    return json.loads(b.dumps())


@pytest.mark.parametrize("section, command, level", [
    ("three_crossed_modules", "verify-3xmod", "C2"), ("lie_three_crossed", "lie-verify", "L2")])
@pytest.mark.parametrize("path", [("actions",), ("liftings",), ("level",), ("actions", "12"),
                                  ("liftings", "()")], ids="/".join)
def test_exit_code_65_for_missing_three_crossed_key(section, command, level, path,
                                                     tmp_path, capsys):
    doc = _three_crossed_body(section)
    body = doc[section]["m"]
    if path == ("level",):
        del body[level]
        where = f"{section}.m.{level}"
    elif len(path) == 1:
        del body[path[0]]
        where = f"{section}.m.{path[0]}"
    else:
        del body[path[0]][path[1]]
        where = f"{section}.m.{path[0]}[{path[1]}]"
    assert _main_on_document(doc, [command, "m"], tmp_path) == 65
    captured = capsys.readouterr()
    assert json.loads(captured.err)["detail"].startswith(where + ":")
    assert captured.out == ""


# every JSON key of a level, a boundary and a map of each crossed section,
# a grouped map as "<group>[<key>]", with an entry of that section
_ACTION_KEYS = ["01", "02", "03", "12", "13", "23"]
_LIFTING_KEYS = ["(1)(0)", "(2)(0)", "(2)(1)", "(1,0)(2)", "(2,0)(1)", "(0)(2,1)", "()"]


def _three_crossed_keys(prefix):
    return ([f"{prefix}{n}" for n in range(4)] + ["d1", "d2", "d3"]
            + [f"actions[{k}]" for k in _ACTION_KEYS] + [f"liftings[{k}]" for k in _LIFTING_KEYS])


_CROSSED_KEYS = [
    ("crossed_modules", "verify-xmod", "ideal-pair", ["C", "R", "boundary", "action"]),
    ("two_crossed_modules", "verify-2xmod", "cubic-chain",
     ["C2", "C1", "C0", "d2", "d1", "action_on_c1", "action_on_c2", "lifting"]),
    ("three_crossed_modules", "verify-3xmod", "m", _three_crossed_keys("C")),
    ("lie_three_crossed", "lie-verify", "heisenberg-chain", _three_crossed_keys("L")),
]


def _crossed_document(section):
    """A document holding an entry of the crossed section: the corpus, or
    for 3-crossed modules, which it lacks, one built here."""
    from moorekit.document import corpus_document
    if section == "three_crossed_modules":
        return _three_crossed_body(section)
    return json.loads(corpus_document(2))


def _entry_holding(body, key):
    """(object, key in it) of the JSON key "<key>" or "<group>[<key>]" of a body."""
    group, _, inner = key.partition("[")
    return (body[group], inner[:-1]) if inner else (body, key)


@pytest.mark.parametrize("section, command, name, key",
                         [(section, command, name, key) for section, command, name, keys
                          in _CROSSED_KEYS for key in keys])
def test_exit_code_65_for_missing_crossed_key(section, command, name, key, tmp_path, capsys):
    doc = _crossed_document(section)
    holder, inner = _entry_holding(doc[section][name], key)
    del holder[inner]
    assert _main_on_document(doc, [command, name], tmp_path) == 65
    captured = capsys.readouterr()
    assert json.loads(captured.err)["detail"].startswith(f"{section}.{name}.{key}:")
    assert captured.out == ""


@pytest.mark.parametrize("section, command, name, key", [
    ("crossed_modules", "verify-xmod", "ideal-pair", "action"),
    ("two_crossed_modules", "verify-2xmod", "cubic-chain", "lifting"),
    ("three_crossed_modules", "verify-3xmod", "m", "liftings[()]"),
    ("lie_three_crossed", "lie-verify", "heisenberg-chain", "actions[01]")])
@pytest.mark.parametrize("entry", [[0, 0, 0, "a"], [0, 0, 0], 7, {"no": "triples"}, []],
                         ids=["non-integer", "three-long", "not-a-list", "no-triples",
                              "empty-triple"])
def test_exit_code_65_for_malformed_three_crossed_map(entry, section, command, name, key,
                                                      tmp_path, capsys):
    doc = _crossed_document(section)
    holder, inner = _entry_holding(doc[section][name], key)
    holder[inner] = entry if isinstance(entry, dict) else [entry]
    assert _main_on_document(doc, [command, name], tmp_path) == 65
    captured = capsys.readouterr()
    assert json.loads(captured.err)["detail"].startswith(f"{section}.{name}.{key}")


@pytest.mark.parametrize("section, key", [("faces", "1,0"), ("degeneracies", "2,1")])
# int() reads " 1,0" and "01,0" as (1, 0), but neither is written "n,i"
@pytest.mark.parametrize("bad", ["x", "1", "1,0,2", "1,y", " 1,0", "01,0"])
def test_exit_code_65_for_malformed_simplicial_key(section, key, bad, tmp_path, capsys):
    from moorekit.document import corpus_document
    doc = json.loads(corpus_document(2))
    maps = doc["simplicial"]["ideal-pair"][section]
    maps[bad] = maps.pop(key)
    assert _main_on_document(doc, ["validate", "ideal-pair"], tmp_path) == 65
    captured = capsys.readouterr()
    where = f"simplicial.ideal-pair.{section}[{bad}]"
    assert json.loads(captured.err)["detail"].startswith(where + ":")
    assert captured.out == ""


# a face (n, i) has 1 <= n <= k and 0 <= i <= n, a degeneracy 0 <= i <= n - 1
@pytest.mark.parametrize("section, bad", [
    ("faces", "9,0"), ("faces", "1,-1"), ("faces", "0,0"), ("faces", "2,3"),
    ("degeneracies", "5,0"), ("degeneracies", "2,2"), ("degeneracies", "1,-1")])
def test_exit_code_65_for_a_simplicial_key_outside_the_truncation(section, bad, tmp_path,
                                                                  capsys):
    from moorekit.document import corpus_document
    doc = json.loads(corpus_document(2))
    maps = doc["simplicial"]["ideal-pair"][section]
    maps[bad] = maps["1,0"]
    assert _main_on_document(doc, ["validate", "ideal-pair"], tmp_path) == 65
    bound = "n" if section == "faces" else "n - 1"
    assert _document_error(capsys) == (f"simplicial.ideal-pair.{section}[{bad}]: key '{bad}' "
                                       f"outside 1 <= n <= 4, 0 <= i <= {bound}")


@pytest.mark.parametrize("labels", ['"ab"', '{"a": 0, "b": 1}', '[["a"], "b"]', '["a", {}]'],
                         ids=["string", "object", "list-label", "object-label"])
def test_exit_code_65_for_a_basis_that_is_no_list_of_labels(labels, tmp_path, capsys):
    assert _validate_with(("algebras", "ideal-pair.E0", "basis"), labels, tmp_path) == 65
    assert _document_error(capsys) == "algebras.ideal-pair.E0.basis: basis must be a list of labels"


# only [] is the zero map; an empty row list stands for a map of its own shape
@pytest.mark.parametrize("matrix, shape", [("[[]]", (1, 0)), ("[[], []]", (2, 0)),
                                           ("[[0, 0, 0]]", (1, 3))],
                         ids=["one-empty-row", "two-empty-rows", "one-row"])
def test_exit_code_65_for_a_face_matrix_of_another_shape(matrix, shape, tmp_path, capsys):
    path = ("simplicial", "ideal-pair", "faces", "1,0", "matrix")
    assert _validate_with(path, matrix, tmp_path) == 65
    assert _document_error(capsys) == (
        f"simplicial.ideal-pair.faces[1,0]: matrix shape {shape}, expected (2, 3)")


@pytest.mark.parametrize("key, value", [("seed", "x"), ("budget", [1]), ("exhaustive_bound", None),
                                        ("characteristics", ["two"]), ("characteristics", 2)])
def test_exit_code_65_for_malformed_config(key, value, tmp_path, capsys):
    from moorekit.document import corpus_document
    doc = json.loads(corpus_document(2))
    doc["config"] = {"seed": 0, "budget": 256, "exhaustive_bound": 4096, "characteristics": [2],
                     key: value}
    assert _main_on_document(doc, ["validate", "ideal-pair"], tmp_path) == 65
    captured = capsys.readouterr()
    assert json.loads(captured.err)["detail"].startswith(f"config.{key}:")
    assert captured.out == ""


# one site of each kind a document holds a number at, as a path into the document
NUMBER_SITES = [
    ("algebras", "ideal-pair.R", "structure", 0, 3),
    ("algebras", "ideal-pair.R", "structure", 1, 1),
    ("lie_algebras", "heisenberg", "bracket", 0, 3),
    ("algebras", "ideal-pair.R", "p"),
    ("algebras", "ideal-pair.R", "dim"),
    ("algebras", "ideal-pair.R", "identity"),
    ("simplicial", "ideal-pair", "k"),
    ("simplicial", "ideal-pair", "faces", "1,0", "matrix", 0, 0),
    ("crossed_modules", "ideal-pair", "boundary", 1, 0),
    ("crossed_modules", "ideal-pair", "action", 0, 3),
    ("config", "seed"),
    ("config", "characteristics", 0)]


def _validate_with(path, value, tmp_path) -> int:
    """main on `validate ideal-pair` over the p = 2 corpus document with the
    JSON text `value` at `path`."""
    from moorekit.document import corpus_document
    doc = json.loads(corpus_document(2))
    doc["config"] = {"seed": 0, "characteristics": [2]}
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = "@value@"
    (tmp_path / "doc.json").write_text(json.dumps(doc).replace('"@value@"', value))
    return main(["--input", str(tmp_path / "doc.json"), "validate", "ideal-pair"])


# every number is read by one reader: a fraction is refused, not truncated,
# and a number beyond a double (1e400) or int64 is refused, not raised
@pytest.mark.parametrize("value", ["1.5", "2.9", "1e400", "9223372036854775808"])
@pytest.mark.parametrize("path, where", zip(NUMBER_SITES, [
    "algebras.ideal-pair.R", "algebras.ideal-pair.R", "lie_algebras.heisenberg",
    "algebras.ideal-pair.R.p", "algebras.ideal-pair.R.dim", "algebras.ideal-pair.R.identity",
    "simplicial.ideal-pair.k", "simplicial.ideal-pair.faces[1,0]", "crossed_modules.ideal-pair",
    "crossed_modules.ideal-pair.action", "config.seed", "config.characteristics"]))
def test_exit_code_65_for_a_number_that_is_no_64_bit_integer(path, where, value, tmp_path,
                                                             capsys):
    assert _validate_with(path, value, tmp_path) == 65
    assert _document_error(capsys).startswith(where + ":")


# a JSON boolean is no number, so it is refused where it stands instead of
# loading as 0 or 1; so is one in place of a name or a basis label
@pytest.mark.parametrize("value", ["true", "false"])
@pytest.mark.parametrize("path", NUMBER_SITES + [("algebras", "ideal-pair.R", "basis", 0),
                                                 ("simplicial", "ideal-pair", "levels", 1)])
def test_exit_code_65_for_a_json_boolean(path, value, tmp_path, capsys):
    assert _validate_with(path, value, tmp_path) == 65
    where = path[0] + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path[1:])
    assert _document_error(capsys) == f"{where}: {value} refused: a document holds no booleans"


# a document gives every value once and every key it gives is read: a
# repeated key, a repeated triple, the identity of a Lie algebra and a key
# outside its object's schema are refused where they stand, not
# overwritten or dropped
@pytest.mark.parametrize("path, value, error", [
    (("algebras", "ideal-pair.R", "p"), '2, "p": 3', "algebras.ideal-pair.R: key 'p' given twice"),
    (("config",), '{}, "config": {}', "document: key 'config' given twice"),
    (("algebras", "ideal-pair.R", "structure"), "[[0, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 0]]",
     "algebras.ideal-pair.R: triple (0,1,1) given twice"),
    (("lie_algebras", "heisenberg", "identity"), '"x"',
     "lie_algebras.heisenberg.identity: a Lie algebra has no identity"),
    (("lie_algebras", "heisenberg", "structure"), "[[0, 1, 2, 1]]",
     "lie_algebras.heisenberg: unknown key 'structure'"),
    (("algebras", "ideal-pair.R", "bracket"), "[[0, 0, 0, 1]]",
     "algebras.ideal-pair.R: unknown key 'bracket'"),
    (("algebras", "ideal-pair.R", "idenity"), "0", "algebras.ideal-pair.R: unknown key 'idenity'"),
    (("simplicial", "ideal-pair", "faces", "1,0", "matrx"), "[[1, 0, 0], [0, 1, 0]]",
     "simplicial.ideal-pair.faces[1,0]: unknown key 'matrx'"),
    (("simplicial", "ideal-pair", "facez"), "{}", "simplicial.ideal-pair: unknown key 'facez'"),
    (("algebra",), "{}", "document: unknown key 'algebra'"),
    (("config", "sead"), "1", "config: unknown key 'sead'"),
    (("crossed_modules", "ideal-pair", "actoin"), "[]",
     "crossed_modules.ideal-pair: unknown key 'actoin'"),
    (("crossed_modules", "ideal-pair", "action"), '{"triples": [], "tripels": []}',
     "crossed_modules.ideal-pair.action: unknown key 'tripels'"),
    (("lie_three_crossed", "heisenberg-chain", "actions", "21"), "[]",
     "lie_three_crossed.heisenberg-chain.actions: unknown key '21'")],
    ids=["repeated-key", "repeated-top-key", "repeated-triple", "lie-identity",
         "lie-structure", "algebra-bracket", "idenity", "morphism-matrx", "simplicial-facez",
         "top-level-algebra", "config-key", "crossed-key", "bilinear-key", "grouped-map-key"])
def test_exit_code_65_for_a_value_given_twice_or_never_read(path, value, error, tmp_path,
                                                             capsys):
    assert _validate_with(path, value, tmp_path) == 65
    assert _document_error(capsys) == error


def test_exit_code_65_for_a_morphisms_section(tmp_path, capsys):
    # a morphism stands only where an object holds one, as a face,
    # degeneracy or boundary; a section of named morphisms is refused
    f = {"source": "ideal-pair.R", "target": "ideal-pair.R", "matrix": []}
    assert _validate_with(("morphisms",), json.dumps({"f": f}), tmp_path) == 65
    assert _document_error(capsys) == "document: unknown key 'morphisms'"


# the loader runs in a child whose address space is capped at 1 GiB, so a
# loader that allocates for the dim fails there and not on the machine
_CAPPED_VALIDATE = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from moorekit.cli import main
sys.exit(main(["--input", sys.argv[1], "validate", "A"]))
"""


@pytest.mark.parametrize("dim, labels", [(513, None), (10 ** 9, None), (10 ** 9, ["a"])])
def test_exit_code_65_for_a_dim_beyond_the_cell_bound(dim, labels, tmp_path):
    body = {"p": 2, "dim": dim, **({"basis": labels} if labels else {})}
    (tmp_path / "doc.json").write_text(json.dumps({"algebras": {"A": body}}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_VALIDATE, str(tmp_path / "doc.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 65, proc.stderr[-2000:]
    from moorekit.document import MAX_CELLS
    assert MAX_CELLS == 512 ** 3
    detail = json.loads(proc.stderr)["detail"]
    assert detail == f"algebras.A.dim: dim {dim} exceeds {MAX_CELLS} structure cells"


@pytest.mark.parametrize("name", ["top-degree-3", "top-degree-4"])
@pytest.mark.parametrize("p", [2, 3])
def test_to_2xmod_beyond_length_two_is_a_hypothesis_record(name, p):
    code, out = run(["--char", str(p), "to-2xmod", name])
    assert code == 0
    assert records(out) == [
        {"check": f"to-2xmod[{name}]", "status": "hypothesis-failed", "witnesses": [],
         "detail": {"reason": "Moore length exceeds 2"}},
        {"check": "summary", "status": "pass", "witnesses": [],
         "detail": {"records": 1, "exit": 0}}]


@pytest.fixture(scope="module")
def corpus_doc():
    from moorekit.document import corpus_document
    return json.loads(corpus_document(2))


# a value of another JSON type, for a field of any type
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
                         st.lists(st.integers(-1, 3), max_size=4),
                         st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


@st.composite
def _mutated(draw, doc):
    """doc with one field, at a random depth, renamed, retyped or dropped."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not child or not isinstance(child, (dict, list)) or draw(st.booleans()):
            break
        node = child
    action = draw(st.sampled_from(["rename", "retype", "drop"]))
    if action == "rename" and isinstance(node, dict):
        node[draw(st.text(max_size=4))] = node.pop(key)
    elif action == "drop":
        del node[key]
    else:
        node[key] = draw(_JSON_VALUES)
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), argv=st.sampled_from([
    ["validate", "ideal-pair"], ["validate", "abelian"], ["moore", "cubic-chain"],
    ["verify-xmod", "ideal-pair"], ["verify-2xmod", "cubic-chain"],
    ["lie-verify", "heisenberg-chain"]]))
def test_mutated_corpus_document_exits_with_a_contract_code(corpus_doc, data, argv):
    text = json.dumps(data.draw(_mutated(corpus_doc)))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", "-", *argv])
    assert code in (0, 1, 2, 65), err.getvalue()


def _document_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)["detail"]


def test_exit_code_65_for_a_directory_input(tmp_path, capsys):
    assert main(["--input", str(tmp_path), "validate", "ideal-pair"]) == 65
    assert _document_error(capsys).startswith("input: ")


def test_exit_code_65_for_a_missing_input(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "absent.json"), "validate", "ideal-pair"]) == 65
    assert _document_error(capsys).startswith("input: ")


def test_exit_code_65_for_a_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"algebras": {"\xe9": {}}}'.encode("latin-1"))
    assert main(["--input", str(path), "validate", "ideal-pair"]) == 65
    assert _document_error(capsys).startswith("input: ")


# strict decoding raises on read; UTF-8 mode hands the bytes on as surrogates
@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_exit_code_65_for_non_utf8_stdin(errors, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b'{"simplicial": {"\xff": {}}}'),
                             encoding="utf-8", errors=errors)
    with mock.patch.object(sys, "stdin", stdin):
        assert main(["--input", "-", "validate", "ideal-pair"]) == 65
    assert _document_error(capsys).startswith("input: ")


def test_exit_code_65_for_json_nested_beyond_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["--input", str(path), "validate", "ideal-pair"]) == 65
    assert _document_error(capsys).startswith("document: invalid JSON")


@pytest.mark.parametrize("command", ["validate", "moore"])
def test_exit_code_65_for_a_negative_truncation_level(command, tmp_path, capsys):
    doc = {"simplicial": {"E": {"k": -1, "levels": []}}}
    assert _main_on_document(doc, [command, "E"], tmp_path) == 65
    assert _document_error(capsys).startswith("simplicial.E.k: ")


@pytest.mark.parametrize("argv, detail", [
    (["verify-xmod", "constant"], "cli: 'constant' is a simplicial, expected crossed"),
    (["verify-3xmod", "cubic-chain"], "cli: 'cubic-chain' is a simplicial, expected three-crossed"),
    (["moore", "mult-zmod"], "cli: 'mult-zmod' is a crossed, expected simplicial"),
    (["moore", "ideal-pair.E0"], "cli: 'ideal-pair.E0' is an algebra, expected simplicial"),
    (["lie-verify", "ideal-pair.E0"], "lie-verify: 'ideal-pair.E0' is an algebra, not Lie data"),
    (["validate", "mult-zmod"], "validate: 'mult-zmod' is a crossed, not validatable directly"),
    (["lie-verify", "mult-zmod"], "lie-verify: 'mult-zmod' is a crossed, not Lie data")])
def test_exit_code_65_for_a_name_of_another_kind(argv, detail, capsys):
    assert main(argv) == 65
    assert _document_error(capsys) == detail


@pytest.mark.parametrize("argv, check", [
    (["validate", "ideal-pair"], "validate[ideal-pair]"),
    (["validate", "abelian"], "validate[abelian]"),
    (["validate", "ideal-pair.E2"], "validate[ideal-pair.E2]"),
    (["lie-verify", "heisenberg"], "lie-verify[heisenberg]")])
def test_validation_records(argv, check):
    code, out = run(argv)
    assert code == 0
    assert records(out)[0] == {"check": check, "status": "pass", "witnesses": []}


def _main(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# one command of each kind a corpus section holds
_COMMAND_OF_SECTION = {"crossed_modules": "verify-xmod", "two_crossed_modules": "verify-2xmod",
                       "simplicial": "moore", "algebras": "validate",
                       "lie_algebras": "lie-verify", "lie_three_crossed": "lie-verify"}
_CARRIER_NAMES = ("ideal-pair.E0", "ideal-pair.C", "sq0-lifting.C2", "heisenberg-chain.L0")


def _lazy_cases(doc):
    for section, command in _COMMAND_OF_SECTION.items():
        for name in doc.get(section, {}):
            if "." not in name:
                yield [command, name]
    yield from (["validate", name] for name in _CARRIER_NAMES)
    yield from (["verify-xmod", "constant"], ["moore", "nope"], ["moore", "ideal-pair.E9"])


@pytest.mark.parametrize("p", [2, 3])
def test_named_command_on_the_lazy_corpus_matches_the_whole_document(p, tmp_path):
    code, whole, _ = _main(["--char", str(p), "corpus"])
    path = tmp_path / "corpus.json"
    path.write_text(whole)
    cases = list(_lazy_cases(json.loads(whole)))
    assert len(cases) > 25
    for argv in cases:
        lazy = _main(["--char", str(p), *argv])
        assert lazy == _main(["--char", str(p), "--input", str(path), *argv]), argv
    assert _main(["--char", str(p), "validate", "ideal-pair.E0"])[0] == 0


def test_named_command_per_prime_matches_the_single_prime_runs():
    argv = ["verify-2xmod", "cubic-chain"]
    code, out, _ = _main(["--char", "2,3", *argv])
    expected = []
    for p in (2, 3):
        single = records(_main(["--char", str(p), *argv])[1])[:-1]
        expected += [{**r, "check": r["check"] + f"@p={p}"} for r in single]
    assert records(out)[:-1] == expected


@pytest.fixture
def built_names(monkeypatch):
    """(builder, entry name) of every corpus entry built while it is active."""
    from moorekit import corpus
    seen = []
    for builder in ("crossed_corpus", "two_crossed_corpus", "simplicial_corpus",
                    "lie_corpus", "lie_three_corpus"):
        def recording(*args, _build=getattr(corpus, builder), _builder=builder, **kwargs):
            out = _build(*args, **kwargs)
            seen.extend((_builder, name) for name in out)
            return out
        monkeypatch.setattr(corpus, builder, recording)
    return seen


def test_a_named_command_builds_only_the_entries_of_its_name(built_names):
    assert run(["moore", "cubic-chain"])[0] == 0
    assert sorted(built_names) == [("simplicial_corpus", "cubic-chain"),
                                   ("two_crossed_corpus", "cubic-chain")]
    built_names.clear()
    assert run(["lie-verify", "abelian"])[0] == 0
    assert built_names == [("lie_corpus", "abelian")]


def _document_names(doc: Document) -> dict:
    """The document name of each algebra of doc, keyed by id."""
    return {id(A): name for table in (doc.algebras, doc.lie_algebras) for name, A in table.items()}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_named_command_receives_the_objects_the_round_trip_loads(p):
    # every entry and carrier of the corpus, as a named command on the
    # built-in corpus receives it, equals its round trip through JSON: the
    # registered names, the structure constants, every matrix and tensor
    # (reduced mod p) and the entry names; a carrier keeps its builder's label
    loaded = load_document(corpus_document(p))
    loaded_names = _document_names(loaded)
    sections = [f.name for f in fields(Document)]
    entries = {name for section in sections for name in getattr(loaded, section) if "." not in name}
    for entry in sorted(entries):
        [(_, doc)] = cli._documents(SimpleNamespace(input=None, name=entry, char=(p,)))
        names = _document_names(doc)
        for section in sections:
            table, want_table = getattr(doc, section), getattr(loaded, section)
            assert set(table) == {name for name in want_table if name.split(".")[0] == entry}
            for name, obj in table.items():
                want = want_table[name]
                assert type(obj) is type(want), name
                if "." not in name:
                    assert obj.name == want.name == name
                if isinstance(obj, Algebra):
                    assert algebras_equal(obj, want) and obj.basis_names == want.basis_names, name
                    continue
                # each level is the algebra registered under the loaded level's name
                assert ([names[id(A)] for A in obj.levels]
                        == [loaded_names[id(A)] for A in want.levels]), name
                if isinstance(obj, TruncatedSimplicialAlgebra):
                    pairs = [(obj.faces, want.faces), (obj.degeneracies, want.degeneracies)]
                else:
                    pairs = [(dict(enumerate(obj.boundaries)), dict(enumerate(want.boundaries)))]
                    assert list(obj.maps) == list(want.maps), name
                    assert all(np.array_equal(obj.maps[k].tensor, want.maps[k].tensor)
                               for k in obj.maps), name
                for got, expected in pairs:
                    assert got.keys() == expected.keys(), name
                    assert all(np.array_equal(got[k].matrix, expected[k].matrix) for k in got), name


# one command of each kind the corpus holds, on entry names and on carrier names
_ONE_PER_KIND = [["validate", "ideal-pair.E0"], ["validate", "sq0-lifting.C2"],
                 ["moore", "ideal-pair"], ["to-3xmod", "cubic-chain"], ["verify-xmod", "ideal-pair"],
                 ["verify-2xmod", "sq0-lifting"], ["lie-verify", "abelian"],
                 ["validate", "heisenberg-chain.L0"], ["lie-verify", "heisenberg-chain"]]


@pytest.mark.parametrize("char", ["2", "3", "2,3"])
def test_a_named_command_on_the_built_in_corpus_parses_no_json(char, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("JSON parsed on the built-in path")

    monkeypatch.setattr(json, "loads", refused)
    monkeypatch.setattr(cli, "load_document", refused)
    guarded = [_main(["--char", char, *argv]) for argv in _ONE_PER_KIND]
    monkeypatch.undo()
    for argv, result in zip(_ONE_PER_KIND, guarded):
        assert result == _main(["--char", char, *argv]) and result[0] in (0, 2), argv
        assert records(result[1])[-1]["check"] == "summary"


@pytest.mark.parametrize("p", [2, 3])
def test_every_corpus_document_name_is_an_entry_or_one_of_its_carriers(p):
    from moorekit import corpus
    from moorekit.document import corpus_document
    entries = {name for build in (corpus.crossed_corpus, corpus.two_crossed_corpus,
                                  corpus.simplicial_corpus, corpus.lie_corpus,
                                  corpus.lie_three_corpus)
               for name in build(p)}
    assert not any("." in name for name in entries)
    doc = json.loads(corpus_document(p))
    for section, table in doc.items():
        for name in table:
            assert name in entries or name.split(".", 1)[0] in entries, (section, name)


# sha256 of the whole stdout and the exit code of three commands on two
# corpus objects, as the int64-only arithmetic printed them.  Every product
# is exact, so they stay byte for byte the same with the default size floor
# and with every product in float64.
STDOUT_DIGESTS = {
    (2, "to-3xmod", "cubic-chain"): (0, "416610d4c4f86b07ca87cdf9b6eea76d199525d2577c610e6a624f0d3b435678"),
    (2, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (2, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "to-3xmod", "top-degree-4"): (0, "26d068f628ce0b499ca4849290d07ffca4f7620dce07279dd341952dc3dff5a4"),
    (2, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (2, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "to-3xmod", "cubic-chain"): (2, "41293a7428c31783318e97597baf17d9a9708889a25d6b00d5852d3728dee9cb"),
    (3, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (3, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "to-3xmod", "top-degree-4"): (0, "4ea2ab4f42caa74eb9e40a40c29a9ddf623bd7280dc2de1202828f4175260455"),
    (3, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (3, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "to-3xmod", "cubic-chain"): (2, "a617cf5b95c8e09256da04dca7d127139d4ad82639522d7133e37523b61d7ee1"),
    (5, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (5, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "to-3xmod", "top-degree-4"): (0, "0d5f6001938de61c93fccbcf3fed5f94a9f6cb600caa8261bdf2359c7c964b28"),
    (5, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (5, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
}


@pytest.mark.parametrize("floor", ["default", "all-float"])
@pytest.mark.parametrize("key", list(STDOUT_DIGESTS),
                         ids=[f"p{p}-{cmd.replace(' ', '')}-{name}" for p, cmd, name in STDOUT_DIGESTS])
def test_stdout_digest_is_pinned(key, floor, monkeypatch):
    if floor == "all-float":
        monkeypatch.setattr(coeff, "_BLAS_MADDS", 0)
    p, cmd, name = key
    code, out = run(["--char", str(p), *cmd.split(), name])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_DIGESTS[key]


# sha256 of the record lines (every line but an emitted document) and the
# exit code of the commands whose documents drop out: the crossed and
# 2-crossed extractions (to-xmod on cubic-chain and top-degree-4 divides
# NE_1), the verifiers on every crossed and 2-crossed corpus name, and
# both round trips.
RECORD_DIGESTS = {
    (2, "to-xmod", "top-degree-4"): (0, "b554c96ec7f2d261f8ea9b85c33a4bfc79cafb321007d3182da1c4656ba4dd79"),
    (2, "to-xmod", "cubic-chain"): (0, "2612b9d79fd75e40ab4a33aed466e25bd9017d7679c652fdb58afe0e15354e17"),
    (2, "to-2xmod", "module-id"): (0, "61ebad4b3ac5e3b63b99e668958c512a367fd8c5e61d39e152d5635ea19ba42b"),
    (2, "verify-xmod", "ideal-pair"): (0, "d198d6f88dacdabf1c4faade03793574d97d6389411979158684c2da4f650e75"),
    (2, "verify-xmod", "ideal-pair-cubic"): (0, "8b10e145676b7c6b835f8fe682617aab1e4cdee78c2b30052fcdb55be6e76885"),
    (2, "verify-xmod", "zero-module"): (0, "45491f48500e4d64ca6cb20ab5592cdf52be2369d6733b52adefd0dea3272b40"),
    (2, "verify-xmod", "mult-zmod"): (0, "82687abc877dc8c320097fc5b5cbfbbfcd0a72ae2a541268bb7b2579f5f514f1"),
    (2, "verify-xmod", "mult-dual"): (0, "eb273009e6ff71b4e186877ed59e5bd717e1b4c6edf2ecdde99ae53bf73673c0"),
    (2, "verify-2xmod", "sq0-lifting"): (0, "6ad3b6b3ae5f588e0a0acb26a8bd2acbd20b87d21635da83d4980919c20f6ef2"),
    (2, "verify-2xmod", "cubic-chain"): (0, "0f0fe156d2a163f29ef186e71f4a9b18f30ad135bf1fecd59a88b4faadca8be8"),
    (2, "verify-2xmod", "module-id"): (0, "86133387801657dd92f6adff88ec162f27b3a6c9880ef04cd69841031ca2a0f4"),
    (2, "verify-2xmod", "remark1-ideal-pair"): (0, "bd9c950dd880330a9dda7c8a9bf0015cb455715d2f4692e441f584a1fa6f1aa8"),
    (2, "verify-2xmod", "remark1-zero-module"): (0, "167f4571fd4a75ba327414abe792331e8a7a0ce707c5ad1783a115711d202a78"),
    (2, "roundtrip", ""): (0, "8e0bec67a125807cf649124735a06eeb6dac8aa75a8e1311152f81c59fe27122"),
    (3, "to-xmod", "top-degree-4"): (0, "b554c96ec7f2d261f8ea9b85c33a4bfc79cafb321007d3182da1c4656ba4dd79"),
    (3, "to-xmod", "cubic-chain"): (0, "2612b9d79fd75e40ab4a33aed466e25bd9017d7679c652fdb58afe0e15354e17"),
    (3, "to-2xmod", "module-id"): (0, "61ebad4b3ac5e3b63b99e668958c512a367fd8c5e61d39e152d5635ea19ba42b"),
    (3, "verify-xmod", "ideal-pair"): (0, "d198d6f88dacdabf1c4faade03793574d97d6389411979158684c2da4f650e75"),
    (3, "verify-xmod", "ideal-pair-cubic"): (0, "8b10e145676b7c6b835f8fe682617aab1e4cdee78c2b30052fcdb55be6e76885"),
    (3, "verify-xmod", "zero-module"): (0, "45491f48500e4d64ca6cb20ab5592cdf52be2369d6733b52adefd0dea3272b40"),
    (3, "verify-xmod", "mult-zmod"): (0, "82687abc877dc8c320097fc5b5cbfbbfcd0a72ae2a541268bb7b2579f5f514f1"),
    (3, "verify-xmod", "mult-group-line"): (0, "01791eefafd73e2885b0da51b352e634f055f4f7442a65d0b4806978da7aa68d"),
    (3, "verify-2xmod", "sq0-lifting"): (0, "6ad3b6b3ae5f588e0a0acb26a8bd2acbd20b87d21635da83d4980919c20f6ef2"),
    (3, "verify-2xmod", "cubic-chain"): (0, "0f0fe156d2a163f29ef186e71f4a9b18f30ad135bf1fecd59a88b4faadca8be8"),
    (3, "verify-2xmod", "module-id"): (0, "86133387801657dd92f6adff88ec162f27b3a6c9880ef04cd69841031ca2a0f4"),
    (3, "verify-2xmod", "remark1-ideal-pair"): (0, "bd9c950dd880330a9dda7c8a9bf0015cb455715d2f4692e441f584a1fa6f1aa8"),
    (3, "verify-2xmod", "remark1-zero-module"): (0, "167f4571fd4a75ba327414abe792331e8a7a0ce707c5ad1783a115711d202a78"),
    (3, "roundtrip", ""): (0, "ec6a822b7668a895cf77ba36e44a10b37fa0cfe915b4fefaadc0be03452b47d2"),
    (5, "to-xmod", "top-degree-4"): (0, "b554c96ec7f2d261f8ea9b85c33a4bfc79cafb321007d3182da1c4656ba4dd79"),
    (5, "to-xmod", "cubic-chain"): (0, "2612b9d79fd75e40ab4a33aed466e25bd9017d7679c652fdb58afe0e15354e17"),
    (5, "to-2xmod", "module-id"): (0, "61ebad4b3ac5e3b63b99e668958c512a367fd8c5e61d39e152d5635ea19ba42b"),
    (5, "verify-xmod", "ideal-pair"): (0, "d198d6f88dacdabf1c4faade03793574d97d6389411979158684c2da4f650e75"),
    (5, "verify-xmod", "ideal-pair-cubic"): (0, "8b10e145676b7c6b835f8fe682617aab1e4cdee78c2b30052fcdb55be6e76885"),
    (5, "verify-xmod", "zero-module"): (0, "45491f48500e4d64ca6cb20ab5592cdf52be2369d6733b52adefd0dea3272b40"),
    (5, "verify-xmod", "mult-zmod"): (0, "82687abc877dc8c320097fc5b5cbfbbfcd0a72ae2a541268bb7b2579f5f514f1"),
    (5, "verify-xmod", "mult-group-line"): (0, "01791eefafd73e2885b0da51b352e634f055f4f7442a65d0b4806978da7aa68d"),
    (5, "verify-2xmod", "sq0-lifting"): (0, "6ad3b6b3ae5f588e0a0acb26a8bd2acbd20b87d21635da83d4980919c20f6ef2"),
    (5, "verify-2xmod", "cubic-chain"): (0, "0f0fe156d2a163f29ef186e71f4a9b18f30ad135bf1fecd59a88b4faadca8be8"),
    (5, "verify-2xmod", "module-id"): (0, "86133387801657dd92f6adff88ec162f27b3a6c9880ef04cd69841031ca2a0f4"),
    (5, "verify-2xmod", "remark1-ideal-pair"): (0, "bd9c950dd880330a9dda7c8a9bf0015cb455715d2f4692e441f584a1fa6f1aa8"),
    (5, "verify-2xmod", "remark1-zero-module"): (0, "167f4571fd4a75ba327414abe792331e8a7a0ce707c5ad1783a115711d202a78"),
    (5, "roundtrip", ""): (0, "ec6a822b7668a895cf77ba36e44a10b37fa0cfe915b4fefaadc0be03452b47d2"),
}


@pytest.mark.parametrize("key", list(RECORD_DIGESTS),
                         ids=[f"p{p}-{cmd}-{name}".rstrip("-") for p, cmd, name in RECORD_DIGESTS])
def test_record_lines_digest_is_pinned(key):
    p, cmd, name = key
    code, out = run(["--char", str(p), cmd, *([name] if name else [])])
    lines = [line for line in out.splitlines() if "check" in json.loads(line)]
    assert (code, hashlib.sha256("\n".join(lines).encode()).hexdigest()) == RECORD_DIGESTS[key]


def _argparse_parser():
    """The argparse parser the command table replaced, kept as a reference."""
    import argparse
    from moorekit.cli import primes, sset_level
    ap = argparse.ArgumentParser(prog="moorekit")
    ap.add_argument("--input")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=256)
    ap.add_argument("--exhaustive-bound", type=int, default=4096)
    ap.add_argument("--char", type=primes, default=(2,))
    ap.add_argument("--human", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "moore", "table1", "lemma7", "verify-xmod",
                 "verify-2xmod", "verify-3xmod", "lie-verify"):
        sub.add_parser(name).add_argument("name")
    c = sub.add_parser("theorem5")
    c.add_argument("name")
    c.add_argument("--level", type=int, choices=(2, 3, 4), default=None)
    for name in ("to-xmod", "to-2xmod", "to-3xmod"):
        c = sub.add_parser(name)
        c.add_argument("name")
        if name != "to-xmod":
            c.add_argument("--convention", choices=("prop3", "def1"), default="prop3")
    c = sub.add_parser("tables")
    c.add_argument("table", type=int, choices=(2, 3, 4))
    c.add_argument("name")
    c.add_argument("--convention", choices=("prop3", "def1"), default="prop3")
    sub.add_parser("sset").add_argument("n", type=sset_level)
    sub.add_parser("pset").add_argument("n", type=int, choices=(2, 3, 4))
    sub.add_parser("pairings")
    sub.add_parser("roundtrip").add_argument("--level", choices=("1", "2", "both"),
                                             default="both")
    sub.add_parser("corpus")
    return ap


_VALID_ARGVS = [
    ["validate", "ideal-pair"], ["moore", "m"], ["table1", "m"], ["lemma7", "m"],
    ["verify-xmod", "m"], ["verify-2xmod", "m"], ["verify-3xmod", "m"], ["lie-verify", "m"],
    ["theorem5", "m"], ["theorem5", "m", "--level", "3"], ["theorem5", "--level=4", "m"],
    ["theorem5", "--lev", "2", "m", "--level", "3"],
    ["to-xmod", "m"], ["to-2xmod", "m"], ["to-2xmod", "m", "--convention", "def1"],
    ["to-3xmod", "--conv=def1", "m"], ["to-3xmod", "m", "--c", "prop3"],
    ["tables", "3", "m"], ["tables", "2", "--convention", "def1", "m"],
    ["tables", "--co=def1", "4", "m", "--convention", "prop3"],
    ["sset", "0"], ["sset", "4"], ["sset", "16"], ["pset", "2"], ["pset", "04"], ["pairings"],
    ["roundtrip"], ["roundtrip", "--level", "1"], ["roundtrip", "--level=2", "--le", "both"],
    ["corpus"],
    ["--input", "doc.json", "--seed", "7", "--budget", "3", "--exhaustive-bound", "0",
     "--char", "2,3", "--human", "corpus"],
    ["--input=-", "--seed=-3", "--budget=1", "--exhaustive-bound=-1", "--char=5", "moore", "-"],
    ["--inp", "a", "--se", "1", "--bu", "9", "--ex", "2", "--ch", "3", "--hu", "sset", "1"],
    ["--seed", "1", "--seed", "2", "--char", "2", "--char", "3,2", "--human", "--human",
     "pairings"],
    ["--seed", "-5", "--input", "", "sset", "3"],
]


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
def test_command_table_reads_what_argparse_read(argv):
    assert vars(parse_args(argv)) == vars(_argparse_parser().parse_args(argv))


# usage errors of both parsers: unknown command or option, a missing or extra
# positional, a missing value, a bad conversion or a bad choice
_INVALID_ARGVS = [
    [], ["nope"], ["--nope", "sset", "1"], ["sset", "1", "--seed", "2"], ["-x", "sset", "1"],
    ["sset"], ["sset", "1", "2"], ["tables", "3"], ["pairings", "x"], ["--seed"],
    ["sset", "1", "--level"], ["--seed", "x", "sset", "1"], ["--input", "--human", "sset", "1"],
    ["--h", "sset", "1"], ["--human=1", "sset", "1"], ["sset", "-x"], ["sset", "1.5"],
    ["theorem5", "m", "--level", "5"], ["theorem5", "m", "--level", "both"],
    ["roundtrip", "--level", "3"], ["tables", "5", "m"], ["to-xmod", "m", "--convention", "def1"],
    ["to-3xmod", "m", "--convention", "other"], ["--char", "2,2", "corpus"], ["sset", "17"]]


@pytest.mark.parametrize("argv", _INVALID_ARGVS, ids=" ".join)
def test_usage_errors_exit_64_with_nothing_on_stdout(argv, capsys):
    with pytest.raises(SystemExit):
        _argparse_parser().parse_args(argv)
    capsys.readouterr()
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("moorekit: error: argument ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("argv", [["table1", "module-id"], ["to-3xmod", "cubic-chain"]])
def test_a_budget_below_one_is_a_usage_error(budget, argv, capsys):
    assert main(["--exhaustive-bound", "1", "--budget", budget, *argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: {budget} is below 1" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--char", "3", "sset", "--he"]])
def test_help_lists_every_command_and_exits_0(argv, capsys):
    from moorekit.cli import COMMANDS
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: moorekit [--input INPUT]")
    assert all(f"\n  {command}" in out for command in COMMANDS)
    assert "  tables {2,3,4} NAME [--convention {prop3,def1}]\n" in out


def test_a_job_imports_no_argument_parsing_library():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import sys\n"
              "from moorekit.cli import main\n"
              "code = main(['--char', '2', 'sset', '4'])\n"
              "print(code, *(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0"


# a short listing stays in the stdout buffer until main flushes it; the
# corpus at two primes is written past the buffer
@pytest.mark.parametrize("argv", [["sset", "2"], ["--char", "2,3", "corpus"]], ids=" ".join)
def test_a_closed_pipe_exits_quietly_with_the_documented_status(argv):
    from moorekit import cli
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    try:
        done = subprocess.run([sys.executable, "-m", "moorekit.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr
    assert done.stderr == b""
    assert done.returncode == cli.BROKEN_PIPE_EXIT == 141


@pytest.fixture(scope="module")
def short_truncations(tmp_path_factory):
    """Paths of the documents holding cubic-chain at p = 2 cut at k = 0..3 as E."""
    from moorekit import corpus
    from moorekit.document import DocumentBuilder
    E = corpus.simplicial_corpus(2, {"cubic-chain"})["cubic-chain"]
    paths = {}
    for k in range(4):
        b = DocumentBuilder()
        b.simplicial(truncate(E, k), "E")
        paths[k] = tmp_path_factory.mktemp(f"k{k}") / "doc.json"
        paths[k].write_text(b.dumps())
    return paths


@pytest.mark.parametrize("argv", [["moore"], ["validate"], ["theorem5"], ["theorem5", "--level", "2"],
                                  ["table1"], ["lemma7"], ["to-xmod"], ["to-2xmod"], ["to-3xmod"],
                                  ["tables", "2"]], ids=" ".join)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_short_truncation_is_answered_without_a_traceback(k, argv, short_truncations):
    code, _, err = _main(["--input", str(short_truncations[k]), *argv, "E"])
    assert code in (0, 2) and err == "", (code, err)


def test_a_lifting_that_leaves_its_moore_space_is_a_hypothesis_record(tmp_path):
    # s_1 of ideal-pair-cubic with one entry moved: the Peiffer lifting's
    # values leave NE_2, which the extraction reads as invalid data
    from moorekit.document import corpus_document
    doc = json.loads(corpus_document(2))
    deg = doc["simplicial"]["ideal-pair-cubic"]["degeneracies"]["2,1"]["matrix"]
    deg[1][1] = (deg[1][1] + 1) % 2
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, out, err = _main(["--input", str(tmp_path / "bad.json"), "to-2xmod", "ideal-pair-cubic"])
    assert (code, err) == (0, "")
    assert records(out)[:-1] == [
        {"check": "to-2xmod[ideal-pair-cubic]", "status": "hypothesis-failed", "witnesses": [],
         "detail": {"reason": "map () leaves NE_2; invalid simplicial data"}}]


def test_theorem5_above_the_truncation_is_a_hypothesis_record(short_truncations):
    code, out, _ = _main(["--input", str(short_truncations[3]), "theorem5", "E"])
    assert code == 0
    assert records(out)[2] == {"check": "theorem5[n=4]", "status": "hypothesis-failed",
                               "witnesses": [],
                               "detail": {"reason": "requires truncation level 4"}}


def test_to_xmod_refuses_a_1_truncation_that_is_no_crossed_module(short_truncations):
    # cubic-chain|1 has no d_2(NE_2) to divide by, and its NE_1 -> NE_0 fails CM2;
    # cut at k = 2 or 3 it is divided by d_2(NE_2) and passes
    code, out, _ = _main(["--input", str(short_truncations[1]), "to-xmod", "E"])
    assert code == 0
    assert records(out)[0] == {"check": "to-xmod[E]", "status": "hypothesis-failed",
                               "witnesses": [], "detail": {
                                   "reason": "NE_1 -> NE_0 of a 1-truncation fails ['CM2']"}}
    for k in (2, 3):
        code, out, _ = _main(["--input", str(short_truncations[k]), "to-xmod", "E"])
        assert code == 0 and records(out)[1]["status"] == "pass"


@pytest.mark.parametrize("name", list(corpus.crossed_corpus(2)))
def test_to_xmod_on_a_realized_1_truncation_passes(name, tmp_path):
    # a crossed module realized at k = 1 is extracted back from its document
    from moorekit.document import DocumentBuilder
    from moorekit.simplicial import realize
    b = DocumentBuilder()
    b.simplicial(realize(corpus.crossed_corpus(2)[name], 1), "E")
    (tmp_path / "doc.json").write_text(b.dumps())
    code, out, _ = _main(["--input", str(tmp_path / "doc.json"), "to-xmod", "E"])
    assert code == 0 and records(out)[-2]["status"] == "pass"


def test_validate_reports_the_violations_of_each_level(tmp_path):
    # the constant object on e0 e1 = e0 over Z/2: its maps are identities, and
    # each level fails commutativity at (0, 1) and associativity at (0, 1, 1)
    from moorekit.coeff import Algebra, PrimeField
    from moorekit.document import DocumentBuilder
    from moorekit.simplicial import constant_simplicial
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    b = DocumentBuilder()
    b.simplicial(constant_simplicial(Algebra(PrimeField(2), c, ("e0", "e1")), 2), "E")
    (tmp_path / "doc.json").write_text(b.dumps())
    code, out, _ = _main(["--input", str(tmp_path / "doc.json"), "validate", "E"])
    assert code == 1
    assert records(out)[0] == {
        "check": "validate[E]", "status": "fail", "witnesses": [
            "LevelViolation(n=0, kind='commutativity', indices=(0, 1))",
            "LevelViolation(n=0, kind='associativity', indices=(0, 1, 1))",
            "LevelViolation(n=1, kind='commutativity', indices=(0, 1))",
            "LevelViolation(n=1, kind='associativity', indices=(0, 1, 1))",
            "LevelViolation(n=2, kind='commutativity', indices=(0, 1))"]}


def test_validate_reads_the_validator_per_call(monkeypatch):
    from moorekit import cli
    seen, validate = [], cli.validate_simplicial
    monkeypatch.setattr(cli, "validate_simplicial", lambda E: seen.append(E) or validate(E))
    assert run(["validate", "ideal-pair"])[0] == 0
    assert len(seen) == 1
