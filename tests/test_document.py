import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from moorekit import corpus
from moorekit.crossed import verify_2cm, verify_3cm, verify_cm
from moorekit.document import (DocumentBuilder, DocumentError, corpus_document,
                               load_document)
from moorekit.functors import hypercrossed
from moorekit.lie import LieAlgebra, verify_lie_3cm
from moorekit.coeff import Algebra, algebras_equal, validate_algebra
from moorekit.moore import moore
from moorekit.simplicial import concentrated_simplicial, validate_simplicial


def _carriers(obj):
    """Every algebra and Lie algebra an object is built from."""
    if isinstance(obj, (Algebra, LieAlgebra)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _carriers(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _carriers(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _carriers(getattr(obj, f.name))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_corpus_objects_have_the_requested_characteristic(p):
    for section in (corpus.simplicial_corpus, corpus.crossed_corpus,
                    corpus.two_crossed_corpus, corpus.lie_corpus,
                    corpus.lie_three_corpus):
        for name, obj in section(p).items():
            assert {A.p for A in _carriers(obj)} == {p}, (section.__name__, name)


def test_corpus_document_loads_and_validates():
    doc = load_document(corpus_document(2))
    assert "ideal-pair" in doc.crossed_modules
    assert "cubic-chain" in doc.two_crossed_modules
    assert "ideal-pair" in doc.simplicial
    for name, E in doc.simplicial.items():
        assert validate_simplicial(E) == [], name
    for cm in doc.crossed_modules.values():
        assert verify_cm(cm).verdict == "pass"
    for t in doc.two_crossed_modules.values():
        assert verify_2cm(t).verdict == "pass"
    for m in doc.lie_three_crossed.values():
        assert verify_lie_3cm(m).verdict == "pass"


def test_document_roundtrip_preserves_structures():
    t = corpus.tcm_cubic_chain(3)
    b = DocumentBuilder()
    b.crossed(t, "probe", "two_crossed_modules")
    doc = load_document(b.dumps())
    back = doc.two_crossed_modules["probe"]
    assert algebras_equal(back.levels[1], t.levels[1])
    assert np.array_equal(back.map("()").tensor, t.map("()").tensor)
    assert np.array_equal(back.d(2).matrix, t.d(2).matrix)


def test_three_crossed_document_roundtrip(built):
    m = hypercrossed(built("cubic-chain"), 3)[0]
    b = DocumentBuilder()
    b.crossed(m, "probe", "three_crossed_modules")
    doc = load_document(b.dumps())
    back = doc.three_crossed_modules["probe"]
    rep = verify_3cm(back)
    assert rep.verdict == "pass"
    for key, bl in m.maps.items():
        assert np.array_equal(back.map(key).tensor, bl.tensor)


def test_simplicial_document_roundtrip(built):
    E = built("ideal-pair")
    b = DocumentBuilder()
    b.simplicial(E, "probe")
    doc = load_document(b.dumps())
    back = doc.simplicial["probe"]
    assert validate_simplicial(back) == []
    assert [A.dim for A in moore(back).algebras] == [2, 1, 0, 0, 0]


@pytest.mark.parametrize("dim", [1, 2])
def test_empty_matrices_round_trip_at_their_shapes(dim):
    # a map out of a zero level dumps as [] into a zero level, as [[]] into a
    # line and as [[], []] into a plane; each loads back at its own shape
    E = concentrated_simplicial(corpus.square_zero(2, dim), 2, 2)
    b = DocumentBuilder()
    b.simplicial(E, "probe")
    body = json.loads(b.dumps())["simplicial"]["probe"]
    back = load_document(b.dumps()).simplicial["probe"]
    shapes = set()
    for group in ("faces", "degeneracies"):
        for (n, i), mor in getattr(E, group).items():
            rows, cols = mor.matrix.shape
            if cols == 0:
                assert body[group][f"{n},{i}"]["matrix"] == [[]] * rows
                shapes.add((rows, cols))
            assert getattr(back, group)[(n, i)].matrix.shape == (rows, cols)
    assert shapes == {(0, 0), (dim, 0)}


def test_load_reduces_mod_p():
    text = json.dumps({"algebras": {"A": {
        "p": 3, "dim": 1, "basis": ["e"], "structure": [[0, 0, 0, 7]]}}})
    doc = load_document(text)
    assert doc.algebras["A"].structure[0, 0, 0] == 1  # 7 mod 3


def test_document_errors_carry_location():
    with pytest.raises(DocumentError):
        load_document("not json")
    with pytest.raises(DocumentError) as err:
        load_document(json.dumps({"algebras": {"A": {"p": 4, "dim": 1,
                                                     "basis": ["e"]}}}))
    assert "algebras.A" in str(err.value)
    with pytest.raises(DocumentError) as err2:
        load_document(json.dumps({
            "algebras": {"A": {"p": 2, "dim": 1, "basis": ["e"]}},
            "simplicial": {"E": {"k": 1, "levels": ["A", "A"], "faces": {
                "1,0": {"source": "A", "target": "missing", "matrix": [[1]]}}}}}))
    assert "missing" in str(err2.value) and "simplicial.E.faces[1,0]" in str(err2.value)


def test_lookup_prefers_requested_kind():
    doc = load_document(corpus_document(2))
    kind, _ = doc.lookup("ideal-pair", prefer="crossed")
    assert kind == "crossed"
    kind2, _ = doc.lookup("ideal-pair", prefer="simplicial")
    assert kind2 == "simplicial"
    with pytest.raises(DocumentError):
        doc.lookup("no-such-name")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_documents_carry_no_config_and_one_still_loads(p):
    b = DocumentBuilder()
    b.crossed(corpus.cm_ideal_dual(p), "probe")
    raw = json.loads(corpus_document(p))
    assert "config" not in json.loads(b.dumps()) and "config" not in raw
    # documents of earlier versions carry one; its keys are checked, not read
    raw["config"] = {"seed": 7, "budget": 3, "exhaustive_bound": 4, "characteristics": [2]}
    doc, plain = load_document(json.dumps(raw)), load_document(corpus_document(p))
    assert doc.simplicial.keys() == plain.simplicial.keys()
    for name, E in plain.simplicial.items():
        assert all(algebras_equal(A, B) for A, B in zip(E.levels, doc.simplicial[name].levels))


def test_corpus_document_deterministic():
    assert corpus_document(2) == corpus_document(2)
    assert corpus_document(3) == corpus_document(3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_corpus_document_entries_have_the_requested_characteristic(p):
    doc = load_document(corpus_document(p))
    assert doc.lie_algebras and doc.lie_three_crossed
    for f in dataclasses.fields(doc):
        section = getattr(doc, f.name)
        if isinstance(section, dict):
            for name, obj in section.items():
                assert {A.p for A in _carriers(obj)} == {p}, (f.name, name)


# every refusal of a structure's triples, on an algebra and on a crossed
# module's action; the first failing triple in document order is named
_BAD_TRIPLES = [
    ([[0, 0, 0, 1], [0, 2, 0, 1]], "index (0,2,0) outside dim {shape}"),
    ([[0, 0, -1, 1]], "index (0,0,-1) outside dim {shape}"),
    ([[0, 1, 0, 1], [9, 0, 0, 1], [0, 1, 0, 1]], "index (9,0,0) outside dim {shape}"),
    ([[0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1], [9, 0, 0, 1]], "triple (0,1,0) given twice"),
    ([[1, 0, 1, 0], [1, 0, 1, 0]], "triple (1,0,1) given twice"),
    ([[1, 1, 1, 1], [0, 0, 0, 1], [1, 1, 1, 2], [0, 0, 0, 1]], "triple (1,1,1) given twice"),
    ([[0, 0, 0, 1.5]], "an entry is not a 64-bit integer"),
    ([[0, 0, 0, 1], [0, 1]], "an entry is not a 64-bit integer"),
    ("0 0 0 1", "structure must be a list of [i, j, k, coeff]"),
    ([[0, 0, 1]], "structure must be a list of [i, j, k, coeff]"),
    ([0, 0, 0, 1], "structure must be a list of [i, j, k, coeff]"),
]


@pytest.mark.parametrize("triples, error", _BAD_TRIPLES)
def test_the_loader_refuses_bad_triples_with_their_message(triples, error):
    algebra = {"p": 3, "dim": 2, "structure": triples}
    with pytest.raises(DocumentError) as err:
        load_document(json.dumps({"algebras": {"A": algebra}}))
    assert str(err.value) == "algebras.A: " + error.format(shape=(2, 2, 2))
    doc = {"algebras": {"R": {"p": 3, "dim": 2}, "C": {"p": 3, "dim": 2}},
           "crossed_modules": {"X": {"R": "R", "C": "C", "boundary": [], "action": triples}}}
    with pytest.raises(DocumentError) as err:
        load_document(json.dumps(doc))
    assert str(err.value) == "crossed_modules.X.action: " + error.format(shape=(2, 2, 2))


def test_the_loader_refuses_a_boolean_coefficient():
    with pytest.raises(DocumentError) as err:
        load_document('{"algebras": {"A": {"p": 3, "dim": 2, "structure": [[0, 0, 0, true]]}}}')
    assert str(err.value) == ("algebras.A.structure[0][3]: true refused: "
                              "a document holds no booleans")


def test_the_loader_keeps_the_nonzero_triples_in_c_order():
    text = json.dumps({"algebras": {"A": {"p": 3, "dim": 2, "structure": [
        [1, 1, 0, 4], [0, 1, 1, 3], [0, 0, 1, -1], [1, 0, 0, 2]]}}})
    A = load_document(text).algebras["A"]
    assert A.triples.tolist() == [[0, 0, 1, 2], [1, 0, 0, 2], [1, 1, 0, 1]]
    assert not A.triples.flags.writeable and not A.structure.flags.writeable
    assert A.structure[0, 1].tolist() == [0, 0] and A.structure[0, 0, 1] == 2


def test_loading_a_sparse_algebra_of_dim_128_allocates_no_dense_tensor():
    # 128^3 int64 cells are 16 MiB; 1000 triples are about 32 KiB as int64;
    # validating the algebra reads its triples too
    rng = np.random.default_rng(0)
    cells = rng.choice(128 ** 3, 1000, replace=False)
    rows = np.column_stack([np.array(np.unravel_index(cells, (128,) * 3)).T,
                            rng.integers(1, 5, 1000)])
    text = json.dumps({"algebras": {"A": {"p": 5, "dim": 128, "structure": rows.tolist()}}})
    tracemalloc.start()
    try:
        doc = load_document(text)
        loaded = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bad = validate_algebra(doc.algebras["A"])
        validated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded < 4 << 20 and validated < 4 << 20, (loaded, validated)
    assert len(doc.algebras["A"].triples) == 1000
    assert {v.kind for v in bad} == {"commutativity", "associativity"}
