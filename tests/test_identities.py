"""The identity language of crossed: a lint over every identity table, and
the tables against the same identities written as lambdas.

The lint reads each identity as data: its sides parse, every called name
is an operation that a chain of the table's length carries, every term is
well typed by the levels of SIGNATURES, and each slot lies in the chain
and is read.  It also finds the identities whose sides are the same tree,
which hold on every chain.  The reference tests sweep the verifiers and
the table audits on seeded random chains of both carriers, where most
identities fail, and compare every identity's and every action law's entry
(witness included) with the sweep of its lambda in tests/reference.py.
"""

import ast
import re

import numpy as np
import pytest

from moorekit import crossed, functors
from moorekit.coeff import Algebra, BilinearMap, LieAlgebra, Morphism, PrimeField
from moorekit.crossed import (ACTIONS, CARRIED, SIGNATURES, CrossedChain, _top, verify_2cm,
                              verify_3cm, verify_cm)
from moorekit.lie import verify_lie_3cm
from moorekit.report import CONFIRMED, DISCREPANT, PASS, CheckRecord
from reference import (action_rows, cm_rows, equivariance_rows, table2_rows, three_cm_rows,
                       two_cm_rows)

# Table 2's rows that are axioms, by reference
TABLE2_AXIOMS = {"row2": "3CM5", "row6": "3CM9", "row7": "3CM10", "row15": "3CM13",
                 "row16": "3CM14", "row18": "3CM4", "row20": "3CM15"}
# every identity table and the length of the chains it is read on
TABLES = {"CM": (crossed._CM, 1), "2CM": (crossed._TWO_CM, 2), "3CM": (crossed._THREE_CM, 3),
          "table2": ({row: text for row, text in functors._TABLE2.items()
                      if row not in TABLE2_AXIOMS}, 3),
          "table3": (crossed._EQUIVARIANCE[3], 3), "table4": (crossed._EQUIVARIANCE[4], 3)}
IDENTITIES = [(family, name, text, length) for family, (table, length) in TABLES.items()
              for name, text in table.items()]


# ---------------------------------------------------------------------------
# the lint


def level(node: ast.expr, slots: dict, length: int, read: set):
    """The level of a term on chains of the given length, adding the slots
    it reads to read; AssertionError where the term is not one of the
    language."""
    if isinstance(node, ast.Name):
        read.add(node.id)
        return slots[node.id]
    if isinstance(node, ast.Call):
        op = crossed._OPERATIONS[node.func.id]
        args = [level(arg, slots, length, read) for arg in node.args]
        if isinstance(op, int):
            assert op <= length and args == [op], ast.unparse(node)
            return op - 1
        a, b, v = SIGNATURES[op]
        assert op in CARRIED[length] and args == [a, b], ast.unparse(node)
        return v
    if isinstance(node, ast.BinOp):
        assert type(node.op) in crossed._BINARY, ast.unparse(node)
        left = level(node.left, slots, length, read)
        assert left is not None and left == level(node.right, slots, length, read), \
            ast.unparse(node)
        return left
    if isinstance(node, ast.UnaryOp):
        assert isinstance(node.op, ast.USub), ast.unparse(node)
        return level(node.operand, slots, length, read)
    raise AssertionError(ast.dump(node))


def lint(text: str, length: int) -> None:
    """AssertionError unless the identity is well formed on chains of the length."""
    names, sides = crossed._parse(text)
    slots = {name: int(name[-1]) for name in names}
    assert len(slots) == len(names) >= 1 and len(sides) >= 2
    assert all(0 <= lv <= length for lv in slots.values()), text
    read = set()
    # 0 is a whole side only, never the first, and the zero of its level
    first, *levels = [None if ast.dump(side) == ast.dump(ast.Constant(0))
                      else level(side, slots, length, read) for side in sides]
    assert first is not None and set(levels) <= {first, None} and read == set(slots), text


@pytest.mark.parametrize("family, name, text, length", IDENTITIES,
                         ids=[f"{f}-{n}" for f, n, *_ in IDENTITIES])
def test_every_identity_is_well_formed(family, name, text, length):
    lint(text, length)


@pytest.mark.parametrize("text, length", [
    ("x1, y1: L(x1, y1) = x1 * y1", 2),        # sides of levels 2 and 1
    ("x1, y1: d2(L(x1, y1)) = x1 * y1", 1),    # d2 and L on a crossed module
    ("x2, y2: L21(x2, y2) = 0", 2),            # a lifting of 3-crossed modules only
    ("x2, y2: L20(y2, x2) = 1", 3),            # a constant other than 0
    ("x2, y2: L20(x2, x2) = 0", 3),            # y2 is never read
    ("x3, y3: x3 / y3 = x3", 3),               # no division
    ("x4, y3: L20(x4, y3) = 0", 3),            # no C4
    ("x2, y2: L20(x2, y2) = -0", 3),           # 0 inside a term
    ("x2, y2: 0 = L20(x2, y2)", 3),            # 0 as the first side
    ("x2, y2: L102(x2, y2) = 0", 3),           # (1,0)(2) takes C1 x C2
    ("x1, y1: Q(x1, y1) = 0", 3),              # no such operation
    ("x1, y1: x1 * y1 < x1 = y1", 1),          # no comparison inside a side
])
def test_the_lint_rejects_an_identity_outside_the_language(text, length):
    with pytest.raises((AssertionError, KeyError, SyntaxError)):
        lint(text, length)


def test_the_only_identity_whose_sides_are_one_tree_is_2cm4ii():
    # such an identity holds on every chain; 2CM4ii is kept as coded until
    # its printed reading is settled
    sides = {name: crossed._parse(text)[1] for _, name, text, _ in IDENTITIES}
    same = {name for name, trees in sides.items() if len(set(map(ast.dump, trees))) < len(trees)}
    assert same == {"2CM4ii"}


def test_no_identity_is_written_twice():
    texts = [text for *_, text, _ in IDENTITIES]
    trees = [(crossed._parse(t)[0], tuple(map(ast.dump, crossed._parse(t)[1]))) for t in texts]
    assert len(set(texts)) == len(texts) and len(set(trees)) == len(trees)
    assert {row: ref for row, ref in functors._TABLE2.items() if ref in crossed._THREE_CM} \
        == TABLE2_AXIOMS


def test_every_operation_has_one_name():
    assert sorted(crossed._OPERATIONS) == sorted(
        ["d1", "d2", "d3", "a01", "a02", "a03", "a12", "a13", "a23",
         "L", "L10", "L20", "L21", "L102", "L201", "L021"])
    assert sorted(crossed._OPERATIONS.values(), key=str) == sorted([1, 2, 3, *SIGNATURES], key=str)


def test_each_identity_is_parsed_once_per_process():
    m = random_chain(3, 3, 0)
    verify_3cm(m)
    for table in (2, 3, 4):
        functors._table_records(m, table)
    before = crossed._parse.cache_info()
    verify_3cm(m)
    verify_lie_3cm(m)
    for table in (2, 3, 4):
        functors._table_records(m, table)
    after = crossed._parse.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


# ---------------------------------------------------------------------------
# the tables against the lambdas on random chains


def random_chain(length: int, p: int, seed: int, carrier=Algebra) -> CrossedChain:
    """Random levels of the carrier class and dims 1-3, with alternating
    brackets on Lie algebras, and random boundaries and maps CARRIED[length],
    each entry nonzero with one random density per chain."""
    rng = np.random.default_rng([length, p, seed])
    density = rng.uniform(0.2, 0.9)

    def rand(shape):
        return rng.integers(0, p, shape) * (rng.random(shape) < density)

    def structure(d):
        c = rand((d, d, d))
        return c - c.transpose(1, 0, 2) if carrier is LieAlgebra else c

    levels = [carrier(PrimeField(p), structure(d), tuple(f"e{i}" for i in range(d)))
              for d in rng.integers(1, 4, length + 1)]
    boundaries = [Morphism(levels[n], levels[n - 1], rand((levels[n - 1].dim, levels[n].dim)))
                  for n in range(1, length + 1)]
    maps = {key: BilinearMap(*(levels[i] for i in SIGNATURES[key]),
                             rand(tuple(levels[i].dim for i in SIGNATURES[key])))
            for key in CARRIED[length]}
    return CrossedChain(levels, boundaries, maps, f"random-{length}-{p}-{seed}")


def swept(rows: dict, prefix: str = "") -> dict:
    """name -> (status, checked, witness, detail) of each lambda row,
    3CM6 with the detail the verifiers give it."""
    out = {}
    for name, (slots, fun) in rows.items():
        e = crossed._sweep(prefix + name, slots, fun)
        out[e.name] = (e.status, e.checked, e.witness,
                       {"mode": "basis-exact"} if e.name == "3CM6" else None)
    return out


def assert_entries_match(report, reference: dict) -> None:
    """Every identity and action-law entry of the report is the lambda
    row's entry, and the report's other entries are its structure checks."""
    got = {e.name: (e.status, e.checked, e.witness, e.detail) for e in report.entries}
    assert len(got) == len(report.entries)
    for name, want in reference.items():
        assert got[name] == want, name
    assert all(re.search("complex|multiplicative|ideal", name)
               for name in set(got) - set(reference))


SEEDS = range(8)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_identity_evaluates_as_its_lambda(p):
    # both sides at the first failing tuple, not only the tuple: a witness
    # alone does not see a changed sign where the identity fails at once
    for seed in SEEDS:
        chains = {n: random_chain(n, p, seed) for n in (1, 2, 3)}
        m = chains[3]
        pairs = [(chains[1], crossed._CM, cm_rows(chains[1])),
                 (chains[2], crossed._TWO_CM, two_cm_rows(chains[2])),
                 (m, crossed._THREE_CM, three_cm_rows(m)),
                 (m, {row: crossed._THREE_CM.get(text, text)
                      for row, text in functors._TABLE2.items()}, table2_rows(m)),
                 *((m, crossed._EQUIVARIANCE[t], equivariance_rows(m, t)) for t in (3, 4))]
        for chain, table, rows in pairs:
            assert table.keys() == rows.keys()
            for name, (slots, fun) in rows.items():
                assert crossed._evaluate(*crossed._identity(chain, table[name], slots)) \
                    == crossed._evaluate(slots, fun), name


# the entry name of each action law of the crossed and 2-crossed verifiers
CM_ACTIONS = {"01": "action-algebra"}
TWO_CM_ACTIONS = {"01": "action-c1-algebra", "02": "action-c2-algebra"}
CARRIERS = (Algebra, LieAlgebra)


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_crossed_and_two_crossed_verifiers_match_the_lambdas(p, carrier):
    for seed in SEEDS:
        m = random_chain(1, p, seed, carrier)
        assert_entries_match(verify_cm(m), swept({**cm_rows(m), **action_rows(m, CM_ACTIONS)}))
        t = random_chain(2, p, seed, carrier)
        assert_entries_match(verify_2cm(t),
                             swept({**two_cm_rows(t), **action_rows(t, TWO_CM_ACTIONS)}))


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_three_crossed_verifiers_match_the_lambdas(p, carrier):
    # Tables 3-4 print the commutative equivariances, so only commutative
    # chains sweep them
    statuses = set()
    for seed in SEEDS:
        m = random_chain(3, p, seed, carrier)
        top, cm = _top(m, 2), dict(cm_rows(_top(m, 1)))
        del cm["image-acts-trivially-on-kernel"]
        want = {**swept(action_rows(m, {key: f"action-{key}-algebra" for key in ACTIONS})),
                **swept(cm, "d3-crossed-"),
                **swept({**two_cm_rows(top), **action_rows(top, TWO_CM_ACTIONS)}, "3CM1/"),
                **swept(three_cm_rows(m))}
        if carrier is Algebra:
            want |= {**swept(equivariance_rows(m, 3)), **swept(equivariance_rows(m, 4))}
        assert_entries_match((verify_3cm if carrier is Algebra else verify_lie_3cm)(m), want)
        statuses |= {status for name, (status, *_) in want.items() if name != "3CM1/2CM4ii"}
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_records_match_the_lambdas(p):
    for seed in SEEDS:
        m = random_chain(3, p, seed)
        want = [functors._table2_record(name, *crossed._evaluate(slots, fun))
                for name, (slots, fun) in table2_rows(m).items()]
        assert [r.json_line() for r in functors._table_records(m, 2)] \
            == [r.json_line() for r in want]
        for table in (3, 4):
            want = [CheckRecord(name, CONFIRMED if status == PASS else DISCREPANT,
                                witnesses=(witness,) if witness else ())
                    for name, (status, _, witness, _) in swept(equivariance_rows(m, table)).items()]
            assert [r.json_line() for r in functors._table_records(m, table)] \
                == [r.json_line() for r in want]
