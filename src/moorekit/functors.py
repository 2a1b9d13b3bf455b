"""Passage from simplicial algebras to crossed structures through one
hypercrossed core, `hypercrossed(E, m)`, which returns the crossed chain
(crossed.CrossedChain) of length m: the Moore complex cut at level m, the
degeneracy actions and pairing liftings crossed.CARRIED[m], and the top
level divided by crossed._divide_top (Carrasco & Cegarra, JPAA 75, 1991).
At m = 1 it gives a crossed module, NE_1 divided by d_2(NE_2) at Moore
length above 1, and at k = 1, with no level 2 to force CM2, only when
verify_cm passes; at m = 2 a 2-crossed module of Moore length at most 2; at
m = 3, on any valid 4-truncation, a 3-crossed module on
NE_3 / d_4(NE_4 cap D_4).  simplicial.realize goes the other way at
lengths 1 and 2.

Lifting sign conventions.  The two construction sections of the source
material print the same liftings with opposite signs (and two of the
printed closed forms do not even land in the normal subspace as
written).  The extraction therefore defines every lifting through the
composite hypercrossed pairing, which provably lands where it must:

    prop3 convention:  {x (x) y} = -p(s_alpha x . s_beta y)   (default)
    def1  convention:  {x (x) y} = +p(s_alpha x . s_beta y)

wherever the printed formulas type-check they agree with these values;
the remaining printed variants are judged by the table audits, never
silently adopted.  Which axioms each convention satisfies on an instance
is read from verify_3cm on the extraction under each (`--convention`),
and any other convention is refused.

The table audits sweep strings of crossed's identity language: Tables 3
and 4 are crossed._EQUIVARIANCE, and Table 2 is _TABLE2, whose rows 2, 6,
7, 15, 16, 18 and 20 name the axioms they share (3CM5, 3CM9, 3CM10,
3CM13, 3CM14, 3CM4, 3CM15) instead of writing them again.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import corpus
from .coeff import (BilinearMap, PreconditionError, algebras_equal, intersect_row_spaces,
                    matmul)
from .crossed import (ACTIONS, CARRIED, SIGNATURES, _EQUIVARIANCE, _THREE_CM, CrossedChain,
                      _divide_top, _evaluate, _identity, _sweeps, verify_cm)
from .moore import moore, moore_space, p_set, pairing_table, s_word_morphism
from .report import CONFIRMED, DISCREPANT, FAIL, PASS, CheckRecord
from .simplicial import TruncatedSimplicialAlgebra, _verified, degenerate_ideal, realize

PROP3 = "prop3"
DEF1 = "def1"


def _map_tensor(E: TruncatedSimplicialAlgebra, key: str, sign: int = 1) -> np.ndarray:
    """The tensor of one extracted action or lifting on every pair of Moore
    basis elements of E, its levels read from SIGNATURES.

    The action of C_a on C_b multiplies in E_b after the degeneracy word
    s_{b-1}...s_a; a lifting is sign times the pairing C_{alpha,beta} its
    key names, "()" being (1)(0) at n = 2, read from pairing_table, which
    contracts the structure tensor of each level once for all its
    pairings.
    """
    left, right, value = SIGNATURES[key]
    p = E.level(0).p
    if key in ACTIONS:
        bx, by = moore_space(E, left).basis_matrix, moore_space(E, right).basis_matrix
        word = s_word_morphism(E, value, tuple(range(left, value))).matrix
        vals = E.level(value).mul_vec(matmul(bx, word.T, p)[:, None], by[None])
    else:
        printed = "(1)(0)" if key == "()" else key
        pair = next(q for q in p_set(value) if str(q) == printed)
        vals = sign * pairing_table(E, value)[pair] % p
    ne = moore_space(E, value)
    if not ne.contains(vals):
        raise PreconditionError(f"map {key} leaves NE_{value}; invalid simplicial data")
    return ne.coords(vals)


def hypercrossed(E: TruncatedSimplicialAlgebra, m: int,
                 convention: str = PROP3) -> tuple[CrossedChain, dict]:
    """The crossed chain NE_m -> ... -> NE_0 of E with the maps CARRIED[m]
    and its top level divided by _divide_top: at m = 1 by d_2(NE_2) when
    the Moore length exceeds 1, at m = 3 always, by d_4(NE_4 cap D_4).

    Returns the chain, named after E, and its provenance: the dimension of
    the divided ideal, and at m = 3 that of NE_4 cap D_4, when the top
    level is divided.  E is truncated at level m or above, at level 4
    exactly when m = 3, and of Moore length at most 2 when m = 2; at
    m = k = 1 the chain passes verify_cm.
    """
    if convention not in (PROP3, DEF1):
        raise ValueError(f"unknown lifting convention {convention!r}: use {PROP3!r} or {DEF1!r}")
    if m == 3 and E.k != 4:
        raise PreconditionError("requires truncation level 4")
    if E.k < m:
        raise PreconditionError(f"requires truncation level {m} or above")
    mc, sign = moore(E), -1 if convention == PROP3 else 1
    if m == 2 and mc.length() > 2:
        raise PreconditionError("Moore length exceeds 2")
    levels = mc.algebras[:m + 1]
    maps = {key: BilinearMap(*(levels[i] for i in SIGNATURES[key]), _map_tensor(E, key, sign))
            for key in CARRIED[m]}
    chain = CrossedChain(levels, mc.boundaries[:m], maps,
                         (E.name or "simplicial") + ("-xmod", "-2xmod", "-3xmod")[m - 1])
    if m == E.k == 1:
        _verified(verify_cm(chain), "NE_1 -> NE_0 of a 1-truncation")
    prov = {}
    if m == 3:
        ne4, D4 = moore_space(E, 4), degenerate_ideal(E, 4)
        cap = intersect_row_spaces(ne4.basis_matrix, D4.basis_matrix, E.level(4).p)
        rows = ne4.coords(cap)
        prov["ne4_cap_d4_dim"] = int(cap.shape[0])
    elif m == 1 and mc.length() > 1:
        rows = np.eye(mc.algebras[2].dim, dtype=np.int64)
        chain = replace(chain, name=chain.name + "/quotiented")
    else:
        return chain, prov
    chain = _divide_top(chain, mc.boundaries[m], rows)
    prov["divided_dim"] = mc.algebras[m].dim - chain.levels[m].dim
    return chain, prov


# ---------------------------------------------------------------------------
# printed-table audits inside the extracted structure


# Table 2, a row either an identity or the axiom it shares; row 4 is not
# 3CM7, whose right side is y3 x3
_TABLE2 = {
    "row1": "x2, y2: L021(x2, d2(y2)) = L10(x2, y2) + L21(x2, y2)",
    "row2": "3CM5",
    "row3": "x2, y2: L102(d2(x2), y2) = -L20(x2, y2)",
    "row4": "x3, y3: L10(d3(x3), d3(y3)) = x3 * y3",
    "row5": "x2, y3: L021(d3(y3), d2(x2)) = a13(d2(x2), y3)",
    "row6": "3CM9",
    "row7": "3CM10",
    "row8": "x2, y2, z2: L10(x2, y2 * z2) = L021(x2, d2(y2 * z2)) - L21(x2, y2 * z2)",
    "row9": "w2, x2, y2: L10(w2 * x2, y2) = L021(w2 * x2, d2(y2)) - L21(w2 * x2, y2)",
    "row10": "x2, y2, z2: L21(x2, y2 * z2) = L201(d2(y2 * z2), x2) + L20(x2, y2 * z2)"
             " - L10(x2, y2 * z2)",
    "row11": "x2, w2, y2: L21(x2 * w2, y2) = L201(d2(y2), x2 * w2) + L20(x2 * w2, y2)"
             " - L10(x2 * w2, y2)",
    "row12": "x2, y2, z2: L20(x2, y2 * z2) = -L102(d2(y2 * z2), x2)",
    "row13": "x2, y3: L21(x2, d3(y3)) = a23(x2, y3)",
    "row14": "x3, y2: L21(d3(x3), y2) = a13(d2(y2), x3) + a23(y2, x3)",
    "row15": "3CM13",
    "row16": "3CM14",
    "row17": "x2, y2: d3(L20(x2, y2)) = -d3(L102(d2(x2), y2))",
    "row18": "3CM4",
    "row19": "x2, y2: d3(L21(x2, y2)) = a12(d2(y2), x2) - x2 * y2",
    "row20": "3CM15",
    "row21": "x1, y2: d3(L021(y2, x1)) = L(x1, d2(y2)) + a12(x1, y2)",
}


def table_identities_check(E: TruncatedSimplicialAlgebra, table: int,
                           convention: str = PROP3) -> list[CheckRecord]:
    """Audit the printed identity tables inside the extracted 3-crossed
    structure; CONFIRMED or DISCREPANT per row with a minimal witness."""
    if table not in (2, 3, 4):
        raise ValueError("tables 2, 3 and 4 are defined")
    return _table_records(hypercrossed(E, 3, convention)[0], table)


def _table_records(m: CrossedChain, table: int) -> list[CheckRecord]:
    """The records of Table 2, 3 or 4 on a 3-crossed module."""
    if table == 2:
        return [_table2_record(name, *_evaluate(*_identity(m, _THREE_CM.get(row, row))))
                for name, row in _TABLE2.items()]
    return [CheckRecord(e.name, CONFIRMED if e.status == PASS else DISCREPANT,
                        witnesses=(e.witness,) if e.witness else ())
            for e in _sweeps(m, _EQUIVARIANCE[table])]


def _table2_record(name: str, checked: int, failure) -> CheckRecord:
    """A Table-2 row's record; the witness also gives both sides."""
    if failure is None:
        return CheckRecord(f"table2[{name}]", CONFIRMED, detail={"checked": checked})
    tup, lhs, rhs = failure
    return CheckRecord(f"table2[{name}]", DISCREPANT,
                       witnesses=({**tup, "lhs": lhs, "rhs": rhs},),
                       detail={"checked": checked})


# ---------------------------------------------------------------------------
# round trips


def roundtrip_check(level: int, p: int = 2) -> list[CheckRecord]:
    """Build then extract every corpus item at the given level and compare
    the two field by field on the nose."""
    if level not in (1, 2):
        raise ValueError("round trips defined at levels 1 and 2")
    items = (corpus.crossed_corpus, corpus.two_crossed_corpus)[level - 1](p)
    return [CheckRecord(f"roundtrip{level}[{name}]",
                        PASS if _same(hypercrossed(realize(s), level)[0], s) else FAIL)
            for name, s in items.items()]


def _same(a: CrossedChain, b: CrossedChain) -> bool:
    """Whether two chains of one length agree: levels as presentations,
    boundaries and maps entry by entry, names aside."""
    return (all(algebras_equal(x, y) for x, y in zip(a.levels, b.levels))
            and all(np.array_equal(x.matrix, y.matrix)
                    for x, y in zip(a.boundaries, b.boundaries))
            and all(np.array_equal(a.maps[key].tensor, b.maps[key].tensor) for key in a.maps))
