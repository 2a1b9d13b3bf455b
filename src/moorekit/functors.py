"""Passage from simplicial algebras to crossed structures: length-1 data
gives a crossed module, length-2 a 2-crossed module, and any valid
4-truncated object a 3-crossed module on NE_3 / d_4(NE_4 cap D_4).

Lifting sign conventions.  The two construction sections of the source
material print the same liftings with opposite signs (and two of the
printed closed forms do not even land in the normal subspace as
written).  Both extractions therefore define every lifting through the
composite hypercrossed pairing, which provably lands where it must:

    prop3 convention:  {x (x) y} = -p(s_alpha x . s_beta y)   (default)
    def1  convention:  {x (x) y} = +p(s_alpha x . s_beta y)

wherever the printed formulas type-check they agree with these values;
the remaining printed variants are judged by the table audits, never
silently adopted.  `lifting_convention_audit` reports which axioms each
convention satisfies on a given instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeff import (BilinearMap, Ideal, Morphism, PreconditionError, algebras_equal,
                    intersect_row_spaces, matmul, quotient)
from .crossed import (SIGNATURES, CrossedModule, ThreeCrossedModule, TwoCrossedModule,
                      _divide_cm, _equivariance_entries, _evaluate, _section_columns,
                      verify_3cm)
from .moore import _pairing_values, _projection_matrix, moore, p_set, s_word_morphism
from .report import (CONFIRMED, DISCREPANT, FAIL, PASS, CheckRecord)
from .simplicial import (TruncatedSimplicialAlgebra, build_from_2crossed,
                         build_from_crossed, degenerate_ideal)

PROP3 = "prop3"
DEF1 = "def1"


@dataclass(frozen=True, eq=False)
class FunctorOutput:
    structure: ThreeCrossedModule
    provenance: dict = field(default_factory=dict)
    report: object = None  # AxiomReport from verify_3cm; None from the bare extraction


def _map_tensor(E: TruncatedSimplicialAlgebra, mc, lifts, quotients: dict,
                group: str, key: str, sign: int = 1) -> np.ndarray:
    """The tensor of one extracted action or lifting on every pair of basis
    elements, its levels read from SIGNATURES[group][key].

    lifts[n] holds the basis of level n as columns in E_n; a level that
    divides NE_n (of the Moore complex mc) by an ideal has its projection
    matrix in quotients[n].  The action of C_a on C_b multiplies in E_b
    after the degeneracy word s_{b-1}...s_a; a lifting is sign times the
    pairing C_{alpha,beta} its key names, "()" being (1)(0) at n = 2.
    """
    left, right, value = SIGNATURES[group][key]
    p = E.level(0).p
    bx, by = lifts[left].T, lifts[right].T
    if group == "actions":
        word = s_word_morphism(E, value, tuple(range(left, value))).matrix
        vals = E.level(value).mul_vec(matmul(bx, word.T, p)[:, None], by[None])
    else:
        printed = "(1)(0)" if key == "()" else key
        pair = next(q for q in p_set(value) if str(q) == printed)
        vals = sign * _pairing_values(E, pair, bx, by, _projection_matrix(E, value)) % p
    coords = mc.spaces[value].coords(vals)
    return matmul(coords, quotients[value].T, p) if value in quotients else coords


# ---------------------------------------------------------------------------
# length <= 1: crossed modules


def cm_from_simplicial(E: TruncatedSimplicialAlgebra) -> CrossedModule:
    """NE_1 -> NE_0 with the degeneracy action r . c = s_0(r) c.

    Inputs of Moore length above 1 are truncated by dividing NE_1 by the
    closure of the degree-2 boundary image, as induced_cm divides C_1 of a
    2-crossed module (Remark 2); the name records it.
    """
    mc = moore(E)
    C0, NE1 = mc.algebras[:2]
    lifts = [incl.matrix for incl in mc.inclusions[:2]]
    act = BilinearMap(C0, NE1, NE1, _map_tensor(E, mc, lifts, {}, "actions", "01"))
    name = (E.name or "simplicial") + "-xmod"
    cm = CrossedModule(NE1, C0, mc.boundaries[0], act, name=name)
    if mc.length() > 1:
        return _divide_cm(cm, mc.boundaries[1].matrix.T, name + "/quotiented")
    return cm


# ---------------------------------------------------------------------------
# length <= 2: 2-crossed modules


def two_crossed_from_simplicial(E: TruncatedSimplicialAlgebra,
                                convention: str = PROP3) -> TwoCrossedModule:
    """(NE_2, NE_1, NE_0) with degeneracy actions and the pairing lifting."""
    mc = moore(E)
    if mc.length() > 2:
        raise PreconditionError("Moore length exceeds 2")
    sign = -1 if convention == PROP3 else 1
    C0, C1, C2 = mc.algebras[:3]
    lifts = [incl.matrix for incl in mc.inclusions[:3]]
    a1, a2, lift = (BilinearMap(*(mc.algebras[i] for i in SIGNATURES[group][key]),
                                _map_tensor(E, mc, lifts, {}, group, key, sign))
                    for group, key in (("actions", "01"), ("actions", "02"), ("liftings", "()")))
    return TwoCrossedModule(
        C2, C1, C0, mc.boundaries[1], mc.boundaries[0], a1, a2, lift,
        name=(E.name or "simplicial") + "-2xmod")


# ---------------------------------------------------------------------------
# any valid 4-truncation: 3-crossed modules


def three_crossed_extraction(E: TruncatedSimplicialAlgebra,
                             convention: str = PROP3) -> FunctorOutput:
    """The quotient complex NE_3/d_4(NE_4 cap D_4) -> NE_2 -> NE_1 -> NE_0
    with degeneracy actions and the seven pairing liftings, and its
    provenance; no axiom report."""
    if E.k != 4:
        raise PreconditionError("requires truncation level 4")
    sign = -1 if convention == PROP3 else 1
    mc = moore(E)
    p = E.level(0).p
    C0, C1, C2 = E.level(0), mc.algebras[1], mc.algebras[2]
    NE3, incl3, ne3 = mc.algebras[3], mc.inclusions[3], mc.spaces[3]

    D4 = degenerate_ideal(E, 4)
    cap = intersect_row_spaces(mc.spaces[4].basis_matrix, D4.basis_matrix, p)
    img = cap @ E.face(4, 4).matrix.T % p
    if not ne3.contains(img):
        raise PreconditionError("boundary image escapes NE_3: upstream bug")
    B = Ideal(NE3, ne3.coords(img))
    if not B.is_mult_closed():
        raise PreconditionError("boundary image is not an ideal of NE_3: upstream bug")
    C3, pi3 = quotient(NE3, B, name="NE3/im")
    if (mc.boundaries[2].matrix @ B.basis_matrix.T % p).any():
        raise PreconditionError("d_3 does not kill the divided ideal: upstream bug")
    sections = _section_columns(pi3)
    dbar3 = Morphism(C3, C2, mc.boundaries[2].matrix @ sections % p)
    # columns: the basis of each level C_n inside E_n (C3 through the sections)
    lifts = [mc.inclusions[n].matrix for n in range(3)] + [incl3.matrix @ sections % p]
    levels = (C0, C1, C2, C3)
    maps = {group: {key: BilinearMap(*(levels[i] for i in sig),
                                     _map_tensor(E, mc, lifts, {3: pi3.matrix}, group, key, sign))
                    for key, sig in table.items()}
            for group, table in SIGNATURES.items()}
    m = ThreeCrossedModule(C3, C2, C1, C0, dbar3, mc.boundaries[1],
                           mc.boundaries[0], name=(E.name or "simplicial") + "-3xmod", **maps)
    prov = {"source": E.name, "convention": convention,
            "ne4_cap_d4_dim": int(cap.shape[0]), "divided_dim": int(B.dim)}
    return FunctorOutput(m, prov)


def three_crossed_from_simplicial(E: TruncatedSimplicialAlgebra,
                                  convention: str = PROP3) -> FunctorOutput:
    """three_crossed_extraction with the axiom report attached as an
    audit finding; verify_3cm decides every axiom exactly, 3CM6 included."""
    out = three_crossed_extraction(E, convention)
    return FunctorOutput(out.structure, out.provenance, verify_3cm(out.structure))


def lifting_convention_audit(E: TruncatedSimplicialAlgebra) -> list[CheckRecord]:
    """Which printed axioms hold under each lifting sign convention."""
    reports = {conv: three_crossed_from_simplicial(E, conv).report
               for conv in (PROP3, DEF1)}
    names = [e.name for e in reports[PROP3].entries]
    out = []
    for nm in names:
        statuses = {conv: reports[conv].entry(nm).status for conv in reports}
        status = CONFIRMED if PASS in statuses.values() else DISCREPANT
        out.append(CheckRecord(f"convention[{nm}]", status, detail=statuses))
    return out


# ---------------------------------------------------------------------------
# printed-table audits inside the extracted structure


def _table2_rows(m: ThreeCrossedModule):
    d3, d2, d1 = m.d3, m.d2, m.d1
    a02, a03 = m.action("02"), m.action("03")
    a12, a13, a23 = m.action("12"), m.action("13"), m.action("23")
    L10, L20, L21 = m.lifting("(1)(0)"), m.lifting("(2)(0)"), m.lifting("(2)(1)")
    L102, L201 = m.lifting("(1,0)(2)"), m.lifting("(2,0)(1)")
    L021, L = m.lifting("(0)(2,1)"), m.lifting("()")
    C1, C2, C3 = m.C1, m.C2, m.C3
    # transposed keys: {a (x) b}_{(1)(2,0)} pairs the C2 slot with (1)
    t201 = lambda a2, b1: L201(b1, a2)  # noqa: E731
    t102 = lambda a2, b1: L102(b1, a2)  # noqa: E731
    return [
        ("row1", [C2, C2],
         lambda x2, y2: (L021(x2, d2(y2)), L10(x2, y2) + L21(x2, y2))),
        ("row2", [C1, C3],
         lambda x1, y3: (L201(x1, d3(y3)),
                         L021(d3(y3), x1) + L102(x1, d3(y3)) - a03(d1(x1), y3))),
        ("row3", [C2, C2],
         lambda x2, y2: (L102(d2(x2), y2), -L20(x2, y2))),
        ("row4", [C3, C3],
         lambda x3, y3: (L10(d3(x3), d3(y3)), x3 * y3)),
        ("row5", [C2, C3],
         lambda x2, y3: (L021(d3(y3), d2(x2)), a13(d2(x2), y3))),
        ("row6", [C2, C3],
         lambda x2, y3: (L102(d2(x2), d3(y3)), -L20(x2, d3(y3)))),
        ("row7", [C2, C3],
         lambda x2, y3: (L201(d2(x2), d3(y3)),
                         a13(d2(x2), y3) - L20(x2, d3(y3)))),
        ("row8", [C2, C2, C2],
         lambda x2, y2, yp: (L10(x2, y2 * yp),
                             L021(x2, d2(y2 * yp)) - L21(x2, y2 * yp))),
        ("row9", [C2, C2, C2],
         lambda xp, x2, y2: (L10(xp * x2, y2),
                             L021(xp * x2, d2(y2)) - L21(xp * x2, y2))),
        ("row10", [C2, C2, C2],
         lambda x2, y2, yp: (L21(x2, y2 * yp),
                             t201(x2, d2(y2 * yp)) + L20(x2, y2 * yp) - L10(x2, y2 * yp))),
        ("row11", [C2, C2, C2],
         lambda x2, xp, y2: (L21(x2 * xp, y2),
                             t201(x2 * xp, d2(y2)) + L20(x2 * xp, y2) - L10(x2 * xp, y2))),
        ("row12", [C2, C2, C2],
         lambda x2, y2, yp: (L20(x2, y2 * yp), -t102(x2, d2(y2 * yp)))),
        ("row13", [C2, C3],
         lambda x2, y3: (L21(x2, d3(y3)), a23(x2, y3))),
        ("row14", [C3, C2],
         lambda x3, y2: (L21(d3(x3), y2), a13(d2(y2), x3) + a23(y2, x3))),
        ("row15", [C3, C2],
         lambda x3, y2: (L10(d3(x3), y2), a23(y2, x3))),
        ("row16", [C3, C2],
         lambda x3, y2: (L20(d3(x3), y2), C3.zero())),
        ("row17", [C2, C2],
         lambda x2, y2: (d3(L20(x2, y2)), -d3(L102(d2(x2), y2)))),
        ("row18", [C2, C2],
         lambda x2, y2: (d3(L10(x2, y2)), L(d2(x2), d2(y2)) + x2 * y2)),
        ("row19", [C2, C2],
         lambda x2, y2: (d3(L21(x2, y2)), a12(d2(y2), x2) - x2 * y2)),
        ("row20", [C1, C2],
         lambda x1, y2: (d3(L201(x1, y2)),
                         d3(L102(x1, y2)) + L(x1, d2(y2))
                         - a02(d1(x1), y2) + a12(x1, y2))),
        ("row21", [C1, C2],
         lambda x1, y2: (d3(L021(y2, x1)), L(x1, d2(y2)) + a12(x1, y2))),
    ]


def table_identities_check(E: TruncatedSimplicialAlgebra, table: int,
                           convention: str = PROP3) -> list[CheckRecord]:
    """Audit the printed identity tables inside the extracted 3-crossed
    structure; CONFIRMED or DISCREPANT per row with a minimal witness."""
    if table not in (2, 3, 4):
        raise ValueError("tables 2, 3 and 4 are defined")
    m = three_crossed_extraction(E, convention).structure
    if table == 2:
        return [_table2_record(name, *_evaluate(slots, fun))
                for name, slots, fun in _table2_rows(m)]
    return [CheckRecord(e.name, CONFIRMED if e.status == PASS else DISCREPANT,
                        witnesses=(e.witness,) if e.witness else ())
            for e in _equivariance_entries(m, f"table{table}", table - 3)]


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
    canonical forms on the nose."""
    from . import corpus as corpus_mod
    records = []
    if level == 1:
        for name, cm in corpus_mod.crossed_corpus(p).items():
            E = build_from_crossed(cm)
            back = cm_from_simplicial(E)
            ok = (algebras_equal(back.C, cm.C)
                  and algebras_equal(back.R, cm.R)
                  and np.array_equal(back.boundary.matrix, cm.boundary.matrix)
                  and np.array_equal(back.action.tensor, cm.action.tensor))
            records.append(CheckRecord(f"roundtrip1[{name}]", PASS if ok else FAIL))
    elif level == 2:
        for name, t in corpus_mod.two_crossed_corpus(p).items():
            E = build_from_2crossed(t)
            back = two_crossed_from_simplicial(E)
            ok = (algebras_equal(back.C2, t.C2)
                  and algebras_equal(back.C1, t.C1)
                  and algebras_equal(back.C0, t.C0)
                  and np.array_equal(back.d2.matrix, t.d2.matrix)
                  and np.array_equal(back.d1.matrix, t.d1.matrix)
                  and np.array_equal(back.act_on_c1.tensor, t.act_on_c1.tensor)
                  and np.array_equal(back.act_on_c2.tensor, t.act_on_c2.tensor)
                  and np.array_equal(back.lifting.tensor, t.lifting.tensor))
            records.append(CheckRecord(f"roundtrip2[{name}]", PASS if ok else FAIL))
    else:
        raise ValueError("round trips defined at levels 1 and 2")
    return records
