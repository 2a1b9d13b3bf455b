"""Passage from simplicial algebras to crossed structures through one
hypercrossed core, _hypercrossed: the Moore complex cut at level m, the
degeneracy actions and pairing liftings level m carries, and the top level
divided by crossed._divide_top (Carrasco & Cegarra, JPAA 75, 1991).  At
m = 1 it gives a crossed module, NE_1 divided by d_2(NE_2) at Moore length
above 1; at m = 2 a 2-crossed module of Moore length at most 2; at m = 3,
on any valid 4-truncation, a 3-crossed module on NE_3 / d_4(NE_4 cap D_4).

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

from dataclasses import dataclass, field, fields

import numpy as np

from .coeff import (Algebra, BilinearMap, Morphism, PreconditionError, algebras_equal,
                    intersect_row_spaces, matmul)
from .crossed import (SIGNATURES, CrossedModule, ThreeCrossedModule, TwoCrossedModule,
                      _divide_top, _equivariance_entries, _evaluate, verify_3cm)
from .moore import moore, p_set, pairing_table, s_word_morphism
from .report import (CONFIRMED, DISCREPANT, FAIL, PASS, CheckRecord)
from .simplicial import (TruncatedSimplicialAlgebra, build_from_2crossed,
                         build_from_crossed, degenerate_ideal)

PROP3 = "prop3"
DEF1 = "def1"


@dataclass(frozen=True, eq=False)
class FunctorOutput:
    structure: object  # the extracted CrossedModule or ThreeCrossedModule
    provenance: dict = field(default_factory=dict)
    report: object = None  # AxiomReport from verify_3cm; None from the bare extraction


_SIGNATURE = {**SIGNATURES["actions"], **SIGNATURES["liftings"]}
# the maps the extraction at level m carries, as keys of SIGNATURES
_CARRIED = {1: ("01",), 2: ("01", "02", "()"), 3: tuple(_SIGNATURE)}


def _map_tensor(E: TruncatedSimplicialAlgebra, mc, key: str, sign: int = 1) -> np.ndarray:
    """The tensor of one extracted action or lifting on every pair of Moore
    basis elements (of the Moore complex mc of E), its levels read from
    SIGNATURES.

    The action of C_a on C_b multiplies in E_b after the degeneracy word
    s_{b-1}...s_a; a lifting is sign times the pairing C_{alpha,beta} its
    key names, "()" being (1)(0) at n = 2, read from pairing_table, which
    contracts the structure tensor of each level once for all its
    pairings.
    """
    left, right, value = _SIGNATURE[key]
    p = E.level(0).p
    if key in SIGNATURES["actions"]:
        bx, by = mc.inclusions[left].matrix.T, mc.inclusions[right].matrix.T
        word = s_word_morphism(E, value, tuple(range(left, value))).matrix
        vals = E.level(value).mul_vec(matmul(bx, word.T, p)[:, None], by[None])
    else:
        printed = "(1)(0)" if key == "()" else key
        pair = next(q for q in p_set(value) if str(q) == printed)
        vals = sign * pairing_table(E, value)[pair] % p
    return mc.spaces[value].coords(vals)


def _hypercrossed(E: TruncatedSimplicialAlgebra, m: int, convention: str = PROP3):
    """The Moore complex NE_m -> ... -> NE_0 of E with the maps _CARRIED[m]
    and its top level divided by _divide_top: at m = 1 by d_2(NE_2) when
    the Moore length exceeds 1, at m = 3 always, by d_4(NE_4 cap D_4).

    Returns (levels, boundaries, maps, provenance): levels[n] is C_n,
    boundaries[n - 1] is d_n : C_n -> C_{n-1}, maps is keyed by SIGNATURES
    key, and the provenance gives the dimension of the divided ideal, and
    at m = 3 that of NE_4 cap D_4, when the top level is divided.
    """
    mc, sign = moore(E), -1 if convention == PROP3 else 1
    levels, boundaries = list(mc.algebras[:m + 1]), list(mc.boundaries[:m])
    maps = {key: BilinearMap(*(levels[i] for i in _SIGNATURE[key]), _map_tensor(E, mc, key, sign))
            for key in _CARRIED[m]}
    prov = {}
    if m == 3:
        ne4, D4 = mc.spaces[4], degenerate_ideal(E, 4)
        cap = intersect_row_spaces(ne4.basis_matrix, D4.basis_matrix, E.level(4).p)
        rows = ne4.coords(cap)
        prov["ne4_cap_d4_dim"] = int(cap.shape[0])
    elif m == 1 and mc.length() > 1:
        rows = np.eye(mc.spaces[2].dim, dtype=np.int64)
    else:
        return levels, boundaries, maps, prov
    levels[m], boundaries[m - 1], maps = _divide_top(mc.boundaries[m], rows,
                                                     boundaries[m - 1], maps)
    prov["divided_dim"] = mc.algebras[m].dim - levels[m].dim
    return levels, boundaries, maps, prov


# ---------------------------------------------------------------------------
# the extractions at levels 1, 2 and 3


def crossed_extraction(E: TruncatedSimplicialAlgebra) -> FunctorOutput:
    """NE_1 -> NE_0 with the degeneracy action r . c = s_0(r) c.

    Inputs of Moore length above 1 are truncated by dividing NE_1 by the
    degree-2 boundary image, as induced_cm divides C_1 of a 2-crossed
    module (Remark 2); the name and the provenance's divided_dim record it.
    """
    (C0, C1), (d1,), maps, prov = _hypercrossed(E, 1)
    name = (E.name or "simplicial") + "-xmod" + ("/quotiented" if prov else "")
    return FunctorOutput(CrossedModule(C1, C0, d1, maps["01"], name=name), prov)


def cm_from_simplicial(E: TruncatedSimplicialAlgebra) -> CrossedModule:
    """The crossed module of crossed_extraction."""
    return crossed_extraction(E).structure


def two_crossed_from_simplicial(E: TruncatedSimplicialAlgebra,
                                convention: str = PROP3) -> TwoCrossedModule:
    """(NE_2, NE_1, NE_0) with degeneracy actions and the pairing lifting."""
    if moore(E).length() > 2:
        raise PreconditionError("Moore length exceeds 2")
    (C0, C1, C2), (d1, d2), maps, _ = _hypercrossed(E, 2, convention)
    return TwoCrossedModule(C2, C1, C0, d2, d1, maps["01"], maps["02"], maps["()"],
                            name=(E.name or "simplicial") + "-2xmod")


def three_crossed_extraction(E: TruncatedSimplicialAlgebra,
                             convention: str = PROP3) -> FunctorOutput:
    """The quotient complex NE_3/d_4(NE_4 cap D_4) -> NE_2 -> NE_1 -> NE_0
    with degeneracy actions and the seven pairing liftings, and its
    provenance; no axiom report."""
    if E.k != 4:
        raise PreconditionError("requires truncation level 4")
    (C0, C1, C2, C3), (d1, d2, d3), maps, prov = _hypercrossed(E, 3, convention)
    m = ThreeCrossedModule(C3, C2, C1, C0, d3, d2, d1,
                           name=(E.name or "simplicial") + "-3xmod",
                           **{group: {key: maps[key] for key in table}
                              for group, table in SIGNATURES.items()})
    return FunctorOutput(m, {"source": E.name, "convention": convention, **prov})


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
    the two field by field on the nose."""
    from . import corpus as corpus_mod
    if level not in (1, 2):
        raise ValueError("round trips defined at levels 1 and 2")
    items, build, extract = {
        1: (corpus_mod.crossed_corpus, build_from_crossed, cm_from_simplicial),
        2: (corpus_mod.two_crossed_corpus, build_from_2crossed, two_crossed_from_simplicial),
    }[level]
    return [CheckRecord(f"roundtrip{level}[{name}]", PASS if _same(extract(build(s)), s) else FAIL)
            for name, s in items(p).items()]


def _same(a, b) -> bool:
    """Whether two structures of one class agree field by field: levels as
    presentations, boundaries and bilinear maps entry by entry, names aside."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (algebras_equal(x, y) if isinstance(x, Algebra)
                else np.array_equal(x.matrix, y.matrix) if isinstance(x, Morphism)
                else f.name == "name" or np.array_equal(x.tensor, y.tensor)):
            return False
    return True
