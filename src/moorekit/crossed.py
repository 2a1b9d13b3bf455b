"""Crossed modules, 2-crossed modules and 3-crossed modules with
mechanized axiom verifiers.

Every axiom in scope but 3CM6 is multilinear in each slot, so its value
on basis tuples decides it exactly; 3CM6 is a linear plus a quadratic
map in each slot, so its value on pairs of coeff.quadratic_points
decides it exactly.  Each axiom is written once, on elements, and
evaluated once on stacked tuples: slot i holds its whole basis (or its
points) on axis i, every operation broadcasts, and the first failing
tuple in C order (the order of itertools.product) is the witness.
Stored actions are the ones the definitions declare (the base algebra
acting on the higher ones); the action of degree-1 elements on degree-2
elements in a 2-crossed module is derived from the lifting,
{y (x) d2 x} = y . x, and likewise one level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coeff import (Algebra, BilinearMap, Element, Ideal, Morphism,
                    PreconditionError, annihilator, action_violations,
                    ideal_closure, image_space, matmul, null_space, quadratic_points,
                    quotient, reduce_against, rref, square_span,
                    subalgebra, sweep_step, validate_algebra)
from .report import FAIL, PASS, CheckRecord

# The levels of the left argument, the right argument and the value of
# every stored action and lifting of a 3-crossed module, keyed by the
# ThreeCrossedModule field that holds the map.
SIGNATURES = {
    "actions": {"01": (0, 1, 1), "02": (0, 2, 2), "03": (0, 3, 3),
                "12": (1, 2, 2), "13": (1, 3, 3), "23": (2, 3, 3)},
    "liftings": {"(1)(0)": (2, 2, 3), "(2)(0)": (2, 2, 3), "(2)(1)": (2, 2, 3),
                 "(1,0)(2)": (1, 2, 3), "(2,0)(1)": (1, 2, 3),
                 "(0)(2,1)": (2, 1, 3), "()": (1, 1, 2)},
}


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AxiomEntry:
    name: str
    status: str
    checked: int
    witness: dict | None = None
    detail: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    title: str
    entries: tuple[AxiomEntry, ...]

    @property
    def verdict(self) -> str:
        return PASS if all(e.status == PASS for e in self.entries) else FAIL

    def entry(self, name: str) -> AxiomEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failing(self) -> list[AxiomEntry]:
        return [e for e in self.entries if e.status != PASS]

    def records(self) -> list[CheckRecord]:
        return [CheckRecord(f"{self.title}/{e.name}", e.status,
                            witnesses=(e.witness,) if e.witness else (),
                            detail=e.detail or {})
                for e in self.entries]


def _stack(slot) -> Element:
    """A slot of a sweep as one stacked Element: an algebra stands for its
    basis, an Element for the rows of its coefficient array."""
    if isinstance(slot, Element):
        return slot
    return Element(slot, np.eye(slot.dim, dtype=np.int64))


def _evaluate(slots, fun) -> tuple[int, tuple | None]:
    """Evaluate fun once on every tuple of the slots (algebras or stacks,
    see _stack); fun returns an (lhs, rhs) pair or a list of them.

    Slot i is an array with its entries on axis i, so fun runs on the
    whole grid at once, in steps over the first slot of at most
    sweep_step's cells.  A tuple fails where any pair differs.  Returns
    (checked, failure): the grid size and None on a pass; otherwise the
    flat C-order index + 1 of the first failing tuple and (arguments,
    lhs, rhs) there, lhs and rhs those of its first differing pair."""
    stacks = [_stack(s) for s in slots]
    sizes = [len(s.coeffs) for s in stacks]
    rest = int(np.prod(sizes[1:]))
    if sizes[0] * rest == 0:
        return 0, None
    step = sweep_step(rest * max(s.parent.dim for s in stacks))
    for start in range(0, sizes[0], step):
        args = []
        for i, s in enumerate(stacks):
            rows = s.coeffs[start:start + step] if i == 0 else s.coeffs
            shape = [1] * len(stacks) + [s.parent.dim]
            shape[i] = len(rows)
            args.append(Element(s.parent, rows.reshape(shape)))
        pairs = fun(*args)
        if isinstance(pairs, tuple):
            pairs = [pairs]
        grid = (len(args[0].coeffs), *sizes[1:])
        diffs = [np.broadcast_to((lhs - rhs).coeffs.any(axis=-1), grid) for lhs, rhs in pairs]
        hits = np.flatnonzero(np.logical_or.reduce(diffs))
        if hits.size:
            at = np.unravel_index(hits[0], grid)
            lhs, rhs = next(pair for pair, d in zip(pairs, diffs) if d[at])
            index = (start + at[0], *at[1:])
            tup = {f"arg{i}": list(map(int, s.coeffs[j]))
                   for i, (s, j) in enumerate(zip(stacks, index))}
            sides = [list(map(int, np.broadcast_to(x.coeffs, grid + (x.parent.dim,))[at]))
                     for x in (lhs, rhs)]
            return start * rest + int(hits[0]) + 1, (tup, *sides)
    return sizes[0] * rest, None


def _sweep(name: str, slots, fun) -> AxiomEntry:
    """The entry of an axiom evaluated by _evaluate; the witness is the
    first failing tuple."""
    checked, failure = _evaluate(slots, fun)
    if failure is None:
        return AxiomEntry(name, PASS, checked)
    return AxiomEntry(name, FAIL, checked, failure[0])


def _flag(name: str, ok: bool, detail: dict | None = None) -> AxiomEntry:
    return AxiomEntry(name, PASS if ok else FAIL, 1, None if ok else (detail or {}))


# ---------------------------------------------------------------------------
# crossed modules


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """Boundary C -> R with an R-action on C subject to CM1 and CM2."""

    C: Algebra
    R: Algebra
    boundary: Morphism
    action: BilinearMap  # R (x) C -> C
    name: str = ""

    def __post_init__(self):
        if self.boundary.source is not self.C or self.boundary.target is not self.R:
            raise PreconditionError("boundary must map C to R")
        if (self.action.left is not self.R or self.action.right is not self.C
                or self.action.target is not self.C):
            raise PreconditionError("action must map R (x) C to C")


def verify_cm(m: CrossedModule) -> AxiomReport:
    """CM1, CM2, action laws, plus the two lemmas: the boundary image is
    an ideal of R and acts trivially on the kernel."""
    C, R, bd, act = m.C, m.R, m.boundary, m.action
    entries = [
        _flag("boundary-multiplicative", bd.is_multiplicative()),
        _flag("action-algebra", not action_violations(act)),
        *_cm_sweeps(C, R, bd, act),
        _flag("image-is-ideal", Ideal(R, image_space(bd)).is_mult_closed()),
    ]
    ker = null_space(bd.matrix, C.p)
    entries.append(_sweep(
        "image-acts-trivially-on-kernel",
        [C, Element(C, ker)],
        lambda c, k: (act(bd(c), k), C.zero())))
    return AxiomReport(m.name or "crossed-module", tuple(entries))


def _cm_sweeps(C: Algebra, R: Algebra, bd: Morphism, act: BilinearMap,
               prefix: str = "") -> list[AxiomEntry]:
    """CM1 and CM2 of a boundary C -> R with an R-action on C, as entries
    "<prefix>CM1" and "<prefix>CM2"; x * y is the product of the levels,
    the multiplication or the bracket."""
    return [
        _sweep(f"{prefix}CM1", [R, C],
               lambda r, c: (bd(act(r, c)), r * bd(c))),
        _sweep(f"{prefix}CM2", [C, C],
               lambda c, c2: (act(bd(c), c2), c * c2)),
    ]


def ideal_pair(R: Algebra, gens, name: str = "") -> CrossedModule:
    """Inclusion crossed module of the ideal generated by gens in R."""
    ideal = ideal_closure(R, gens)
    C, incl = subalgebra(R, ideal.basis_matrix, name=f"{name or 'I'}")
    # R acts on the ideal by multiplication, written in ideal coordinates
    prods = R.mul_vec(np.eye(R.dim, dtype=np.int64)[:, None], incl.matrix.T[None])
    act = BilinearMap(R, C, C, ideal.coords(prods))
    return CrossedModule(C, R, incl, act, name=name or "ideal-pair")


def zero_module_cm(M: Algebra, R: Algebra, action: BilinearMap, name: str = "") -> CrossedModule:
    """Zero boundary M -> R; a crossed module exactly when M has zero
    multiplication."""
    return CrossedModule(M, R, Morphism.zero(M, R), action, name=name or "zero-module")


def multiplication_cm(R: Algebra) -> CrossedModule:
    """The multiplication crossed module mu : R -> M(R).

    M(R) is the solution space of delta(r r') = delta(r) r' over all
    basis pairs, multiplied by composition.  Requires Ann(R) = 0 or
    R^2 = R, verified by rank computation; composition is re-verified
    commutative.
    """
    p = R.p
    d = R.dim
    ann_zero = annihilator(R).shape[0] == 0
    square_full = square_span(R).shape[0] == d
    if not (ann_zero or square_full):
        raise PreconditionError("hypothesis Ann(R) = 0 or R^2 = R fails")
    # delta as a d x d matrix X: X @ (e_i e_j) = (X @ e_i) * e_j, one row
    # (i, j, a) per basis pair and coordinate, one column per entry X[c, b]
    eye = np.eye(d, dtype=np.int64)
    S = R.structure
    blocks = np.einsum("ac,ijb->ijacb", eye, S) - np.einsum("cja,bi->ijacb", S, eye)
    basis_flat = null_space(blocks.reshape(d ** 3, d * d) % p, p)
    mdim = basis_flat.shape[0]
    mats = basis_flat.reshape(mdim, d, d)
    pivots = list(rref(basis_flat, p)[1])

    def coords(flat: np.ndarray) -> np.ndarray:
        if reduce_against(flat, basis_flat, pivots, p).any():
            raise PreconditionError("composition leaves the multiplier space")
        return flat[..., pivots]

    struct = coords((mats[:, None] @ mats[None] % p).reshape(mdim, mdim, d * d))
    if not np.array_equal(struct, struct.transpose(1, 0, 2)):
        raise PreconditionError(
            "audit finding: multiplier composition is not commutative under the hypothesis")
    MR = Algebra(R.field, struct, tuple(f"m{i}" for i in range(mdim)), None, name="M(R)")
    bad = validate_algebra(MR)
    if bad:
        raise PreconditionError(f"multiplier algebra invalid: {bad[0]}")
    # multiplication by e_i is the multiplier S[i].T
    mu = Morphism(R, MR, coords(S.transpose(0, 2, 1).reshape(d, d * d)).T)
    act = BilinearMap(MR, R, R, mats.transpose(0, 2, 1))  # delta_a(e_j) is column j
    return CrossedModule(R, MR, mu, act, name="multiplication-cm")


# ---------------------------------------------------------------------------
# 2-crossed modules


@dataclass(frozen=True, eq=False)
class TwoCrossedModule:
    """Complex C2 -> C1 -> C0 with base actions and a Peiffer lifting.

    Only the C0-actions are stored; C1 acts on C2 through the lifting,
    y . x = {y (x) d2 x}.
    """

    C2: Algebra
    C1: Algebra
    C0: Algebra
    d2: Morphism
    d1: Morphism
    act_on_c1: BilinearMap  # C0 (x) C1 -> C1
    act_on_c2: BilinearMap  # C0 (x) C2 -> C2
    lifting: BilinearMap    # C1 (x) C1 -> C2
    name: str = ""

    def act1_on_2(self, y: Element, x: Element) -> Element:
        return self.lifting(y, self.d2(x))


def verify_2cm(t: TwoCrossedModule) -> AxiomReport:
    C2, C1, C0 = t.C2, t.C1, t.C0
    d2, d1, a1, a2 = t.d2, t.d1, t.act_on_c1, t.act_on_c2
    entries = [
        _flag("complex", not (d1.matrix @ d2.matrix % C0.p).any()),
        _flag("d2-multiplicative", d2.is_multiplicative()),
        _flag("d1-multiplicative", d1.is_multiplicative()),
        _flag("action-c1-algebra", not action_violations(a1)),
        _flag("action-c2-algebra", not action_violations(a2)),
        _sweep("d2-equivariant", [C0, C2],
               lambda z, x: (d2(a2(z, x)), a1(z, d2(x)))),
        _sweep("d1-equivariant", [C0, C1],
               lambda z, y: (d1(a1(z, y)), z * d1(y))),
        *_two_cm_sweeps(t),
    ]
    return AxiomReport(t.name or "two-crossed-module", tuple(entries))


def _two_cm_sweeps(t: TwoCrossedModule, prefix: str = "",
                   omit: tuple[str, ...] = ()) -> list[AxiomEntry]:
    """2CM1 through 2CM5 but the axioms in `omit`, each as the entry
    "<prefix><axiom>"; x * y is the product of the levels, the
    multiplication or the bracket."""
    C2, C1, C0 = t.C2, t.C1, t.C0
    d2, d1, a1, a2, lt = t.d2, t.d1, t.act_on_c1, t.act_on_c2, t.lifting
    axioms = [
        ("2CM1", [C1, C1],
         lambda y0, y1: (d2(lt(y0, y1)), y0 * y1 - a1(d1(y1), y0))),
        ("2CM2", [C2, C2],
         lambda x1, x2: (lt(d2(x1), d2(x2)), x1 * x2)),
        ("2CM3", [C1, C1, C1],
         lambda y0, y1, y2: (lt(y0, y1 * y2),
                             lt(y0 * y1, y2) + a2(d1(y2), lt(y0, y1)))),
        ("2CM4i", [C2, C1],
         lambda x, y: (lt(d2(x), y), t.act1_on_2(y, x) - a2(d1(y), x))),
        ("2CM4ii", [C2, C1],
         lambda x, y: (lt(y, d2(x)), t.act1_on_2(y, x))),
        ("2CM5", [C0, C1, C1],
         lambda z, y0, y1: [(a2(z, lt(y0, y1)), lt(a1(z, y0), y1)),
                            (a2(z, lt(y0, y1)), lt(y0, a1(z, y1)))]),
    ]
    return [_sweep(prefix + name, slots, fun) for name, slots, fun in axioms
            if name not in omit]


def crossed_as_2cm(m: CrossedModule, name: str = "") -> TwoCrossedModule:
    """Degenerate 2-crossed module with trivial top term and zero lifting."""
    zero = Algebra(m.C.field, np.zeros((0, 0, 0), dtype=np.int64), (), None, "0")
    return TwoCrossedModule(
        zero, m.C, m.R,
        Morphism.zero(zero, m.C), m.boundary,
        m.action, BilinearMap.zero(m.R, zero, zero),
        BilinearMap.zero(m.C, m.C, zero),
        name=name or f"{m.name}+trivial-top")


def induced_cm(t: TwoCrossedModule) -> CrossedModule:
    """Quotient C1 by the image of d2, an ideal; the induced boundary and
    action form a crossed module."""
    C1, d1, maps = _divide_top(t.d2, np.eye(t.C2.dim, dtype=np.int64), t.d1, {"01": t.act_on_c1})
    return CrossedModule(C1, t.C0, d1, maps["01"], name=(t.name or "2cm") + "-induced")


def _divide_top(above: Morphism, rows, boundary: Morphism, maps: dict):
    """Divide the top level C = boundary.source of a complex by the span I
    of the image of rows under above : C' -> C.  I must be an ideal that
    the boundary kills and each map with an argument in C keeps.  Returns
    (C / I, the induced boundary, maps), each map restricted in each slot
    taking C to the basis vectors C / I keeps and projected when valued in C.
    """
    top, p = boundary.source, boundary.source.p
    if above.target is not top:
        raise PreconditionError("the divided image lies outside the top level")
    I = Ideal(top, matmul(rows, above.matrix.T, p))
    Q, pi = quotient(top, I, name=f"{top.name}/im")  # raises unless I is an ideal
    if (boundary.matrix @ I.basis_matrix.T % p).any():
        raise PreconditionError("the boundary does not kill the divided ideal")
    keep = np.delete(np.arange(top.dim), I.pivots)  # pi maps e_keep[q] to e_q
    divided = {}
    for key, f in maps.items():
        t = f.tensor
        for axis in (i for i, A in enumerate((f.left, f.right)) if A is top):
            if not I.contains(np.tensordot(I.basis_matrix, f.tensor, (1, axis)) % p):
                raise PreconditionError(
                    f"induced map {key} ill-defined on cosets: it leaves the divided ideal")
            t = np.take(t, keep, axis=axis)
        if f.target is top:
            t = matmul(t, pi.matrix.T, p)
        divided[key] = BilinearMap(*(Q if A is top else A for A in (f.left, f.right, f.target)), t)
    return Q, Morphism(Q, boundary.target, boundary.matrix[:, keep]), divided


# ---------------------------------------------------------------------------
# 3-crossed modules


@dataclass(frozen=True, eq=False)
class ThreeCrossedModule:
    """Complex C3 -> C2 -> C1 -> C0 with six actions and seven liftings.

    The levels are commutative algebras or, for a Lie 3-crossed module,
    Lie algebras; SIGNATURES gives the levels each action and lifting
    key maps between.  The keys "(0)(2)" and "(2)(0)" name the same map.
    """

    C3: Algebra
    C2: Algebra
    C1: Algebra
    C0: Algebra
    d3: Morphism
    d2: Morphism
    d1: Morphism
    actions: dict = field(default_factory=dict)   # SIGNATURES["actions"]
    liftings: dict = field(default_factory=dict)  # SIGNATURES["liftings"]
    name: str = ""

    @property
    def levels(self) -> tuple[Algebra, ...]:
        """(C0, C1, C2, C3): the level of degree n at index n."""
        return (self.C0, self.C1, self.C2, self.C3)

    def action(self, key: str) -> BilinearMap:
        return self.actions[key]

    def lifting(self, key: str) -> BilinearMap:
        if key == "(0)(2)":
            key = "(2)(0)"
        return self.liftings[key]


def trivial_3cm(levels, name: str, d1: Morphism | None = None,
                a01: BilinearMap | None = None) -> ThreeCrossedModule:
    """The 3-crossed module on levels (C0, C1, C2, C3) with the given d1
    and C0-action on C1, and every other boundary, action and lifting
    zero (d1 and the action are zero when not given)."""
    maps = {group: {key: BilinearMap.zero(*(levels[i] for i in sig))
                    for key, sig in table.items()}
            for group, table in SIGNATURES.items()}
    if a01 is not None:
        maps["actions"]["01"] = a01
    C0, C1, C2, C3 = levels
    return ThreeCrossedModule(
        C3, C2, C1, C0, Morphism.zero(C3, C2), Morphism.zero(C2, C1),
        Morphism.zero(C1, C0) if d1 is None else d1, name=name, **maps)


def _structure_entries(m: ThreeCrossedModule, morphism: str, action: str,
                       violations) -> list[AxiomEntry]:
    """Both complex conditions, each boundary a morphism (entries
    "d<n>-<morphism>") and each action lawful by `violations` (entries
    `action` formatted with the key)."""
    p = m.C0.p
    entries = [
        _flag("complex-d2d3", not (m.d2.matrix @ m.d3.matrix % p).any()),
        _flag("complex-d1d2", not (m.d1.matrix @ m.d2.matrix % p).any()),
    ]
    entries += [_flag(f"{d}-{morphism}", getattr(m, d).is_multiplicative())
                for d in ("d3", "d2", "d1")]
    entries += [_flag(action.format(key), not violations(m.action(key)))
                for key in SIGNATURES["actions"]]
    return entries


def _prefixed(prefix: str, report: AxiomReport) -> list[AxiomEntry]:
    """The entries of a sub-report, renamed "<prefix>/<name>"."""
    return [replace(e, name=f"{prefix}/{e.name}") for e in report.entries]


def verify_3cm(m: ThreeCrossedModule) -> AxiomReport:
    """3CM1 through 3CM16 as printed, the degree-3 crossed module property,
    and the two equivariance tables.

    Each axiom is evaluated once on stacked basis tuples, which decides
    it exactly since it is multilinear per slot; 3CM6 is linear plus
    quadratic in each slot, so it is evaluated on pairs of
    quadratic_points of C2, which decides it exactly too.
    """
    C3, C2, C1 = m.C3, m.C2, m.C1
    entries = _structure_entries(m, "multiplicative", "action-{}-algebra",
                                 action_violations)
    entries += _cm_sweeps(C3, C2, m.d3, m.action("23"), "d3-crossed-")
    sub = TwoCrossedModule(C3, C2, C1, m.d3, m.d2, m.action("12"), m.action("13"),
                           m.lifting("(2)(1)"), name="top-segment")
    entries += _prefixed("3CM1", verify_2cm(sub))
    entries += _axioms_3cm2_to_16(m)
    entries += _equivariance_entries(m, "table3", 0)
    entries += _equivariance_entries(m, "table4", 1)
    return AxiomReport(m.name or "three-crossed-module", tuple(entries))


def _axioms_3cm2_to_16(m: ThreeCrossedModule) -> list[AxiomEntry]:
    """3CM2 through 3CM16 as printed; x * y is the product of the levels,
    the multiplication or the bracket.  Each axiom is evaluated once on
    stacked basis tuples, 3CM6 on stacked pairs of quadratic_points of C2
    (see there why that decides it); its detail gives the mode,
    basis-exact, and its witness is a pair of elements where it fails."""
    C3, C2, C1 = m.C3, m.C2, m.C1
    d3, d2, d1 = m.d3, m.d2, m.d1
    a01, a02, a03 = m.action("01"), m.action("02"), m.action("03")
    a12, a13, a23 = m.action("12"), m.action("13"), m.action("23")
    L10, L20, L21 = m.lifting("(1)(0)"), m.lifting("(2)(0)"), m.lifting("(2)(1)")
    L102, L201 = m.lifting("(1,0)(2)"), m.lifting("(2,0)(1)")
    L021, L = m.lifting("(0)(2,1)"), m.lifting("()")
    points = Element(C2, quadratic_points(C2.dim, C2.p))
    return [
        _sweep("3CM2", [C1, C1],
               lambda x1, y1: (d2(L(x1, y1)), a01(d1(y1), x1) - x1 * y1)),
        _sweep("3CM3", [C2, C2],
               lambda x2, y2: (L021(x2, d2(y2)), L21(x2, y2) - L10(x2, y2))),
        _sweep("3CM4", [C2, C2],
               lambda x2, y2: (d3(L10(x2, y2)), L(d2(x2), d2(y2)) + x2 * y2)),
        _sweep("3CM5", [C1, C3],
               lambda x1, y3: (L201(x1, d3(y3)),
                               L021(d3(y3), x1) + L102(x1, d3(y3)) - a03(d1(x1), y3))),
        replace(_sweep("3CM6", [points, points],
                       lambda x2, y2: (L201(d2(x2), y2),
                                       -L20(x2, y2) + a23(x2 * y2, L21(x2, y2)) + L10(x2, y2))),
                detail={"mode": "basis-exact"}),
        _sweep("3CM7", [C3, C3],
               lambda x3, y3: (L10(d3(x3), d3(y3)), y3 * x3)),
        _sweep("3CM8", [C3, C2],
               lambda y3, x2: (L021(d3(y3), d2(x2)), -a13(d2(x2), y3))),
        _sweep("3CM9", [C2, C3],
               lambda x2, y3: (L102(d2(x2), d3(y3)), -L20(x2, d3(y3)))),
        _sweep("3CM10", [C2, C3],
               lambda x2, y3: (L201(d2(x2), d3(y3)),
                               a13(d2(x2), y3) - L20(x2, d3(y3)))),
        _sweep("3CM11", [C3, C1],
               lambda y3, x1: (L021(d3(y3), x1), -a13(x1, y3))),
        _sweep("3CM12", [C2, C3],
               lambda y2, x3: (L10(y2, d3(x3)), -a23(y2, x3))),
        _sweep("3CM13", [C3, C2],
               lambda x3, y2: (L10(d3(x3), y2), a23(y2, x3))),
        _sweep("3CM14", [C3, C2],
               lambda x3, y2: (L20(d3(x3), y2), C3.zero())),
        _sweep("3CM15", [C1, C2],
               lambda x1, y2: (d3(L201(x1, y2)),
                               d3(L102(x1, y2)) + L(x1, d2(y2))
                               - a02(d1(x1), y2) + a12(x1, y2))),
        _sweep("3CM16", [C1, C2],
               lambda x1, y2: (d3(L021(y2, x1)), L(x1, d2(y2)) - a12(x1, y2))),
    ]


# the printed row order of Tables 3 and 4
_EQUIVARIANCE_ROWS = ("()", "(1,0)(2)", "(0)(2,1)", "(2,0)(1)", "(1)(0)", "(2)(0)", "(2)(1)")


def _equivariance_entries(m: ThreeCrossedModule, title: str, z: int) -> list[AxiomEntry]:
    """Both equalities of each equivariance-table row, per lifting key:
    for a lifting L of signature (a, b, v) and w in C_z,
    w . L(x, y) = L(w . x, y) = L(x, w . y), where w acts on C_n by the
    stored action "<z><n>".  Table 3 has z = 0; Table 4 has z = 1, and no
    action of C1 on itself is declared, so it acts by multiplication.
    """
    def act(n):
        return (lambda w, x: w * x) if n == z else m.action(f"{z}{n}")

    def row(key):
        a, b, v = SIGNATURES["liftings"][key]
        L, on_a, on_b, on_v = m.lifting(key), act(a), act(b), act(v)
        return _sweep(f"{title}[{key}]", [m.levels[z], m.levels[a], m.levels[b]],
                      lambda w, x, y: [(on_v(w, L(x, y)), L(on_a(w, x), y)),
                                       (on_v(w, L(x, y)), L(x, on_b(w, y)))])
    return [row(key) for key in _EQUIVARIANCE_ROWS]


def crossed_as_3cm(m: CrossedModule, name: str = "") -> ThreeCrossedModule:
    """Degenerate 3-crossed module: trivial C3 and C2 over a crossed module."""
    zero3 = Algebra(m.C.field, np.zeros((0, 0, 0), dtype=np.int64), (), None, "0")
    zero2 = Algebra(m.C.field, np.zeros((0, 0, 0), dtype=np.int64), (), None, "0")
    return trivial_3cm((m.R, m.C, zero2, zero3), name or f"{m.name}+trivial-tops",
                       d1=m.boundary, a01=m.action)
