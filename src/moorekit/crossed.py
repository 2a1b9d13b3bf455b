"""Crossed modules, 2-crossed modules and 3-crossed modules as one type,
CrossedChain, with mechanized axiom verifiers.

A crossed chain of length m is the length-m cut of the hypercrossed
structure of a simplicial algebra (Carrasco & Cegarra, JPAA 75, 1991):
levels C_0..C_m, boundaries d_1..d_m, and the actions and liftings
CARRIED[m], each typed by SIGNATURES.  Length 1 is a crossed module,
length 2 a 2-crossed module and length 3 a 3-crossed module.

Every identity a verifier or table audit sweeps is one string
"<slots>: <side> = <side> [= <side>]" in one table per family: _CM,
_TWO_CM, _THREE_CM, Tables 3-4 in _EQUIVARIANCE (made from SIGNATURES)
and Table 2 in functors._TABLE2.  A slot's last digit is its level: x1
runs over the basis of C1 unless the caller passes a stack for it.  A
side is a Python expression over the slots, calls of the _OPERATIONS
(d1..d3, the actions a01..a23, the liftings L + the digits of their key:
L, L10, L20, L21, L102, L201, L021), + - * (x * y is the product of the
level, the multiplication or the bracket) and unary -; a side 0, never
the first, is the zero of the first side's level.  The printed transposes
{a (x) b}_{(1)(2,0)} and _{(2)(1,0)} are L201 and L102 with their
arguments swapped.  A tuple fails where the first side differs from any
other.  Each string is parsed once per process (ast.parse, never eval),
and _identity turns it and a chain into the (slots, fun) _evaluate takes.

Every axiom in scope but 3CM6 is multilinear in each slot, so its value
on basis tuples decides it exactly; 3CM6 is a linear plus a quadratic
map in each slot, so its value on pairs of coeff.quadratic_points
decides it exactly.  Each identity is evaluated once on stacked tuples:
slot i holds its whole basis (or its points) on axis i, every operation
broadcasts, and the first failing tuple in C order (the order of
itertools.product) is the witness.  The action laws are such rows too,
laws of one action rather than printed identities; only the complex
conditions and the multiplicativity of the boundaries stay checks on
whole matrices.

The levels of a chain are all commutative algebras or all Lie algebras
(coeff.LieAlgebra), and x * y is then the product or the bracket, so
each axiom is read once with each.  The verifiers read the carrier in
two places only: _action_laws sweeps the laws of an action by algebra
maps or, over Lie algebras, by derivations, and verify_3cm adds Tables
3-4 on commutative chains only, since the printed tables are the
commutative equivariances.  Stored actions are the ones the definitions
declare (the base algebra acting on the higher ones); the action of
degree-1 elements on degree-2 elements in a 2-crossed module is derived
from the lifting, {y (x) d2 x} = y . x, and likewise one level up.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field, replace
from functools import cache
from types import MappingProxyType

import numpy as np

from .coeff import (Algebra, BilinearMap, Element, Ideal, LieAlgebra, Morphism,
                    PreconditionError, ideal_closure, matmul, null_space,
                    quadratic_points, quotient, reduce_against, subalgebra,
                    sweep_step, validate_algebra)
from .report import FAIL, PASS, CheckRecord

# The levels of the left argument, the right argument and the value of
# every action ("ab": C_a acting on C_b) and lifting (keyed by its
# pairing) a crossed chain can carry.
SIGNATURES = {"01": (0, 1, 1), "02": (0, 2, 2), "03": (0, 3, 3),
              "12": (1, 2, 2), "13": (1, 3, 3), "23": (2, 3, 3),
              "(1)(0)": (2, 2, 3), "(2)(0)": (2, 2, 3), "(2)(1)": (2, 2, 3),
              "(1,0)(2)": (1, 2, 3), "(2,0)(1)": (1, 2, 3),
              "(0)(2,1)": (2, 1, 3), "()": (1, 1, 2)}
ACTIONS = tuple(key for key in SIGNATURES if key.isdigit())
# the maps a chain of length m carries: none on a lone algebra, the
# C_0-action on C_1 on a crossed module, also the C_0-action on C_2 and
# the Peiffer lifting on a 2-crossed module, and all of them at m = 3
CARRIED = {0: (), 1: ("01",), 2: ("01", "02", "()"), 3: tuple(SIGNATURES)}
# the identity language's name of each map: "a" + the key of an action,
# "L" + the digits of the key of a lifting
_NAMES = {key: f"a{key}" if key in ACTIONS else "L" + "".join(filter(str.isdigit, key))
          for key in SIGNATURES}
# every operation by name: a boundary d<n> as n, a map as its key
_OPERATIONS = {**{f"d{n}": n for n in (1, 2, 3)}, **{name: key for key, name in _NAMES.items()}}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


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


def _flag(name: str, ok: bool) -> AxiomEntry:
    return AxiomEntry(name, PASS if ok else FAIL, 1, None if ok else {})


def _action_laws(name: str, act: BilinearMap) -> AxiomEntry:
    """The laws of an action of S on N, swept over the basis tuples
    (s, s', n, n'): s.(n n') = (s.n) n' and (s s').n = s.(s'.n) for
    algebras; for Lie algebras, an action by derivations through a Lie
    homomorphism, s.[n, n'] = [s.n, n'] + [n, s.n'] and
    [s, s'].n = s.(s'.n) - s'.(s.n)."""
    S, N = act.left, act.right

    def laws(s, s2, n, n2):
        if isinstance(N, LieAlgebra):
            return [(act(s, n * n2), act(s, n) * n2 + n * act(s, n2)),
                    (act(s * s2, n), act(s, act(s2, n)) - act(s2, act(s, n)))]
        return [(act(s, n * n2), act(s, n) * n2), (act(s * s2, n), act(s, act(s2, n)))]
    return _sweep(name, [S, S, N, N], laws)


# ---------------------------------------------------------------------------
# identities (the language of the module docstring)


@cache
def _parse(text: str) -> tuple[tuple[str, ...], tuple[ast.expr, ...]]:
    """The slot names and the side trees of an identity."""
    slots, _, sides = text.partition(":")
    return (tuple(slot.strip() for slot in slots.split(",")),
            tuple(ast.parse(side.strip(), mode="eval").body for side in sides.split("=")))


def _term(node: ast.expr, chain: CrossedChain, env: dict):
    """The value of a side's tree at the slot values env; None for 0."""
    if isinstance(node, ast.Call):
        op = _OPERATIONS[node.func.id]
        f = chain.boundaries[op - 1] if isinstance(op, int) else chain.maps[op]
        return f(*[_term(arg, chain, env) for arg in node.args])
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_term(node.left, chain, env), _term(node.right, chain, env))
    if isinstance(node, ast.UnaryOp):
        return -_term(node.operand, chain, env)
    return None  # the constant 0


def _identity(chain: CrossedChain, text: str, stacks=None) -> tuple[list, object]:
    """The (slots, fun) pair _evaluate takes for an identity on a chain:
    the slots are the levels the slot names end in, or the given stacks,
    and fun pairs the first side with each other side."""
    names, sides = _parse(text)

    def fun(*args):
        env = dict(zip(names, args))
        first, *rest = [_term(side, chain, env) for side in sides]
        return [(first, first.parent.zero() if v is None else v) for v in rest]
    return stacks or [chain.levels[int(name[-1])] for name in names], fun


def _sweeps(chain: CrossedChain, table: dict, prefix: str = "", omit=(),
            stacks=None) -> list[AxiomEntry]:
    """The entry "<prefix><name>" of each identity of a table but those in
    omit, swept on its levels' bases or on stacks[name]."""
    return [_sweep(prefix + name, *_identity(chain, text, (stacks or {}).get(name)))
            for name, text in table.items() if name not in omit]


# ---------------------------------------------------------------------------
# crossed chains


@dataclass(frozen=True, eq=False)
class CrossedChain:
    """A complex C_m -> ... -> C_0, 0 <= m <= 3, with the actions and
    liftings CARRIED[m]: a crossed module at m = 1, a 2-crossed module at
    m = 2 and a 3-crossed module at m = 3.

    levels[n] is C_n, boundaries[n - 1] is d_n : C_n -> C_{n-1}, and
    maps[key] is the map SIGNATURES[key] types.  The levels are all
    commutative algebras or, for a Lie chain, all Lie algebras.  Every
    boundary and map is checked to run between the levels it names.
    """

    levels: tuple[Algebra, ...]
    boundaries: tuple[Morphism, ...] = ()
    maps: dict = field(default_factory=dict)  # frozen, in CARRIED order
    name: str = ""

    def __post_init__(self):
        levels, m = tuple(self.levels), len(self.boundaries)
        if m not in CARRIED or len(levels) != m + 1:
            raise PreconditionError(f"{len(levels)} levels for {m} boundaries")
        if len({type(level) for level in levels}) > 1:
            raise PreconditionError("a chain's levels must be all algebras or all Lie algebras")
        for n, d in enumerate(self.boundaries, 1):
            if d.source is not levels[n] or d.target is not levels[n - 1]:
                raise PreconditionError(f"d{n} must map C{n} to C{n - 1}")
        if set(self.maps) != set(CARRIED[m]):
            raise PreconditionError(f"a chain of length {m} carries the maps "
                                    f"{list(CARRIED[m])}, not {list(self.maps)}")
        for key in CARRIED[m]:
            a, b, v = SIGNATURES[key]
            f = self.maps[key]
            if f.left is not levels[a] or f.right is not levels[b] or f.target is not levels[v]:
                raise PreconditionError(f"map {key} must map C{a} (x) C{b} to C{v}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        object.__setattr__(self, "maps",
                           MappingProxyType({key: self.maps[key] for key in CARRIED[m]}))

    def d(self, n: int) -> Morphism:
        """The boundary d_n : C_n -> C_{n-1}."""
        return self.boundaries[n - 1]

    def map(self, key: str) -> BilinearMap:
        return self.maps[key]


def zero_extension(base: CrossedChain, m: int, tops=None, name: str = "") -> CrossedChain:
    """The chain of length m over base: base's levels, then the levels
    `tops` (zero algebras of base's carrier when not given), and zero
    wherever base has no boundary or map.  Over a crossed module at m = 2
    it is Remark 1's 2-crossed module with trivial top term."""
    low, C0 = len(base.boundaries), base.levels[0]
    if tops is None:
        tops = [type(C0)(C0.field, np.zeros((0, 0, 0), dtype=np.int64), (), None, "0")
                for _ in range(m - low)]
    levels = base.levels + tuple(tops)
    boundaries = base.boundaries + tuple(Morphism.zero(levels[n], levels[n - 1])
                                         for n in range(low + 1, m + 1))
    maps = {key: base.maps[key] if key in base.maps
            else BilinearMap.zero(*(levels[i] for i in SIGNATURES[key]))
            for key in CARRIED[m]}
    return CrossedChain(levels, boundaries, maps, name or f"{base.name}+trivial-tops")


def _top(m: CrossedChain, length: int) -> CrossedChain:
    """The top `length` boundaries of a 3-crossed module as a crossed
    module (length 1, acted on by C2) or a 2-crossed module (length 2,
    acted on by C1, its lifting (2)(1))."""
    keys = {1: {"01": "23"}, 2: {"01": "12", "02": "13", "()": "(2)(1)"}}[length]
    return CrossedChain(m.levels[3 - length:], m.boundaries[3 - length:],
                        {key: m.maps[of] for key, of in keys.items()}, "top-segment")


# ---------------------------------------------------------------------------
# crossed modules


# CM1, CM2 and the lemma that the boundary image acts trivially on the
# kernel, whose k1 runs over a basis of ker d1
_KERNEL = "image-acts-trivially-on-kernel"
_CM = {"CM1": "r0, c1: d1(a01(r0, c1)) = r0 * d1(c1)",
       "CM2": "c1, k1: a01(d1(c1), k1) = c1 * k1",
       _KERNEL: "c1, k1: a01(d1(c1), k1) = 0"}


def verify_cm(m: CrossedChain) -> AxiomReport:
    """CM1, CM2, action laws, plus the two lemmas: the boundary image is
    an ideal of R = C_0 and acts trivially on the kernel."""
    (R, C), bd = m.levels, m.d(1)
    kernel = Element(C, null_space(bd.matrix, C.p))
    entries = [
        _flag("boundary-multiplicative", bd.is_multiplicative()),
        _action_laws("action-algebra", m.map("01")),
        *_sweeps(m, _CM, omit=(_KERNEL,)),
        _flag("image-is-ideal", Ideal(R, bd.matrix.T).is_mult_closed()),
        _sweep(_KERNEL, *_identity(m, _CM[_KERNEL], [C, kernel])),
    ]
    return AxiomReport(m.name or "crossed-module", tuple(entries))


def ideal_pair(R: Algebra, gens, name: str = "") -> CrossedChain:
    """Inclusion crossed module of the ideal generated by gens in R."""
    ideal = ideal_closure(R, gens)
    C, incl = subalgebra(R, ideal, name=f"{name or 'I'}")
    # R acts on the ideal by multiplication, written in ideal coordinates
    prods = R.mul_vec(np.eye(R.dim, dtype=np.int64)[:, None], incl.matrix.T[None])
    act = BilinearMap(R, C, C, ideal.coords(prods))
    return CrossedChain((R, C), (incl,), {"01": act}, name or "ideal-pair")


def zero_module_cm(M: Algebra, R: Algebra, action: BilinearMap, name: str = "") -> CrossedChain:
    """Zero boundary M -> R; a crossed module exactly when M has zero
    multiplication."""
    return CrossedChain((R, M), (Morphism.zero(M, R),), {"01": action},
                        name or "zero-module")


def multiplication_cm(R: Algebra) -> CrossedChain:
    """The multiplication crossed module mu : R -> M(R).

    M(R) is the solution space of delta(r r') = delta(r) r' over all
    basis pairs, multiplied by composition.  Requires Ann(R) = 0 or
    R^2 = R, verified by rank computation; composition is re-verified
    commutative.
    """
    p, d = R.p, R.dim
    eye = np.eye(d, dtype=np.int64)
    S = R.mul_vec(eye[:, None], eye[None])  # S[i, j]: e_i e_j
    # Ann(R) = 0 when no x has x e_i = sum_j x_j S[j, i] = 0 for every i, and
    # R^2 = R when the products S[i, j] span R: a null space of dim 0 each
    ann_zero, square_full = (not null_space(M.reshape(d * d, d), p).shape[0]
                             for M in (S.transpose(1, 2, 0), S))
    if not (ann_zero or square_full):
        raise PreconditionError("hypothesis Ann(R) = 0 or R^2 = R fails")
    # delta as a d x d matrix X: X @ (e_i e_j) = (X @ e_i) * e_j, one row
    # (i, j, a) per basis pair and coordinate, one column per entry X[c, b]
    blocks = (S[:, :, None, None, :] * eye[None, None, :, :, None]
              - eye[:, None, None, None, :] * S.transpose(1, 2, 0)[None, :, :, :, None])
    basis_flat = null_space(blocks.reshape(d ** 3, d * d) % p, p)
    mdim = basis_flat.shape[0]
    mats = basis_flat.reshape(mdim, d, d)
    pivots = [int(np.flatnonzero(row)[0]) for row in basis_flat]  # null_space is in rref

    def coords(flat: np.ndarray) -> np.ndarray:
        if reduce_against(flat, basis_flat, pivots, p).any():
            raise PreconditionError("composition leaves the multiplier space")
        return flat[..., pivots]

    struct = coords(matmul(mats[:, None], mats[None], p).reshape(mdim, mdim, d * d))
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
    return CrossedChain((MR, R), (mu,), {"01": act}, "multiplication-cm")


# ---------------------------------------------------------------------------
# 2-crossed modules


# the equivariance of both boundaries, then 2CM1-2CM5; C1 acts on C2 by
# y . x = {y (x) d2 x}
_TWO_CM = {"d2-equivariant": "z0, x2: d2(a02(z0, x2)) = a01(z0, d2(x2))",
           "d1-equivariant": "z0, y1: d1(a01(z0, y1)) = z0 * d1(y1)",
           "2CM1": "x1, y1: d2(L(x1, y1)) = x1 * y1 - a01(d1(y1), x1)",
           "2CM2": "x2, y2: L(d2(x2), d2(y2)) = x2 * y2",
           "2CM3": "x1, y1, z1: L(x1, y1 * z1) = L(x1 * y1, z1) + a02(d1(z1), L(x1, y1))",
           "2CM4i": "x2, y1: L(d2(x2), y1) = L(y1, d2(x2)) - a02(d1(y1), x2)",
           "2CM4ii": "x2, y1: L(y1, d2(x2)) = L(y1, d2(x2))",
           "2CM5": "z0, x1, y1: a02(z0, L(x1, y1)) = L(a01(z0, x1), y1) = L(x1, a01(z0, y1))"}


def verify_2cm(t: CrossedChain) -> AxiomReport:
    (C0, _, _), (d1, d2) = t.levels, t.boundaries
    entries = [
        _flag("complex", not matmul(d1.matrix, d2.matrix, C0.p).any()),
        _flag("d2-multiplicative", d2.is_multiplicative()),
        _flag("d1-multiplicative", d1.is_multiplicative()),
        _action_laws("action-c1-algebra", t.map("01")),
        _action_laws("action-c2-algebra", t.map("02")),
        *_sweeps(t, _TWO_CM),
    ]
    return AxiomReport(t.name or "two-crossed-module", tuple(entries))


def _divide_top(chain: CrossedChain, above: Morphism, rows) -> CrossedChain:
    """Divide the top level C of a chain by the span I of the image of rows
    under above : C' -> C.  I must be an ideal that the top boundary kills
    and each map with an argument in C keeps.  Returns the chain on C / I
    with the induced top boundary and maps, each map restricted in each
    slot taking C to the basis vectors C / I keeps and projected when
    valued in C.
    """
    top, boundary = chain.levels[-1], chain.boundaries[-1]
    p = top.p
    if above.target is not top:
        raise PreconditionError("the divided image lies outside the top level")
    I = Ideal(top, matmul(rows, above.matrix.T, p))
    Q, pi = quotient(top, I, name=f"{top.name}/im")  # raises unless I is an ideal
    if matmul(boundary.matrix, I.basis_matrix.T, p).any():
        raise PreconditionError("the boundary does not kill the divided ideal")
    keep = np.delete(np.arange(top.dim), I.pivots)  # pi maps e_keep[q] to e_q
    divided = {}
    for key, f in chain.maps.items():
        t = f.tensor
        for axis in (i for i, A in enumerate((f.left, f.right)) if A is top):
            if not I.contains(matmul(I.basis_matrix, np.moveaxis(f.tensor, axis, 1), p)):
                raise PreconditionError(
                    f"induced map {key} ill-defined on cosets: it leaves the divided ideal")
            t = np.take(t, keep, axis=axis)
        if f.target is top:
            t = matmul(t, pi.matrix.T, p)
        divided[key] = BilinearMap(*(Q if A is top else A for A in (f.left, f.right, f.target)), t)
    return CrossedChain(chain.levels[:-1] + (Q,),
                        chain.boundaries[:-1] + (Morphism(Q, boundary.target, boundary.matrix[:, keep]),),
                        divided, chain.name)


# ---------------------------------------------------------------------------
# 3-crossed modules


def _structure_entries(m: CrossedChain) -> list[AxiomEntry]:
    """Both complex conditions and each boundary multiplicative."""
    p = m.levels[0].p
    return [_flag("complex-d2d3", not matmul(m.d(2).matrix, m.d(3).matrix, p).any()),
            _flag("complex-d1d2", not matmul(m.d(1).matrix, m.d(2).matrix, p).any()),
            *(_flag(f"d{n}-multiplicative", m.d(n).is_multiplicative()) for n in (3, 2, 1))]


def _prefixed(prefix: str, report: AxiomReport) -> list[AxiomEntry]:
    """The entries of a sub-report, renamed "<prefix>/<name>"."""
    return [replace(e, name=f"{prefix}/{e.name}") for e in report.entries]


# 3CM2-3CM16 as printed; 3CM6 runs on pairs of quadratic_points of C2
_THREE_CM = {
    "3CM2": "x1, y1: d2(L(x1, y1)) = a01(d1(y1), x1) - x1 * y1",
    "3CM3": "x2, y2: L021(x2, d2(y2)) = L21(x2, y2) - L10(x2, y2)",
    "3CM4": "x2, y2: d3(L10(x2, y2)) = L(d2(x2), d2(y2)) + x2 * y2",
    "3CM5": "x1, y3: L201(x1, d3(y3)) = L021(d3(y3), x1) + L102(x1, d3(y3)) - a03(d1(x1), y3)",
    "3CM6": "x2, y2: L201(d2(x2), y2) = -L20(x2, y2) + a23(x2 * y2, L21(x2, y2)) + L10(x2, y2)",
    "3CM7": "x3, y3: L10(d3(x3), d3(y3)) = y3 * x3",
    "3CM8": "y3, x2: L021(d3(y3), d2(x2)) = -a13(d2(x2), y3)",
    "3CM9": "x2, y3: L102(d2(x2), d3(y3)) = -L20(x2, d3(y3))",
    "3CM10": "x2, y3: L201(d2(x2), d3(y3)) = a13(d2(x2), y3) - L20(x2, d3(y3))",
    "3CM11": "y3, x1: L021(d3(y3), x1) = -a13(x1, y3)",
    "3CM12": "y2, x3: L10(y2, d3(x3)) = -a23(y2, x3)",
    "3CM13": "x3, y2: L10(d3(x3), y2) = a23(y2, x3)",
    "3CM14": "x3, y2: L20(d3(x3), y2) = 0",
    "3CM15": "x1, y2: d3(L201(x1, y2)) = d3(L102(x1, y2)) + L(x1, d2(y2)) - a02(d1(x1), y2)"
             " + a12(x1, y2)",
    "3CM16": "x1, y2: d3(L021(y2, x1)) = L(x1, d2(y2)) - a12(x1, y2)",
}


def _equivariance(key: str, z: int) -> str:
    """The row of a lifting L in Table 3 (z = 0) or 4 (z = 1): for L of
    signature (a, b, v) and w in C_z, w . L(x, y) = L(w . x, y) = L(x, w . y),
    where w acts on C_n by the action a<z><n>, or by the product when
    n = z, since no action of C1 on itself is declared."""
    (a, b, v), L = SIGNATURES[key], _NAMES[key]

    def act(n, x):
        return f"w{z} * {x}" if n == z else f"a{z}{n}(w{z}, {x})"
    return (f"w{z}, x{a}, y{b}: {act(v, f'{L}(x{a}, y{b})')} = {L}({act(a, f'x{a}')}, y{b})"
            f" = {L}(x{a}, {act(b, f'y{b}')})")


# Tables 3 and 4 by table, their rows in printed order
_EQUIVARIANCE = {t: {f"table{t}[{key}]": _equivariance(key, t - 3) for key in
                     ("()", "(1,0)(2)", "(0)(2,1)", "(2,0)(1)", "(1)(0)", "(2)(0)", "(2)(1)")}
                 for t in (3, 4)}


def verify_3cm(m: CrossedChain) -> AxiomReport:
    """3CM1 through 3CM16 as printed, the degree-3 crossed module property,
    and, on a commutative chain, the two equivariance tables.

    Each axiom is evaluated once on stacked basis tuples, which decides
    it exactly since it is multilinear per slot; 3CM6 is linear plus
    quadratic in each slot, so it is evaluated on pairs of
    quadratic_points of C2, which decides it exactly too.
    """
    entries = _structure_entries(m)
    entries += [_action_laws(f"action-{key}-algebra", m.map(key)) for key in ACTIONS]
    entries += _sweeps(_top(m, 1), _CM, "d3-crossed-", omit=(_KERNEL,))
    entries += _prefixed("3CM1", verify_2cm(_top(m, 2)))
    entries += _sweep_3cm2_to_16(m)
    if not isinstance(m.levels[0], LieAlgebra):
        entries += _sweeps(m, _EQUIVARIANCE[3]) + _sweeps(m, _EQUIVARIANCE[4])
    return AxiomReport(m.name or "three-crossed-module", tuple(entries))


def _sweep_3cm2_to_16(m: CrossedChain) -> list[AxiomEntry]:
    """The entries of _THREE_CM; 3CM6's detail gives its mode,
    basis-exact, and its witness is a pair of elements where it fails."""
    C2 = m.levels[2]
    points = Element(C2, quadratic_points(C2.dim, C2.p))
    entries = _sweeps(m, _THREE_CM, stacks={"3CM6": [points, points]})
    return [replace(e, detail={"mode": "basis-exact"}) if e.name == "3CM6" else e
            for e in entries]
