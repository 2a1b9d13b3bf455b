"""The batched axiom sweep against a plain per-tuple reference.

``crossed._evaluate`` evaluates each axiom once on stacked basis tuples.
``reference_evaluate`` below is the sweep it replaced: one tuple of
unbatched Elements at a time, in itertools.product order.  Every test
runs a verifier or table audit twice, once as shipped and once with the
reference patched in, and requires identical entries and records.  The
3CM6 tests compare its decision on pairs of quadratic points with a
sweep over every element pair of C2 instead, and the action-law tests at
the end compare the rows of both carriers with the tensor checkers they
replaced.
"""

import itertools
import random

import numpy as np
import pytest

from moorekit import coeff, corpus, crossed, functors
from moorekit.coeff import (Algebra, BilinearMap, Element, LieAlgebra, Morphism, Supply,
                            Violation, supply_rows)
from moorekit.crossed import (ACTIONS, SIGNATURES, CrossedChain, verify_2cm, verify_3cm,
                              verify_cm, zero_extension)
from moorekit.functors import hypercrossed, table_identities_check
from moorekit.lie import verify_lie_3cm
from moorekit.simplicial import TruncatedSimplicialAlgebra
from reference import named_entry

CHARS = (2, 3, 5)


def reference_evaluate(slots, fun):
    """Per-tuple sweep: the first tuple in product order where any pair
    differs, (checked, (arguments, lhs, rhs)) as _evaluate returns them."""
    bases = [[s.basis_element(i) for i in range(s.dim)] if isinstance(s, Algebra) else
             [Element(s.parent, row) for row in s.coeffs] for s in slots]
    checked = 0
    for tup in itertools.product(*bases):
        checked += 1
        pairs = fun(*tup)
        if isinstance(pairs, tuple):
            pairs = [pairs]
        for lhs, rhs in pairs:
            if lhs != rhs:
                args = {f"arg{i}": list(map(int, x.coeffs)) for i, x in enumerate(tup)}
                return checked, (args, list(map(int, lhs.coeffs)), list(map(int, rhs.coeffs)))
    return checked, None


def entries(report):
    return [(e.name, e.status, e.checked, e.witness, e.detail) for e in report.entries]


def lines(records):
    return [r.json_line() for r in records]


def both(monkeypatch, run):
    """run() as shipped, then with the per-tuple reference patched in."""
    batched = run()
    with monkeypatch.context() as m:
        m.setattr(crossed, "_evaluate", reference_evaluate)
        m.setattr(functors, "_evaluate", reference_evaluate)
        reference = run()
    return batched, reference


def tensor_simplicial(E, F) -> TruncatedSimplicialAlgebra:
    """Levelwise tensor product E (x) F: structure tensors multiply, faces
    and degeneracies are Kronecker products, and the basis pair (a, b) has
    index a * dim F_n + b.  By Eilenberg-Zilber it is again simplicial."""
    levels = []
    for A, B in zip(E.levels, F.levels):
        d = A.dim * B.dim
        c = np.einsum("ijk,abc->iajbkc", A.structure, B.structure).reshape(d, d, d)
        identity = (None if A.identity is None or B.identity is None
                    else A.identity * B.dim + B.identity)
        names = tuple(f"{a}*{b}" for a in A.basis_names for b in B.basis_names)
        levels.append(Algebra(A.field, c, names, identity))

    def kron(maps, others, source, target):
        return {(n, i): Morphism(levels[source(n)], levels[target(n)],
                                 np.kron(f.matrix, others[(n, i)].matrix))
                for (n, i), f in maps.items()}

    return TruncatedSimplicialAlgebra(
        tuple(levels),
        kron(E.faces, F.faces, lambda n: n, lambda n: n - 1),
        kron(E.degeneracies, F.degeneracies, lambda n: n - 1, lambda n: n),
        name=f"{E.name}(x){F.name}")


@pytest.fixture(scope="module")
def degree3():
    """ideal-pair (x) sq0-lifting at p = 2: non-zero degree-3 data."""
    simp = corpus.simplicial_corpus(2)
    return tensor_simplicial(simp["ideal-pair"], simp["sq0-lifting"])


def with_random_liftings(m: CrossedChain, seed: int) -> CrossedChain:
    rng = np.random.default_rng(seed)
    liftings = {key: BilinearMap(L.left, L.right, L.target,
                                 rng.integers(0, L.target.p, L.tensor.shape))
                for key, L in m.maps.items() if key not in ACTIONS}
    return CrossedChain(m.levels, m.boundaries, {**m.maps, **liftings}, "random-liftings")


@pytest.mark.parametrize("p", CHARS)
def test_crossed_and_two_crossed_corpus_match_reference(p, monkeypatch):
    for cm in corpus.crossed_corpus(p).values():
        batched, reference = both(monkeypatch, lambda: entries(verify_cm(cm)))
        assert batched == reference, cm.name
    for t in corpus.two_crossed_corpus(p).values():
        batched, reference = both(monkeypatch, lambda: entries(verify_2cm(t)))
        assert batched == reference, t.name


@pytest.mark.parametrize("p", CHARS)
def test_three_crossed_and_lie_corpus_match_reference(p, monkeypatch):
    for name, E in corpus.simplicial_corpus(p).items():
        m = hypercrossed(E, 3)[0]
        batched, reference = both(monkeypatch, lambda: entries(verify_3cm(m)))
        assert batched == reference, name
    for name, m in corpus.lie_three_corpus(p).items():
        batched, reference = both(monkeypatch, lambda: entries(verify_lie_3cm(m)))
        assert batched == reference, name


@pytest.mark.parametrize("p", CHARS)
@pytest.mark.parametrize("table", [2, 3, 4])
def test_tables_corpus_match_reference(p, table, monkeypatch):
    for name, E in corpus.simplicial_corpus(p).items():
        batched, reference = both(
            monkeypatch, lambda: lines(table_identities_check(E, table)))
        assert batched == reference, name


def test_degree3_tensor_matches_reference_with_its_findings(degree3, monkeypatch):
    batched, reference = both(
        monkeypatch, lambda: entries(verify_3cm(hypercrossed(degree3, 3)[0])))
    assert batched == reference
    status = {name: st for name, st, *_ in batched}
    assert status["3CM15"] == "fail" and status["table4[()]"] == "fail"
    assert all(st == "pass" for name, st, *_ in batched
               if name not in ("3CM15", "table4[()]"))
    for table in (2, 4):
        batched, reference = both(
            monkeypatch, lambda: lines(table_identities_check(degree3, table)))
        assert batched == reference


@pytest.mark.parametrize("seed", [1, 2])
def test_random_liftings_fail_past_the_first_tuple(degree3, seed, monkeypatch):
    m = with_random_liftings(hypercrossed(degree3, 3)[0], seed)
    batched, reference = both(monkeypatch, lambda: entries(verify_3cm(m)))
    assert batched == reference
    failing = [checked for _, st, checked, *_ in batched if st == "fail"]
    assert failing and max(failing) > 1
    (mode,) = [detail for name, *_, detail in batched if name == "3CM6"]
    assert mode == {"mode": "basis-exact"}


def test_grids_spanning_many_steps_match_reference(degree3, monkeypatch):
    m = with_random_liftings(hypercrossed(degree3, 3)[0], 3)
    monkeypatch.setattr(coeff, "_SWEEP_CELLS", 7)  # every grid takes several steps
    batched, reference = both(monkeypatch, lambda: entries(verify_3cm(m)))
    assert batched == reference
    assert sum(checked for _, _, checked, *_ in batched) > 7
    batched, reference = both(
        monkeypatch, lambda: lines(table_identities_check(degree3, 2)))
    assert batched == reference


@pytest.mark.parametrize("p, dim, supply", [(2, 3, Supply()), (3, 2, Supply(exhaustive_bound=4)),
                                            (5, 0, Supply(exhaustive_bound=0))])
def test_supply_rows_are_the_element_supply(p, dim, supply):
    # every vector in lexicographic order within the bound, else budget
    # vectors of random.Random(seed) draws; the zero space's is its zero vector
    rows, exhaustive = supply_rows(dim, p, supply)
    if dim == 0 or supply.is_exhaustive(dim, p):
        want = list(itertools.product(range(p), repeat=dim))
    else:
        rng = random.Random(supply.seed)
        want = [[rng.randrange(p) for _ in range(dim)] for _ in range(supply.budget)]
    assert np.array_equal(rows, np.array(want, dtype=np.int64).reshape(len(want), dim))
    assert exhaustive == (dim == 0 or supply.is_exhaustive(dim, p))


def test_3cm6_mode_on_corpus_is_basis_exact(built):
    rep = verify_3cm(hypercrossed(built("cubic-chain"), 3)[0])
    assert named_entry(rep, "3CM6").detail == {"mode": "basis-exact"}
    assert [e.name for e in rep.entries if e.detail] == ["3CM6"]


def test_evaluate_reports_the_first_differing_pair():
    A = corpus.dual_numbers(3)
    fun = lambda x, y: [(x, x), (x * y, x + y)]  # noqa: E731
    assert crossed._evaluate([A, A], fun) == reference_evaluate([A, A], fun)


# ---------------------------------------------------------------------------
# 3CM6 on pairs of quadratic points against every element pair of C2


def printed_3cm6(m: CrossedChain):
    """3CM6 as printed: (lhs, rhs) at a pair of C2 elements."""
    d2, a23 = m.d(2), m.map("23")
    L10, L20, L21, L201 = (m.map(k) for k in ("(1)(0)", "(2)(0)", "(2)(1)", "(2,0)(1)"))
    return lambda x2, y2: (L201(d2(x2), y2),
                           -L20(x2, y2) + a23(x2 * y2, L21(x2, y2)) + L10(x2, y2))


def holds_on_every_pair(m: CrossedChain) -> bool:
    A = m.levels[2]
    every = Element(A, np.array(list(itertools.product(range(A.p), repeat=A.dim)),
                                dtype=np.int64).reshape(A.p ** A.dim, A.dim))
    return crossed._evaluate([every, every], printed_3cm6(m))[1] is None


def assert_3cm6_matches_every_pair(m: CrossedChain):
    """verify_3cm decides 3CM6 as the sweep over every element pair does,
    and a failing witness fails the printed formula; returns the entry."""
    C2 = m.levels[2]
    assert C2.p ** C2.dim <= 4096
    entry = named_entry(verify_3cm(m), "3CM6")
    assert entry.detail == {"mode": "basis-exact"}
    assert (entry.status == "pass") == holds_on_every_pair(m), m.name
    if entry.status == "fail":
        lhs, rhs = printed_3cm6(m)(*(Element(C2, np.array(entry.witness[arg]))
                                     for arg in ("arg0", "arg1")))
        assert lhs != rhs
    return entry


@pytest.mark.parametrize("p", CHARS)
def test_3cm6_on_corpus_extractions_matches_every_pair(p):
    for name, E in corpus.simplicial_corpus(p).items():
        m = hypercrossed(E, 3)[0]
        assert assert_3cm6_matches_every_pair(m).status == "pass", name
        for seed in (1, 2):
            assert_3cm6_matches_every_pair(with_random_liftings(m, seed))


@pytest.mark.parametrize("p", [2, 3])
def test_3cm6_on_a_degree3_tensor_matches_every_pair(p):
    # ideal-pair (x) sq0-lifting: C2 has dim 6 and C3 dim 3
    simp = corpus.simplicial_corpus(p)
    m = hypercrossed(tensor_simplicial(simp["ideal-pair"], simp["sq0-lifting"]), 3)[0]
    assert assert_3cm6_matches_every_pair(m).status == "pass"
    for seed in (1, 2):
        assert assert_3cm6_matches_every_pair(with_random_liftings(m, seed)).status == "fail"


def random_3cm6_data(p: int, seed: int) -> CrossedChain:
    """Sparse random levels (dims 0, 1, 1-3, 1-2), d2, actions and liftings:
    every map 3CM6 reads, the product of C2 included, is random."""
    rng = np.random.default_rng(seed)

    def sparse(shape):
        return rng.integers(0, p, shape) * (rng.random(shape) < 0.15)

    dims = (0, 1, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    levels = [Algebra(coeff.PrimeField(p), sparse((d, d, d)), tuple(f"e{i}" for i in range(d)))
              for d in dims]
    maps = {key: BilinearMap(*(levels[i] for i in sig), sparse(tuple(levels[i].dim for i in sig)))
            for key, sig in SIGNATURES.items()}
    C0, C1, C2, C3 = levels
    return CrossedChain(levels, (Morphism.zero(C1, C0), Morphism(C2, C1, sparse((1, C2.dim))),
                                 Morphism.zero(C3, C2)), maps, f"random-{p}-{seed}")


@pytest.mark.parametrize("p", CHARS)
def test_3cm6_on_random_data_matches_every_pair(p):
    statuses = {assert_3cm6_matches_every_pair(random_3cm6_data(p, seed)).status
                for seed in range(30)}
    assert statuses == {"pass", "fail"}


def off_basis_mutant(p: int) -> CrossedChain:
    """C1 = C0 = 0, C3 = span(w), and every map zero but e0 . w = w,
    L21(e0, e0) = w and, for p > 2, L20(e0, e0) = w; 3CM6 then reads
    F(x, y) = L20(x, y) - a23(x y, L21(x, y)).

    p = 2: C2 = span(e0, e1) with e0 e1 = e1 e0 = e0, so
    F = -(x0^2 y0 y1 + x0 x1 y0^2) w: zero on every basis pair, -w at
    (e0, e0 + e1).  p = 3: C2 = span(e0) with e0 e0 = e0, so
    F = (x y - x^2 y^2) w: the linear and square parts cancel at (e0, e0)
    but not at (e0, -e0)."""
    n = 2 if p == 2 else 1
    product = np.zeros((n, n, n), dtype=np.int64)
    if p == 2:
        product[0, 1, 0] = product[1, 0, 0] = 1
    else:
        product[0, 0, 0] = 1
    field = coeff.PrimeField(p)
    zero = Algebra(field, np.zeros((0, 0, 0), dtype=np.int64), ())
    C2 = Algebra(field, product, tuple(f"e{i}" for i in range(n)))
    C3 = Algebra(field, np.zeros((1, 1, 1), dtype=np.int64), ("w",))
    m = zero_extension(CrossedChain((zero,)), 3, (zero, C2, C3), f"off-basis-{p}")

    def first(L):
        t = np.zeros(L.tensor.shape, dtype=np.int64)
        t[0, 0, 0] = 1
        return BilinearMap(L.left, L.right, L.target, t)

    maps = {**m.maps, "(2)(1)": first(m.map("(2)(1)")), "23": first(m.map("23"))}
    if p > 2:
        maps["(2)(0)"] = first(m.map("(2)(0)"))
    return CrossedChain(m.levels, m.boundaries, maps, m.name)


@pytest.mark.parametrize("p", [2, 3])
def test_3cm6_fails_off_the_basis_only(p):
    m = off_basis_mutant(p)
    C2 = m.levels[2]
    assert crossed._evaluate([C2, C2], printed_3cm6(m)) == (C2.dim ** 2, None)
    assert assert_3cm6_matches_every_pair(m).status == "fail"


# ---------------------------------------------------------------------------
# the action laws against the tensor checkers the rows replaced


def action_violations(action: BilinearMap) -> list[Violation]:
    """Failures of s.(n n') = (s.n) n' and (s s').n = s.(s'.n) on basis triples."""
    S, N = action.left, action.right
    p = N.p
    t = action.tensor
    out: list[Violation] = []
    # s.(n n') vs (s.n) n'
    lhs = np.einsum("nmk,skq->snmq", N.structure, t) % p
    rhs = np.einsum("snk,kmq->snmq", t, N.structure) % p
    for s, n, m in zip(*np.nonzero(((lhs - rhs) % p).any(axis=3))):
        out.append(Violation("module", (int(s), int(n), int(m))))
    # (s s').n vs s.(s'.n)
    lhs2 = np.einsum("stk,knq->stnq", S.structure, t) % p
    rhs2 = np.einsum("tnk,skq->stnq", t, t) % p
    for s, tt, n in zip(*np.nonzero(((lhs2 - rhs2) % p).any(axis=3))):
        out.append(Violation("associative-action", (int(s), int(tt), int(n))))
    return out


def lie_action_violations(act: BilinearMap) -> list[Violation]:
    """Failures of x.[a,b] = [x.a, b] + [a, x.b] and
    [x,y].a = x.(y.a) - y.(x.a) on basis triples."""
    Lx, M = act.left, act.right
    p = M.p
    t = act.tensor
    out: list[Violation] = []
    lhs = np.einsum("abk,xkq->xabq", M.structure, t) % p
    rhs = (np.einsum("xak,kbq->xabq", t, M.structure) % p
           + np.einsum("xbk,akq->xabq", t, M.structure) % p) % p
    for x, a, b in zip(*np.nonzero(((lhs - rhs) % p).any(axis=3))):
        out.append(Violation("derivation", (int(x), int(a), int(b))))
    lhs2 = np.einsum("xyk,kaq->xyaq", Lx.structure, t) % p
    rhs2 = (np.einsum("yak,xkq->xyaq", t, t) % p
            - np.einsum("xak,ykq->xyaq", t, t) % p) % p
    for x, y, a in zip(*np.nonzero(((lhs2 - rhs2) % p).any(axis=3))):
        out.append(Violation("homomorphism", (int(x), int(y), int(a))))
    return out


# each carrier: its reference, and the kind of violation that spans the
# second acting slot (the others span the second acted-on slot)
CARRIERS = [(Algebra, action_violations, "module"),
            (LieAlgebra, lie_action_violations, "derivation")]


def random_action(cls, p: int, dims: tuple[int, int], rng) -> BilinearMap:
    """An action of a random dims[0]-dimensional structure on a random
    dims[1]-dimensional one, every constant non-zero with probability 1/4."""
    def sparse(shape):
        return rng.integers(1, p, shape) * (rng.random(shape) < 0.25)

    S, N = (cls(coeff.PrimeField(p), sparse((d, d, d)), tuple(f"e{i}" for i in range(d)))
            for d in dims)
    return BilinearMap(S, N, N, sparse((dims[0], dims[1], dims[1])))


def first_failing_tuple(violations, spans_second_acting_slot: str):
    """The first (s, s', n, n') in C order where a reference violation
    fails: a violation (s, n, n') holds for every s', and (s, s', n) for
    every n', so its first tuple puts 0 there."""
    return min(((v.indices[0], 0, *v.indices[1:]) if v.kind == spans_second_acting_slot
                else (*v.indices, 0) for v in violations), default=None)


@pytest.mark.parametrize("p", CHARS)
@pytest.mark.parametrize("cls, reference, spanning", CARRIERS)
def test_action_laws_pass_exactly_when_the_tensor_checker_finds_nothing(
        p, cls, reference, spanning):
    rng = np.random.default_rng(p)
    statuses = []
    for dims in itertools.product(range(4), repeat=2):
        for _ in range(6):
            act = random_action(cls, p, dims, rng)
            entry = crossed._action_laws("action", act)
            want = first_failing_tuple(reference(act), spanning)
            statuses.append((min(dims) > 0, entry.status))
            assert (entry.status == "pass") == (want is None), (dims, entry)
            if want is not None:
                sizes = (dims[0], dims[0], dims[1], dims[1])
                assert entry.witness == {f"arg{i}": list(np.eye(d, dtype=int)[j])
                                         for i, (d, j) in enumerate(zip(sizes, want))}
    # both verdicts occur where neither space is zero
    assert statuses.count((True, "pass")) >= 10 and statuses.count((True, "fail")) >= 30
