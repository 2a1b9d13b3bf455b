import hashlib

import numpy as np
import pytest

from moorekit import corpus
from moorekit import simplicial as simplicial_mod
from moorekit.coeff import (Algebra, BilinearMap, Ideal, Morphism,
                            PreconditionError, PrimeField, StructureError, Supply,
                            rref, validate_algebra)
from moorekit.crossed import CrossedChain, verify_2cm, verify_cm, zero_extension
from moorekit.document import corpus_document
from moorekit.moore import (SurjIndex, _projection_matrix, moore, moore_space, normal_form,
                            push_face, s_set, s_word_morphism)
from moorekit.simplicial import (LevelViolation, SimplicialViolation,
                                 TruncatedSimplicialAlgebra, _normal_block,
                                 concentrated_simplicial, constant_simplicial,
                                 decompose, degenerate_ideal,
                                 degenerate_subalgebra, extend_level, realize,
                                 validate_simplicial)
from reference import cm_zero_module_bad, elements, truncate

SMALL = Supply(budget=24, exhaustive_bound=512)


def test_faces_and_degeneracies_are_read_only_copies(built):
    # moore(E) and the other values memoised per object read E's maps, so
    # neither E nor the caller may change them after construction
    E = built("ideal-pair")
    faces, degs = dict(E.faces), dict(E.degeneracies)
    F = TruncatedSimplicialAlgebra(E.levels, faces, degs, name="copy")
    with pytest.raises(TypeError):
        F.faces[(1, 0)] = F.faces[(1, 1)]
    with pytest.raises(TypeError):
        F.degeneracies[(1, 0)] = F.degeneracies[(1, 0)]
    faces[(1, 0)] = Morphism.zero(E.level(1), E.level(0))
    del degs[(2, 1)]
    mc, expected = moore(F), moore(E)
    assert [A.dim for A in mc.algebras] == [A.dim for A in expected.algebras]
    for a, b in zip(mc.boundaries, expected.boundaries):
        assert np.array_equal(a.matrix, b.matrix)
    assert F.faces == E.faces and F.degeneracies == E.degeneracies


def test_constant_object_is_valid():
    E = constant_simplicial(corpus.dual_numbers(2), 4)
    assert validate_simplicial(E) == []
    mc = moore(E)
    assert [A.dim for A in mc.algebras] == [2, 0, 0, 0, 0]


def test_validate_simplicial_lists_the_violations_of_each_level_first():
    # e0 e1 = e0 over Z/2 is neither commutative nor associative; the constant
    # object on it has identities for maps, so only its levels fail
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    A = Algebra(PrimeField(2), c, ("e0", "e1"))
    assert validate_simplicial(constant_simplicial(A, 2)) == [
        LevelViolation(n, kind, indices) for n in range(3)
        for kind, indices in (("commutativity", (0, 1)), ("associativity", (0, 1, 1)))]
    E = constant_simplicial(A, 1)
    faces = {**E.faces, (1, 0): Morphism.zero(A, A)}
    got = validate_simplicial(TruncatedSimplicialAlgebra(E.levels, faces, E.degeneracies))
    assert got[:4] == validate_simplicial(E) and got[4:] == [SimplicialViolation("ds-identity", 1, 0, 0)]


def test_mutation_breaks_validation(built):
    E = built("cubic-chain")
    faces = dict(E.faces)
    d0, d1 = faces[(2, 0)], faces[(2, 1)]
    assert not np.array_equal(d0.matrix, d1.matrix)
    faces[(2, 0)], faces[(2, 1)] = d1, d0
    mutated = TruncatedSimplicialAlgebra(E.levels, faces, E.degeneracies)
    assert validate_simplicial(mutated) != []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_builders_produce_valid_objects(p):
    chains = [*corpus.crossed_corpus(p).items(), *corpus.two_crossed_corpus(p).items()]
    for name, obj in chains:
        E = realize(obj)
        assert validate_simplicial(E) == [], name
        for n, A in enumerate(E.levels):
            assert validate_algebra(A) == [], (name, n)


def test_truncate_examples(built):
    E = built("ideal-pair")
    same = truncate(E, E.k)
    assert same.levels == E.levels
    bottom = truncate(E, 0)
    assert bottom.k == 0 and bottom.faces == {}
    with pytest.raises(ValueError):
        truncate(E, 9)


def test_truncate_commutes_with_builder():
    cm = corpus.cm_ideal_dual(2)
    full = truncate(realize(cm, 4), 2)
    short = realize(cm, 2)
    for n in range(3):
        assert np.array_equal(full.level(n).structure, short.level(n).structure)
    for key in short.faces:
        assert np.array_equal(full.faces[key].matrix, short.faces[key].matrix)
    for key in short.degeneracies:
        assert np.array_equal(full.degeneracies[key].matrix,
                              short.degeneracies[key].matrix)


def test_degenerate_ideal_constant_is_everything():
    E = constant_simplicial(corpus.dual_numbers(2), 3)
    for n in (1, 2, 3):
        assert degenerate_ideal(E, n).dim == E.level(n).dim


def test_degenerate_ideal_zero_base():
    E = corpus.simplicial_corpus(2)["top-degree-3"]
    assert E.level(0).dim == 0
    assert degenerate_ideal(E, 1).dim == 0


def test_degenerate_subalgebra_between_span_and_ideal(built):
    # the subalgebra contains every degeneracy image, is closed under
    # products, and lies inside the degenerate ideal
    from moorekit.coeff import Ideal
    for name in ("sq0-lifting", "cubic-chain", "module-id"):
        E = built(name)
        for n in (2, 3):
            A = E.level(n)
            D = Ideal(A, degenerate_subalgebra(E, n))
            assert all(D.contains(col) for i in range(n)
                       for col in E.deg(n, i).matrix.T)
            assert all(D.contains(A.mul_vec(u, v))
                       for u in D.basis_matrix for v in D.basis_matrix)
            assert degenerate_ideal(E, n).contains(D.basis_matrix)
    E = corpus.simplicial_corpus(2)["top-degree-3"]
    assert degenerate_subalgebra(E, 3).shape == (0, 1)


def reference_degenerate_subalgebra(E, n):
    """span U span*span iterated to its fixed point, with no early exit."""
    A = E.level(n)
    span = rref(np.vstack([E.deg(n, i).matrix.T for i in range(n)]), A.p)[0]
    while True:
        prods = np.einsum("ai,bj,ijk->abk", span, span, A.structure) % A.p
        grown = rref(np.vstack([span, prods.reshape(len(span) ** 2, A.dim)]), A.p)[0]
        if grown.shape == span.shape:
            return span
        span = grown


def levelwise_tensor(E, F):
    """E (x) F levelwise; the basis pair (a, b) has index a * dim F_n + b."""
    p = E.level(0).p
    levels = []
    for A, B in zip(E.levels, F.levels):
        c = np.einsum("ijk,abc->iajbkc", A.structure, B.structure)
        unit = None if A.identity is None or B.identity is None else A.identity * B.dim + B.identity
        levels.append(Algebra(A.field, c.reshape((A.dim * B.dim,) * 3) % p,
                              tuple(f"{a}*{b}" for a in A.basis_names for b in B.basis_names),
                              unit))

    def maps(table, other, shift):
        return {(n, i): Morphism(levels[n - shift], levels[n + shift - 1],
                                 np.kron(m.matrix, other[(n, i)].matrix) % p)
                for (n, i), m in table.items()}

    return TruncatedSimplicialAlgebra(tuple(levels), maps(E.faces, F.faces, 0),
                                      maps(E.degeneracies, F.degeneracies, 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degenerate_subalgebra_matches_the_unshortened_iteration(p, built):
    objects = corpus.simplicial_corpus(p)
    objects["ideal-pair x ideal-pair"] = levelwise_tensor(built("ideal-pair", p),
                                                          built("ideal-pair", p))
    assert validate_simplicial(objects["ideal-pair x ideal-pair"]) == []
    full = 0
    for name, E in objects.items():
        for n in range(1, E.k + 1):
            got = degenerate_subalgebra(E, n)
            assert np.array_equal(got, reference_degenerate_subalgebra(E, n)), (name, n)
            full += len(got) == E.level(n).dim
    assert full  # the early return is taken


def test_degeneracy_span_codimension_matches_moore(built):
    # Proposition-1 dimension count: span of degeneracy images has
    # codimension dim NE_n
    from moorekit.coeff import rref
    for name in ("ideal-pair", "cubic-chain", "module-id"):
        E = built(name)
        for n in range(1, 5):
            rows = np.vstack([E.deg(n, i).matrix.T for i in range(n)])
            span_dim = rref(rows, 2)[0].shape[0]
            assert E.level(n).dim - span_dim == moore_space(E, n).dim


def test_semidirect_dimension_identity(built):
    for name in ("cubic-chain", "module-id"):
        E = built(name)
        for n in range(5):
            total = sum(moore_space(E, n - a.size).dim for a in s_set(n))
            assert total == E.level(n).dim


def test_decompose_trivial_cases(built):
    E = built("cubic-chain")
    # normal elements decompose to themselves
    v = moore_space(E, 2).basis_matrix[0]
    dec = decompose(E, 2)
    assert list(dec) == s_set(2)
    assert np.array_equal(dec[SurjIndex((), 2)] @ v % 2, v)
    assert all(not (M @ v % 2).any() for a, M in dec.items() if a.size)
    # a pure degeneracy image is recovered in the (0) slot
    a = moore_space(E, 0).basis_matrix[0]
    img = E.deg(1, 0).matrix @ a % 2
    dec1 = decompose(E, 1)
    assert not (dec1[SurjIndex((), 1)] @ img % 2).any()
    assert np.array_equal(dec1[SurjIndex((0,), 1)] @ img % 2, a)


@pytest.mark.parametrize("p", [2, 3])
def test_decompose_reassembles_exhaustively(p, built):
    E = built("cubic-chain", p)
    for n in range(1, 5):
        dec = decompose(E, n)
        for x in elements(E.level(n), SMALL):
            parts = {alpha: M @ x.coeffs % p for alpha, M in dec.items()}
            back = sum(s_word_morphism(E, n, alpha.application_order()).matrix @ v
                       for alpha, v in parts.items()) % p
            assert np.array_equal(back, x.coeffs)
            assert all(not (E.face(n, i).matrix @ parts[SurjIndex((), n)] % p).any()
                       for i in range(n))
            for alpha, v in parts.items():
                c = n - alpha.size
                assert all(not (E.face(c, i).matrix @ v % p).any() for i in range(c))


def test_normal_part_of_degenerate_lies_in_cap(built):
    E = built("cubic-chain")
    for n in (2, 3):
        D = degenerate_ideal(E, n)
        normal = decompose(E, n)[SurjIndex((), n)]
        # normal part stays inside D_n
        assert D.contains((normal @ D.basis_matrix.T % 2).T)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_decomposition_matrices_split_every_level(p):
    """sum_alpha s_alpha M_alpha is the identity of E_n, each M_alpha lands
    in NE_{n-#alpha}, and M_() is the projection p of _projection_matrix."""
    for name, E in corpus.simplicial_corpus(p).items():
        for n in range(E.k + 1):
            dec = decompose(E, n)
            assert list(dec) == s_set(n)
            total = sum(s_word_morphism(E, n, alpha.application_order()).matrix @ M
                        for alpha, M in dec.items()) % p
            assert np.array_equal(total, np.eye(E.level(n).dim, dtype=np.int64)), (name, n)
            for alpha, M in dec.items():
                c = n - alpha.size
                assert M.shape == (E.level(c).dim, E.level(n).dim)
                assert moore_space(E, c).contains(M.T % p), (name, n, alpha)
            assert np.array_equal(dec[SurjIndex((), n)], _projection_matrix(E, n)), (name, n)


def test_build_from_crossed_properties():
    cm = corpus.cm_ideal_dual(2)
    E = realize(cm, 4)
    assert E.level(1).dim == 3
    mc = moore(E)
    assert mc.length() <= 1
    assert [A.dim for A in mc.algebras] == [2, 1, 0, 0, 0]

    zero_cm = corpus.cm_zero_module(2)
    E2 = realize(zero_cm, 2)
    sq = moore(E2).algebras[1]
    assert not sq.structure.any()  # the module block stays square-zero


def test_build_from_crossed_rejects_invalid():
    from moorekit.coeff import PreconditionError
    with pytest.raises(PreconditionError):
        realize(cm_zero_module_bad(2), 2)


@pytest.mark.parametrize("k", [-1, 0])
def test_build_from_crossed_refuses_k_below_1(k):
    with pytest.raises(ValueError, match="from k = 1 on"):
        realize(corpus.cm_ideal_dual(2), k)
    assert realize(corpus.cm_ideal_dual(2), 1).k == 1


@pytest.mark.parametrize("k", [0, 1])
def test_build_from_2crossed_refuses_k_below_2(k):
    with pytest.raises(ValueError, match="from k = 2 on"):
        realize(corpus.tcm_cubic_chain(2), k)
    assert realize(corpus.tcm_cubic_chain(2), 2).k == 2


def test_realize_refuses_a_chain_of_another_length():
    cm = corpus.cm_ideal_dual(2)
    for chain in (CrossedChain(cm.levels[:1]), zero_extension(cm, 3)):
        with pytest.raises(ValueError, match="chains of length 1 and 2 are realized"):
            realize(chain)


def test_build_from_2crossed_degenerations():
    # trivial top level agrees with the crossed-module build
    cm = corpus.cm_ideal_dual(2)
    t = zero_extension(cm, 2)
    assert verify_2cm(t).verdict == "pass"
    Ea = realize(t, 3)
    Eb = realize(cm, 3)
    for n in range(4):
        assert np.array_equal(Ea.level(n).structure, Eb.level(n).structure)
    for key, mor in Eb.faces.items():
        assert np.array_equal(Ea.faces[key].matrix, mor.matrix)

    # trivial lifting and boundaries: levelwise direct sums (block product)
    t2 = corpus.tcm_module_identity(2)
    E = realize(t2, 2)
    assert moore(E).length() == 2


def test_build_from_2crossed_moore_data(built):
    t = corpus.tcm_cubic_chain(2)
    E = built("cubic-chain")
    mc = moore(E)
    assert [A.dim for A in mc.algebras] == [1, 2, 1, 0, 0]
    assert np.array_equal(mc.boundaries[1].matrix, t.d(2).matrix)
    assert np.array_equal(mc.boundaries[0].matrix, t.d(1).matrix)


def test_concentrated_objects():
    E4 = concentrated_simplicial(corpus.square_zero(2, 1), 4, 4)
    assert validate_simplicial(E4) == []
    assert moore_space(E4, 4).dim == 1
    E3 = concentrated_simplicial(corpus.square_zero(2, 1), 3, 4)
    assert validate_simplicial(E3) == []
    mc = moore(E3)
    assert [A.dim for A in mc.algebras] == [0, 0, 0, 1, 0]


# ---------------------------------------------------------------------------
# batched level extension against the per-basis reference


def reference_extend_level(E, normal=None):
    """Per-basis reference for extend_level: degeneracy words applied one
    degeneracy at a time, the decomposition matrices read one column per
    basis element and degeneracy, and the product tensor filled one (u, v)
    pair at a time.  With normal = (C, bd, nu) the empty index is the first
    block, NE_m = C: bd is its top face, its other faces vanish, and each
    product starts from its C-component in nu.  Returns the new level's
    structure, faces and degeneracies."""
    m = E.k + 1
    p = E.level(0).p
    C, bd, nu = normal or (None, None, {})
    cdim = C.dim if normal else 0

    def apply_s_chain(start, word, v):
        for lvl, j in enumerate(word, start + 1):
            v = E.deg(lvl, j).matrix @ v % p
        return v

    prev = E.level(m - 1)
    nbases = {c: moore_space(E, c) for c in range(m)}
    alphas = [a for a in s_set(m) if a.size > 0 or normal]
    offs, sizes = {}, {}
    dim = 0
    for a in alphas:
        offs[a] = dim
        sizes[a] = nbases[m - a.size].dim if a.size else cdim
        dim += sizes[a]

    face_mats = {}
    for i in range(m + 1):
        M = np.zeros((prev.dim, dim), dtype=np.int64)
        for a in alphas:
            if not a.size:
                if i == m:
                    M[:, :cdim] = bd % p
                continue
            c = m - a.size
            base = nbases[c].basis_matrix
            word, f = push_face(i, a.application_order())
            word = normal_form(word)
            for t in range(base.shape[0]):
                if f is None:
                    M[:, offs[a] + t] = apply_s_chain(c, word, base[t])
                elif f == c:
                    if c == 0:
                        raise StructureError("face reached level -1")
                    w = E.face(c, c).matrix @ base[t] % p
                    M[:, offs[a] + t] = apply_s_chain(c - 1, word, w)
                elif f > c:
                    raise StructureError("face index escaped its level")
        face_mats[i] = M

    deg_mats = {}
    for j in range(m):
        M = np.zeros((dim, prev.dim), dtype=np.int64)
        for t in range(prev.dim):
            for gamma, D in decompose(E, m - 1).items():
                word = normal_form(list(gamma.application_order()) + [j])
                alpha, val = SurjIndex(tuple(reversed(word)), m), D[:, t]
                c = m - alpha.size
                r = nbases[c].dim
                if r:
                    M[offs[alpha]:offs[alpha] + r, t] = nbases[c].coords(val)
                elif val.any():
                    raise PreconditionError("component escapes its Moore subspace")
        deg_mats[j] = M

    def block(u):
        """(entries of the block holding basis element u, u's row in it)"""
        a = next(a for a in alphas if offs[a] <= u < offs[a] + sizes[a])
        return a.entries, u - offs[a]

    def normal_component(u, v):
        (a, x), (b, y) = block(u), block(v)
        if (a, b) in nu:
            return nu[(a, b)][x, y] % p
        if (b, a) in nu:
            return nu[(b, a)][y, x] % p
        return np.zeros(cdim, dtype=np.int64)

    struct = np.zeros((dim, dim, dim), dtype=np.int64)
    for u in range(dim):
        fu = [face_mats[i][:, u] for i in range(m + 1)]
        for v in range(u, dim):
            target = [prev.mul_vec(fu[i], face_mats[i][:, v]) for i in range(m + 1)]
            w = np.zeros(dim, dtype=np.int64)
            w[:cdim] = normal_component(u, v)
            for j in range(m):
                w = (w + deg_mats[j] @ ((target[j] - face_mats[j] @ w) % p)) % p
            if ((face_mats[m] @ w - target[m]) % p).any():
                raise PreconditionError("forced product inconsistent at the top face")
            struct[u, v] = w
            struct[v, u] = w
    return struct, face_mats, deg_mats


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extend_level_matches_per_basis_reference(p):
    objects = corpus.simplicial_corpus(p)
    assert len(objects) == 9
    for name, E in objects.items():
        for n in range(1, E.k + 1):
            below = truncate(E, n - 1)
            try:
                struct, face_mats, deg_mats = reference_extend_level(below)
            except PreconditionError as exc:
                # cubic-chain|1: u * u = w != 0 under d1 = 0 is no crossed module
                assert (name, n) == ("cubic-chain", 2)
                with pytest.raises(PreconditionError, match=str(exc)):
                    extend_level(below)
                continue
            ext = extend_level(below)
            assert np.array_equal(ext.level(n).structure, struct), (name, n)
            for i in range(n + 1):
                assert np.array_equal(ext.face(n, i).matrix, face_mats[i]), (name, n, i)
            for j in range(n):
                assert np.array_equal(ext.deg(n, j).matrix, deg_mats[j]), (name, n, j)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_levels_match_per_basis_reference(p):
    # the levels 1..m that realize builds from a chain's normal blocks, each
    # against the reference given the same block
    chains = [*corpus.crossed_corpus(p).items(), *corpus.two_crossed_corpus(p).items()]
    assert len(chains) == 10
    for name, t in chains:
        E = realize(t)
        for n in range(1, len(t.boundaries) + 1):
            below = truncate(E, n - 1)
            struct, face_mats, deg_mats = reference_extend_level(below, _normal_block(below, t, n))
            assert np.array_equal(E.level(n).structure, struct), (name, n)
            for i in range(n + 1):
                assert np.array_equal(E.face(n, i).matrix, face_mats[i]), (name, n, i)
            for j in range(n):
                assert np.array_equal(E.deg(n, j).matrix, deg_mats[j]), (name, n, j)


@pytest.mark.parametrize("p, digest", [
    (2, "4c6920427a3e4bf7a0171c059461c2c098938b7e085334efe981370090e3820e"),
    (3, "8a988e733c4c982b489e8e294056909d0bbf5e2ba21227e4097cac6199fba1a7")],
    ids=["p2", "p3"])
def test_corpus_document_digest_is_pinned(p, digest):
    # every level is in it, forced or built from a normal block; built
    # levels carry extend_level's s(alpha).t basis labels
    assert hashlib.sha256(corpus_document(p).encode()).hexdigest() == digest


@pytest.mark.parametrize("p", [2, 3])
def test_extend_level_rejects_inconsistent_top_face(p, built):
    E = truncate(built("module-id", p), 2)
    E2 = E.level(2)
    rng = np.random.default_rng(p)
    for _ in range(5):
        a, b, k = rng.integers(E2.dim, size=3)
        struct = E2.structure.copy()
        struct[a, b, k] = (struct[a, b, k] + 1) % p
        struct[b, a, k] = struct[a, b, k]
        flipped = Algebra(E2.field, struct, E2.basis_names, None, name="flipped")
        faces = dict(E.faces)
        degs = dict(E.degeneracies)
        for i in range(3):
            faces[(2, i)] = Morphism(flipped, E.level(1), E.face(2, i).matrix)
        for j in range(2):
            degs[(2, j)] = Morphism(E.level(1), flipped, E.deg(2, j).matrix)
        bad = TruncatedSimplicialAlgebra(E.levels[:2] + (flipped,), faces, degs)
        with pytest.raises(PreconditionError, match="inconsistent at the top face"):
            extend_level(bad)


@pytest.mark.parametrize("p", [2, 3])
def test_extend_level_names_the_missing_crossed_module(p, built):
    # cubic-chain cut at level 1 is valid simplicial data, but u * u = w != 0
    # under d1 = 0 breaks CM2, so no level 2 with NE_2 = 0 extends it
    from moorekit.functors import hypercrossed
    below = truncate(built("cubic-chain", p), 1)
    assert validate_simplicial(below) == []
    with pytest.raises(PreconditionError, match=r"fails \['CM2'\]"):
        hypercrossed(below, 1)
    with pytest.raises(PreconditionError) as info:
        extend_level(below)
    message = str(info.value)
    assert "inconsistent at the top face" in message
    assert message.startswith("no level 2 with NE_2 = 0 extends these levels")
    assert "NE_1 -> E_0 is no crossed module" in message
    assert "invalid input data" not in message


@pytest.mark.parametrize("p", [2, 3])
def test_extend_level_with_a_normal_block_keeps_the_top_face_guard(p):
    # zero-module-bad fails CM2 only; given directly, past verify_cm, its
    # level 1 exists and the forced level 2 is refused at the top face
    cm = cm_zero_module_bad(p)
    assert [e.name for e in verify_cm(cm).failing()] == ["CM2"]
    (R, C), action = cm.levels, cm.map("01")
    E0 = TruncatedSimplicialAlgebra((R,))
    E1 = extend_level(E0, _normal_block(E0, cm, 1))
    assert validate_simplicial(E1) == []
    with pytest.raises(PreconditionError, match="inconsistent at the top face") as info:
        extend_level(E1)
    assert "NE_1 -> E_0 is no crossed module" in str(info.value)
    # the identity boundary breaks CM1, which the given level 1 itself refuses
    bd = Morphism(C, R, np.eye(1, dtype=np.int64))
    with pytest.raises(PreconditionError, match="inconsistent at the top face") as info:
        extend_level(E0, _normal_block(E0, CrossedChain(cm.levels, (bd,), {"01": action}), 1))
    assert str(info.value).startswith("no level 1 with the given NE_1 extends")
    assert "= 0" not in str(info.value)


@pytest.mark.parametrize("p", [2, 3])
def test_build_from_2crossed_past_its_verifier_refuses_a_bad_lifting(p, monkeypatch):
    # cubic-chain with a zero lifting fails 2CM1; its level 2 is refused
    t = corpus.tcm_cubic_chain(p)
    _, C1, C2 = t.levels
    zero = BilinearMap(C1, C1, C2, np.zeros_like(t.map("()").tensor))
    bad = CrossedChain(t.levels, t.boundaries, {**t.maps, "()": zero})
    assert [e.name for e in verify_2cm(bad).failing()] == ["2CM1"]
    monkeypatch.setattr(simplicial_mod, "_verified", lambda report, what: None)
    with pytest.raises(PreconditionError, match="inconsistent at the top face") as info:
        realize(bad, 2)
    message = str(info.value)
    assert message.startswith("no level 2 with the given NE_2 extends")
    assert "= 0" not in message and "no crossed module" not in message
