"""Built-in desk-scale examples: base algebras, crossed and 2-crossed
modules, simplicial objects, and Lie data.

Everything here is small enough that ``table1`` sweeps every element of
each Moore component under the default supply bound; every other check
is decided exactly on basis tuples.  The test suite resolves simplicial
names through :func:`simplicial_corpus`, and the CLI resolves every
built-in name in the document that
:func:`moorekit.document.corpus_document` serializes from these builders.
Each ``*_corpus`` function maps entry names to builders and, given
`names`, builds only the entries so named: a named command builds the
entries it can resolve its name against, and ``corpus`` builds them all.
"""

from __future__ import annotations

import numpy as np

from .coeff import Algebra, BilinearMap, LieAlgebra, Morphism, PrimeField
from .crossed import (CrossedChain, ideal_pair, multiplication_cm, zero_extension,
                      zero_module_cm)
from .lie import degenerate_lie_3cm, lie_abelian, lie_heisenberg
from .simplicial import (TruncatedSimplicialAlgebra, concentrated_simplicial,
                         constant_simplicial, realize)


# ---------------------------------------------------------------------------
# base algebras


def zmod(p: int) -> Algebra:
    """Z/p as a one-dimensional unital algebra."""
    return Algebra(PrimeField(p), np.ones((1, 1, 1), dtype=np.int64), ("e",), 0,
                   name=f"Z/{p}")


def dual_numbers(p: int) -> Algebra:
    """k[x]/(x^2) over Z/p, basis (1, x)."""
    return truncated_poly(p, 2)


def truncated_poly(p: int, n: int) -> Algebra:
    """k[x]/(x^n) over Z/p, basis (1, x, ..., x^{n-1})."""
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i, j, i + j] = 1
    names = tuple("1" if i == 0 else f"x{i}" if i > 1 else "x" for i in range(n))
    return Algebra(PrimeField(p), c, names, 0, name=f"Z/{p}[x]/(x^{n})")


def group_line(p: int) -> Algebra:
    """k[t]/(t^2 - 1) over Z/p, basis (1, t)."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = 1
    c[0, 1, 1] = c[1, 0, 1] = 1
    c[1, 1, 0] = 1
    return Algebra(PrimeField(p), c, ("1", "t"), 0, name=f"Z/{p}[t]/(t^2-1)")


def square_zero(p: int, dim: int, name: str = "") -> Algebra:
    return Algebra(PrimeField(p), np.zeros((dim, dim, dim), dtype=np.int64),
                   tuple(f"m{i}" for i in range(dim)), None,
                   name=name or f"sq0({dim})@Z/{p}")


def unital_action(R: Algebra, M: Algebra) -> BilinearMap:
    """Action of a unital one-dimensional R = Z/p on M: the identity scaled."""
    if R.dim != 1 or R.identity != 0:
        raise ValueError("expected the one-dimensional unital algebra")
    t = np.zeros((1, M.dim, M.dim), dtype=np.int64)
    t[0] = np.eye(M.dim, dtype=np.int64)
    return BilinearMap(R, M, M, t)


# ---------------------------------------------------------------------------
# crossed modules


def cm_ideal_dual(p: int = 2) -> CrossedChain:
    """Inclusion of the ideal (x) in k[x]/(x^2)."""
    R = dual_numbers(p)
    return ideal_pair(R, [R.basis_element(1)], name=f"ideal-pair@Z/{p}")


def cm_ideal_cubic(p: int = 2) -> CrossedChain:
    """Inclusion of the two-dimensional ideal (x) in k[x]/(x^3)."""
    R = truncated_poly(p, 3)
    return ideal_pair(R, [R.basis_element(1)], name=f"ideal-pair-cubic@Z/{p}")


def cm_zero_module(p: int = 2) -> CrossedChain:
    """Square-zero module with the zero boundary over Z/p."""
    R = zmod(p)
    M = square_zero(p, 2)
    return zero_module_cm(M, R, unital_action(R, M), name=f"zero-module@Z/{p}")


# ---------------------------------------------------------------------------
# 2-crossed modules


def tcm_square_zero_lifting(p: int = 2) -> CrossedChain:
    """Zero boundaries, square-zero C2 and C1, one nonzero lifting value."""
    C0 = zmod(p)
    C1 = square_zero(p, 1, name="C1")
    C2 = square_zero(p, 1, name="C2")
    lift = np.zeros((1, 1, 1), dtype=np.int64)
    lift[0, 0, 0] = 1
    return CrossedChain((C0, C1, C2), (Morphism.zero(C1, C0), Morphism.zero(C2, C1)),
                        {"01": unital_action(C0, C1), "02": unital_action(C0, C2),
                         "()": BilinearMap(C1, C1, C2, lift)}, f"sq0-lifting@Z/{p}")


def tcm_cubic_chain(p: int = 2) -> CrossedChain:
    """C1 the positive part of k[u]/(u^3), C2 one-dimensional, d2 hitting
    u^2, lifting {u (x) u} = v; nonzero d2 and nonzero lifting."""
    C0 = zmod(p)
    c1 = np.zeros((2, 2, 2), dtype=np.int64)
    c1[0, 0, 1] = 1  # u * u = w, everything else zero
    C1 = Algebra(PrimeField(p), c1, ("u", "w"), None, name="u,k[u]+")
    C2 = square_zero(p, 1, name="C2")
    d2 = Morphism(C2, C1, np.array([[0], [1]], dtype=np.int64))  # v -> w
    lift = np.zeros((2, 2, 1), dtype=np.int64)
    lift[0, 0, 0] = 1  # {u (x) u} = v
    return CrossedChain((C0, C1, C2), (Morphism.zero(C1, C0), d2),
                        {"01": unital_action(C0, C1), "02": unital_action(C0, C2),
                         "()": BilinearMap(C1, C1, C2, lift)}, f"cubic-chain@Z/{p}")


def tcm_module_identity(p: int = 2) -> CrossedChain:
    """M --id--> M --0--> R with zero lifting."""
    C0 = zmod(p)
    M = square_zero(p, 2)
    Mtop = square_zero(p, 2, name="Mtop")
    d2 = Morphism(Mtop, M, np.eye(2, dtype=np.int64))
    return CrossedChain((C0, M, Mtop), (Morphism.zero(M, C0), d2),
                        {"01": unital_action(C0, M), "02": unital_action(C0, Mtop),
                         "()": BilinearMap.zero(M, M, Mtop)}, f"module-id@Z/{p}")


# ---------------------------------------------------------------------------
# simplicial objects


def _built(names, builders: dict) -> dict:
    """Call the builders whose name is in `names` (all when it is None)."""
    return {name: build() for name, build in builders.items()
            if names is None or name in names}


def simplicial_corpus(p: int = 2, names=None) -> dict[str, TruncatedSimplicialAlgebra]:
    """The k = 4 test objects used across the suite, keyed by name."""
    return _built(names, {
        "ideal-pair": lambda: realize(cm_ideal_dual(p)),
        "ideal-pair-cubic": lambda: realize(cm_ideal_cubic(p)),
        "zero-module": lambda: realize(cm_zero_module(p)),
        "sq0-lifting": lambda: realize(tcm_square_zero_lifting(p)),
        "cubic-chain": lambda: realize(tcm_cubic_chain(p)),
        "module-id": lambda: realize(tcm_module_identity(p)),
        "constant": lambda: constant_simplicial(dual_numbers(p), 4),
        "top-degree-4": lambda: concentrated_simplicial(square_zero(p, 1), 4, 4),
        "top-degree-3": lambda: concentrated_simplicial(square_zero(p, 1), 3, 4),
    })


def crossed_corpus(p: int = 2, names=None) -> dict[str, CrossedChain]:
    builders = {
        "ideal-pair": lambda: cm_ideal_dual(p),
        "ideal-pair-cubic": lambda: cm_ideal_cubic(p),
        "zero-module": lambda: cm_zero_module(p),
        "mult-zmod": lambda: multiplication_cm(zmod(p)),
    }
    if p != 2:
        builders["mult-group-line"] = lambda: multiplication_cm(group_line(p))
    else:  # (t + 1)^2 = 0: dual numbers
        builders["mult-dual"] = lambda: multiplication_cm(group_line(2))
    return _built(names, builders)


def two_crossed_corpus(p: int = 2, names=None) -> dict[str, CrossedChain]:
    return _built(names, {
        "sq0-lifting": lambda: tcm_square_zero_lifting(p),
        "cubic-chain": lambda: tcm_cubic_chain(p),
        "module-id": lambda: tcm_module_identity(p),
        "remark1-ideal-pair": lambda: zero_extension(cm_ideal_dual(p), 2),
        "remark1-zero-module": lambda: zero_extension(cm_zero_module(p), 2),
    })


# ---------------------------------------------------------------------------
# Lie corpus


def lie_corpus(p: int = 3, names=None) -> dict[str, LieAlgebra]:
    return _built(names, {
        "abelian": lambda: lie_abelian(p, 2),
        "heisenberg": lambda: lie_heisenberg(p),
    })


def lie_three_corpus(p: int = 3, names=None) -> dict[str, CrossedChain]:
    return _built(names, {
        "abelian-chain": lambda: degenerate_lie_3cm(lie_abelian(p, 2)),
        "heisenberg-chain": lambda: degenerate_lie_3cm(lie_heisenberg(p)),
    })
