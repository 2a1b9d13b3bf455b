"""Input documents for the benchmark, written as JSON straight from numpy
arrays.

Nothing here goes through moorekit's DocumentBuilder, so a fault in the
program's writer cannot corrupt the inputs the program is then measured
and checked on.  The factors of the tensor products are taken from the
built-in corpus (moorekit.corpus.simplicial_corpus); everything built from
them here is plain numpy.

* ``permute_simplicial`` relabels each level's basis by a seeded
  permutation.  Verdicts, dimensions and homology do not depend on the
  basis, so every check holds for any seed.
* ``tensor_simplicial`` is the levelwise tensor product E (x) F: structure
  tensors multiply, faces and degeneracies are Kronecker products.  By
  Eilenberg-Zilber it is again a simplicial algebra, and its Moore
  homology is H(NE) (x) H(NF) (Kunneth over a field).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Simplicial:
    """A truncated simplicial algebra as bare arrays.

    ``structures[n][i, j, k]`` is the e_k coefficient of e_i e_j at level n;
    ``faces[(n, i)]`` and ``degeneracies[(n, i)]`` are target x source
    matrices, as in the document format.
    """

    p: int
    structures: list
    identities: list  # basis index of the unit per level, or None
    faces: dict
    degeneracies: dict

    @property
    def k(self) -> int:
        return len(self.structures) - 1

    @property
    def dims(self) -> tuple:
        return tuple(s.shape[0] for s in self.structures)


def from_moorekit(E) -> Simplicial:
    """Copy a moorekit TruncatedSimplicialAlgebra into bare arrays."""
    return Simplicial(
        p=E.level(0).p,
        structures=[np.array(A.structure, dtype=np.int64) for A in E.levels],
        identities=[A.identity for A in E.levels],
        faces={key: np.array(f.matrix, dtype=np.int64) for key, f in E.faces.items()},
        degeneracies={key: np.array(s.matrix, dtype=np.int64)
                      for key, s in E.degeneracies.items()})


def tensor_simplicial(E: Simplicial, F: Simplicial) -> Simplicial:
    """Levelwise tensor product; the basis pair (a, b) has index a*dim F_n + b."""
    if E.p != F.p or E.k != F.k:
        raise ValueError("tensor factors need the same prime and truncation")
    p = E.p
    structures, identities = [], []
    for A, B, ia, ib in zip(E.structures, F.structures, E.identities, F.identities):
        da, db = A.shape[0], B.shape[0]
        c = np.einsum("ijk,abc->iajbkc", A, B).reshape(da * db, da * db, da * db) % p
        structures.append(c)
        identities.append(None if ia is None or ib is None else ia * db + ib)
    faces = {key: np.kron(E.faces[key], F.faces[key]) % p for key in E.faces}
    degs = {key: np.kron(E.degeneracies[key], F.degeneracies[key]) % p
            for key in E.degeneracies}
    return Simplicial(p, structures, identities, faces, degs)


def permute_simplicial(E: Simplicial, rng: np.random.Generator) -> Simplicial:
    """Relabel every level's basis: new basis vector i is old vector perm[i]."""
    perms = [rng.permutation(s.shape[0]) for s in E.structures]
    inverse = [np.argsort(q) for q in perms]
    structures = [s[np.ix_(q, q, q)] for s, q in zip(E.structures, perms)]
    identities = [None if e is None else int(inv[e])
                  for e, inv in zip(E.identities, inverse)]
    faces = {(n, i): m[np.ix_(perms[n - 1], perms[n])] for (n, i), m in E.faces.items()}
    degs = {(n, i): m[np.ix_(perms[n], perms[n - 1])]
            for (n, i), m in E.degeneracies.items()}
    return Simplicial(E.p, structures, identities, faces, degs)


def _triples(t: np.ndarray) -> list:
    idx = np.argwhere(t)
    return [[int(i), int(j), int(k), int(t[i, j, k])] for i, j, k in idx]


def _matrix(m: np.ndarray) -> list:
    return m.astype(np.int64).tolist()


def document_json(objects: dict, p: int) -> str:
    """One document holding the named simplicial objects over Z/p."""
    algebras, simplicial = {}, {}
    for name, E in objects.items():
        if E.p != p:
            raise ValueError(f"{name} is over Z/{E.p}, the document over Z/{p}")
        levels = []
        for n, (s, e) in enumerate(zip(E.structures, E.identities)):
            lvl = f"{name}.E{n}"
            body = {"p": p, "dim": int(s.shape[0]),
                    "basis": [f"b{i}" for i in range(s.shape[0])],
                    "structure": _triples(s)}
            if e is not None:
                body["identity"] = int(e)
            algebras[lvl] = body
            levels.append(lvl)
        faces = {f"{n},{i}": {"source": levels[n], "target": levels[n - 1],
                              "matrix": _matrix(m)}
                 for (n, i), m in sorted(E.faces.items())}
        degs = {f"{n},{i}": {"source": levels[n - 1], "target": levels[n],
                             "matrix": _matrix(m)}
                for (n, i), m in sorted(E.degeneracies.items())}
        simplicial[name] = {"k": E.k, "levels": levels, "faces": faces,
                            "degeneracies": degs}
    body = {"config": {"characteristics": [p]}, "algebras": algebras,
            "simplicial": simplicial}
    return json.dumps(body, sort_keys=True)
