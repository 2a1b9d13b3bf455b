"""JSON document format: named algebras, morphisms, simplicial objects,
crossed structures and Lie structures in one file.

Structure tensors are stored as sparse [i, j, k, coeff] triples with
omitted entries zero; matrices are dense row-major target x source.
All integers are reduced mod p on load.  Name resolution failures and
shape problems raise DocumentError with a location path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coeff import Algebra, BilinearMap, Morphism, PrimeField, StructureError
from .crossed import (SIGNATURES, CrossedModule, ThreeCrossedModule,
                      TwoCrossedModule)
from .lie import LieAlgebra
from .simplicial import TruncatedSimplicialAlgebra

# algebra section -> (carrier class, key of its structure triples)
CARRIERS = {"algebras": (Algebra, "structure"), "lie_algebras": (LieAlgebra, "bracket")}
# 3-crossed section -> (section of its levels, level prefix)
THREE_CROSSED = {"three_crossed_modules": ("algebras", "C"),
                 "lie_three_crossed": ("lie_algebras", "L")}


class DocumentError(ValueError):
    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


@dataclass
class Document:
    algebras: dict = dc_field(default_factory=dict)
    lie_algebras: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    simplicial: dict = dc_field(default_factory=dict)
    crossed_modules: dict = dc_field(default_factory=dict)
    two_crossed_modules: dict = dc_field(default_factory=dict)
    three_crossed_modules: dict = dc_field(default_factory=dict)
    lie_three_crossed: dict = dc_field(default_factory=dict)

    def lookup(self, name: str, prefer: str | None = None):
        """Resolve a name across all sections; returns (kind, object).

        `prefer` names the section a kind-specific command checks first,
        so one corpus name can carry both a structure and its simplicial
        realization.
        """
        sections = [
            ("algebra", self.algebras), ("lie-algebra", self.lie_algebras),
            ("morphism", self.morphisms), ("simplicial", self.simplicial),
            ("crossed", self.crossed_modules),
            ("two-crossed", self.two_crossed_modules),
            ("three-crossed", self.three_crossed_modules),
            ("lie-three-crossed", self.lie_three_crossed),
        ]
        if prefer is not None:
            sections.sort(key=lambda kv: kv[0] != prefer)
        for kind, table in sections:
            if name in table:
                return kind, table[name]
        raise DocumentError(f"unknown name {name!r}", "lookup")


# ---------------------------------------------------------------------------
# loading


def _object(value, loc) -> dict:
    """value when it is a JSON object, else a DocumentError located at `loc`."""
    if not isinstance(value, dict):
        raise DocumentError(f"expected an object, got {type(value).__name__}", loc)
    return value


def _int(value, loc) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise DocumentError(f"{value!r} is not an integer", loc) from None


def _level_index(key, loc) -> tuple[int, int]:
    """A face or degeneracy key "n,i" as (n, i)."""
    try:
        n, i = (int(v) for v in key.split(","))
    except ValueError:
        raise DocumentError(f"key {key!r} is not \"n,i\"", loc) from None
    return n, i


def _dense_tensor(triples, shape, p, loc) -> np.ndarray:
    if not isinstance(triples, list):
        raise DocumentError("structure must be a list of [i, j, k, coeff]", loc)
    t = np.zeros(shape, dtype=np.int64)
    for entry in triples:
        try:
            i, j, k, c = (int(v) for v in entry)
        except (TypeError, ValueError):
            raise DocumentError(f"structure entry {entry} is not [i, j, k, coeff]", loc) from None
        if not (0 <= i < shape[0] and 0 <= j < shape[1] and 0 <= k < shape[2]):
            raise DocumentError(f"index ({i},{j},{k}) outside dim {shape}", loc)
        t[i, j, k] = c % p
    return t


def _load_algebra(section, name, body) -> Algebra:
    cls, key = CARRIERS[section]
    loc = f"{section}.{name}"
    try:
        fld = PrimeField(int(body["p"]))
        dim = int(body["dim"])
        basis = tuple(str(b) for b in body.get("basis", [f"e{i}" for i in range(dim)]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad algebra header: {exc}", loc)
    if len(basis) != dim:
        raise DocumentError(f"{len(basis)} basis labels for dim {dim}", loc)
    struct = _dense_tensor(body.get(key, []), (dim, dim, dim), fld.p, loc)
    identity = body.get("identity") if cls is Algebra else None
    try:
        return cls(fld, struct, basis, None if identity is None else int(identity), name=name)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc), loc)


def _field(body, key, loc):
    """body[key], or a DocumentError located at `loc` when it is missing."""
    try:
        return body[key]
    except (KeyError, TypeError):
        raise DocumentError(f"missing {key!r}", loc) from None


def _resolve(table, name, loc):
    if not isinstance(name, str) or name not in table:
        raise DocumentError(f"unknown name {name!r}", loc)
    return table[name]


def _morphism(src, tgt, matrix, loc) -> Morphism:
    """The map src -> tgt by a target x source matrix; [] is the zero map.
    The lists are converted once; Morphism reduces that array mod p."""
    try:
        mat = np.asarray(matrix, dtype=np.int64)
        if mat.size == 0:
            mat = np.zeros((tgt.dim, src.dim), dtype=np.int64)
        return Morphism(src, tgt, mat)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(str(exc), loc)


def _load_morphism(body, algebras, loc) -> Morphism:
    body = _object(body, loc)
    return _morphism(_resolve(algebras, _field(body, "source", loc), loc),
                     _resolve(algebras, _field(body, "target", loc), loc),
                     body.get("matrix", []), loc)


def _load_three_crossed(section, name, body, doc) -> ThreeCrossedModule:
    """One body of a 3-crossed section: levels <prefix>3..<prefix>0 name
    algebras of the section that THREE_CROSSED pairs with `section`, and
    SIGNATURES gives the levels of each action and lifting."""
    algebra_section, prefix = THREE_CROSSED[section]
    loc = f"{section}.{name}"
    levels = tuple(_resolve(getattr(doc, algebra_section),
                            _field(body, f"{prefix}{n}", f"{loc}.{prefix}{n}"), loc)
                   for n in range(4))
    d = {n: _morphism(levels[n], levels[n - 1], _field(body, f"d{n}", f"{loc}.d{n}"), loc)
         for n in (3, 2, 1)}
    maps = {}
    for group, table in SIGNATURES.items():
        given = _field(body, group, f"{loc}.{group}")
        maps[group] = {key: _load_bilinear(_field(given, key, f"{loc}.{group}[{key}]"),
                                           *(levels[i] for i in sig), f"{loc}.{group}[{key}]")
                       for key, sig in table.items()}
    return ThreeCrossedModule(levels[3], levels[2], levels[1], levels[0],
                              d[3], d[2], d[1], name=name, **maps)


def _load_bilinear(body, left, right, target, loc) -> BilinearMap:
    triples = _field(body, "triples", f"{loc}.triples") if isinstance(body, dict) else body
    tensor = _dense_tensor(triples, (left.dim, right.dim, target.dim), target.p, loc)
    return BilinearMap(left, right, target, tensor)


def load_document(text: str) -> Document:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}", "document")
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object", "document")
    # documents of earlier versions and of bench/inputs.py carry a config
    # object; its keys are checked, though nothing reads them
    cfg = _object(raw.get("config", {}), "config")
    for key in ("seed", "budget", "exhaustive_bound"):
        _int(cfg.get(key, 0), f"config.{key}")
    chars = cfg.get("characteristics", [])
    if not isinstance(chars, list):
        raise DocumentError("expected a list of integers", "config.characteristics")
    for c in chars:
        _int(c, "config.characteristics")
    doc = Document()

    def section(key: str) -> dict:
        return _object(raw.get(key, {}), key)

    for key in CARRIERS:
        for name, body in section(key).items():
            getattr(doc, key)[name] = _load_algebra(key, name, body)
    for name, body in section("morphisms").items():
        doc.morphisms[name] = _load_morphism(body, doc.algebras, f"morphisms.{name}")

    for name, body in section("simplicial").items():
        loc = f"simplicial.{name}"
        try:
            k = int(body["k"])
            level_names = body["levels"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad simplicial header: {exc}", loc)
        if k < 0:
            raise DocumentError(f"truncation level {k} is negative", f"{loc}.k")
        if not isinstance(level_names, list) or len(level_names) != k + 1:
            raise DocumentError(f"levels must be a list of {k + 1} names for k={k}", loc)
        levels = tuple(_resolve(doc.algebras, nm, loc) for nm in level_names)
        maps = {}
        for group in ("faces", "degeneracies"):
            maps[group] = {_level_index(key, f"{loc}.{group}[{key}]"):
                           _load_morphism(mor, doc.algebras, f"{loc}.{group}[{key}]")
                           for key, mor in _object(body.get(group, {}), f"{loc}.{group}").items()}
        try:
            doc.simplicial[name] = TruncatedSimplicialAlgebra(
                levels, maps["faces"], maps["degeneracies"], name=name)
        except StructureError as exc:
            raise DocumentError(str(exc), loc)

    for name, body in section("crossed_modules").items():
        loc = f"crossed_modules.{name}"
        C, R = (_resolve(doc.algebras, _field(body, k, f"{loc}.{k}"), loc) for k in ("C", "R"))
        bd = _morphism(C, R, _field(body, "boundary", f"{loc}.boundary"), loc)
        act = _load_bilinear(_field(body, "action", f"{loc}.action"), R, C, C, f"{loc}.action")
        doc.crossed_modules[name] = CrossedModule(C, R, bd, act, name=name)

    for name, body in section("two_crossed_modules").items():
        loc = f"two_crossed_modules.{name}"
        C2, C1, C0 = (_resolve(doc.algebras, _field(body, k, f"{loc}.{k}"), loc)
                      for k in ("C2", "C1", "C0"))
        d2 = _morphism(C2, C1, _field(body, "d2", f"{loc}.d2"), loc)
        d1 = _morphism(C1, C0, _field(body, "d1", f"{loc}.d1"), loc)
        a1, a2, lt = (_load_bilinear(_field(body, k, f"{loc}.{k}"), *sig, f"{loc}.{k}")
                      for k, sig in (("action_on_c1", (C0, C1, C1)),
                                     ("action_on_c2", (C0, C2, C2)),
                                     ("lifting", (C1, C1, C2))))
        doc.two_crossed_modules[name] = TwoCrossedModule(C2, C1, C0, d2, d1, a1, a2, lt,
                                                         name=name)

    for key in THREE_CROSSED:
        for name, body in section(key).items():
            getattr(doc, key)[name] = _load_three_crossed(key, name, body, doc)
    return doc


# ---------------------------------------------------------------------------
# dumping


def _tensor_triples(t: np.ndarray) -> list:
    return [[*ijk, c] for ijk, c in zip(np.argwhere(t).tolist(), t[t != 0].tolist())]


def _matrix(m: Morphism) -> list:
    return m.matrix.tolist()


class DocumentBuilder:
    """Accumulates structures and emits the JSON document body."""

    def __init__(self):
        self.body = {"algebras": {}, "lie_algebras": {}, "morphisms": {},
                     "simplicial": {}, "crossed_modules": {},
                     "two_crossed_modules": {}, "three_crossed_modules": {},
                     "lie_three_crossed": {}}
        self._alg_names: dict[int, str] = {}
        self._keep: list = []  # pin registered objects so ids stay unique

    def algebra(self, A: Algebra, name: str, section: str = "algebras") -> str:
        if id(A) in self._alg_names:
            return self._alg_names[id(A)]
        body = {"p": A.p, "dim": A.dim, "basis": list(A.basis_names),
                CARRIERS[section][1]: _tensor_triples(A.structure)}
        if A.identity is not None:
            body["identity"] = A.identity
        self.body[section][name] = body
        self._alg_names[id(A)] = name
        self._keep.append(A)
        return name

    def simplicial(self, E: TruncatedSimplicialAlgebra, name: str) -> None:
        level_names = [self.algebra(A, f"{name}.E{n}") for n, A in enumerate(E.levels)]
        faces = {}
        for (n, i), mor in sorted(E.faces.items()):
            faces[f"{n},{i}"] = {"source": level_names[n], "target": level_names[n - 1],
                                 "matrix": _matrix(mor)}
        degs = {}
        for (n, i), mor in sorted(E.degeneracies.items()):
            degs[f"{n},{i}"] = {"source": level_names[n - 1], "target": level_names[n],
                                "matrix": _matrix(mor)}
        self.body["simplicial"][name] = {"k": E.k, "levels": level_names,
                                         "faces": faces, "degeneracies": degs}

    def crossed(self, m: CrossedModule, name: str) -> None:
        self.body["crossed_modules"][name] = {
            "C": self.algebra(m.C, f"{name}.C"),
            "R": self.algebra(m.R, f"{name}.R"),
            "boundary": _matrix(m.boundary),
            "action": _tensor_triples(m.action.tensor)}

    def two_crossed(self, t: TwoCrossedModule, name: str) -> None:
        self.body["two_crossed_modules"][name] = {
            "C2": self.algebra(t.C2, f"{name}.C2"),
            "C1": self.algebra(t.C1, f"{name}.C1"),
            "C0": self.algebra(t.C0, f"{name}.C0"),
            "d2": _matrix(t.d2), "d1": _matrix(t.d1),
            "action_on_c1": _tensor_triples(t.act_on_c1.tensor),
            "action_on_c2": _tensor_triples(t.act_on_c2.tensor),
            "lifting": _tensor_triples(t.lifting.tensor)}

    def three_crossed(self, m: ThreeCrossedModule, name: str,
                      section: str = "three_crossed_modules") -> None:
        algebra_section, prefix = THREE_CROSSED[section]
        # top level first: a carrier shared by two levels takes the upper name
        body = {f"{prefix}{n}": self.algebra(m.levels[n], f"{name}.{prefix}{n}",
                                             algebra_section)
                for n in (3, 2, 1, 0)}
        body.update({f"d{n}": _matrix(getattr(m, f"d{n}")) for n in (3, 2, 1)})
        body.update({group: {key: _tensor_triples(getattr(m, group)[key].tensor)
                             for key in table}
                     for group, table in SIGNATURES.items()})
        self.body[section][name] = body

    def dumps(self) -> str:
        return json.dumps({k: v for k, v in self.body.items() if v}, sort_keys=True)


def corpus_document(p: int = 2, names=None) -> str:
    """The built-in corpus serialized as a single-line JSON document.

    With `names`, only the entries whose name is in it, in every section,
    are built and serialized; a named command passes its name and the entry
    that owns a carrier name (``ideal-pair`` for ``ideal-pair.E0``), so its
    name resolves as in the whole corpus."""
    from . import corpus as corpus_mod
    b = DocumentBuilder()
    for name, cm in corpus_mod.crossed_corpus(p, names).items():
        b.crossed(cm, name)
    for name, t in corpus_mod.two_crossed_corpus(p, names).items():
        b.two_crossed(t, name)
    for name, E in corpus_mod.simplicial_corpus(p, names).items():
        b.simplicial(E, name)
    for name, L in corpus_mod.lie_corpus(p, names).items():
        b.algebra(L, name, "lie_algebras")
    for name, m in corpus_mod.lie_three_corpus(p, names).items():
        b.three_crossed(m, name, "lie_three_crossed")
    return b.dumps()
