"""JSON document format: named algebras, simplicial objects, crossed
structures and Lie structures in one file; a morphism is read only where
an object holds one, as a face, degeneracy or boundary.

Structure tensors are stored as sparse [i, j, k, coeff] triples with
omitted entries zero, and an algebra is loaded as its triples
(coeff.Algebra.from_triples), with no dense d^3 tensor; one vectorised
checker, coeff.checked_triples, reads the triples of algebras and of
bilinear maps.  Matrices are dense row-major target x source; a face
or degeneracy is keyed "n,i" in canonical form, "1,0" and not " 1,0" or
"01,0".  Every number passes one reader, _ints, which refuses fractions
and numbers beyond int64; coefficients are reduced mod p.  A document
gives every value once and every key it gives is read: a key repeated in
one object or outside its object's schema (_known), a triple (i, j, k)
repeated in one structure and an identity given to a Lie algebra are
refused, as are JSON booleans and a dim beyond MAX_CELLS.  Name resolution
failures, shape problems and refused values raise DocumentError with a
location path.

The four crossed sections (crossed modules, 2- and 3-crossed modules and
Lie 3-crossed modules) hold one type, crossed.CrossedChain, and one table,
CROSSED, gives the JSON key of each level, boundary and map of a section
and the algebra section its levels name; one loader (_load_crossed) and
one dumper (DocumentBuilder._body) read it.

DocumentBuilder names structures once for its text (dumps) and for the
Document that text loads as (document), so a named command on the
built-in corpus runs on the builders' objects and parses no JSON.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field as dc_field, fields
from typing import NamedTuple

import numpy as np

from . import corpus
from .coeff import (Algebra, BilinearMap, LieAlgebra, Morphism, PrimeField, StructureError,
                    checked_triples, dense_of, triples_of)
from .crossed import ACTIONS, CARRIED, SIGNATURES, CrossedChain
from .simplicial import TruncatedSimplicialAlgebra

# algebra section -> (carrier class, key of its structure triples)
CARRIERS = {"algebras": (Algebra, "structure"), "lie_algebras": (LieAlgebra, "bracket")}

# most cells, dim^3, of a dense structure tensor: 1 GiB of int64 at dim 512
MAX_CELLS = 1 << 27


class CrossedSection(NamedTuple):
    """The JSON layout of a crossed section: the algebra section its levels
    name, the keys of C_0..C_m and of d_1..d_m, and the path of each map of
    CARRIED[m], a key or a (group, key) pair."""
    algebras: str
    levels: tuple
    boundaries: tuple
    maps: dict


def _three_crossed(algebras: str, prefix: str) -> CrossedSection:
    return CrossedSection(algebras, tuple(f"{prefix}{n}" for n in range(4)), ("d1", "d2", "d3"),
                          {key: ("actions" if key in ACTIONS else "liftings", key)
                           for key in CARRIED[3]})


CROSSED = {
    "crossed_modules": CrossedSection("algebras", ("R", "C"), ("boundary",), {"01": ("action",)}),
    "two_crossed_modules": CrossedSection(
        "algebras", ("C0", "C1", "C2"), ("d1", "d2"),
        {"01": ("action_on_c1",), "02": ("action_on_c2",), "()": ("lifting",)}),
    "three_crossed_modules": _three_crossed("algebras", "C"),
    "lie_three_crossed": _three_crossed("lie_algebras", "L"),
}


class DocumentError(ValueError):
    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


@dataclass
class Document:
    algebras: dict = dc_field(default_factory=dict)
    lie_algebras: dict = dc_field(default_factory=dict)
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
            ("simplicial", self.simplicial),
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


def _known(body, keys, loc) -> dict:
    """body when it is a JSON object (_object) whose every key is one of
    `keys`, else a DocumentError at `loc` naming the first other key: a key
    no loader reads, such as a misspelt "matrx", would load as zero data."""
    extra = [key for key in _object(body, loc) if key not in keys]
    if extra:
        raise DocumentError(f"unknown key {extra[0]!r}", loc)
    return body


class _Repeated(dict):
    """A JSON object that gives its key `key` more than once, as parsed by
    _object_pairs: the last value of each key."""
    key: str


def _object_pairs(pairs: list, marked: list) -> dict:
    """The object_pairs_hook of load_document: a JSON object as a dict, or
    as a _Repeated, also appended to `marked`, when it gives a key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        obj = _Repeated(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
        marked.append(obj)
    return obj


def _refuse_booleans_and_repeats(raw) -> None:
    """A DocumentError at the first JSON boolean or object that repeats a key
    (_Repeated) of a parsed document, at its path, in document order;
    load_document walks only a text that holds `true` or `false` or where
    _object_pairs met a repeated key."""
    stack = [(raw, "")]
    while stack:
        value, loc = stack.pop()
        if isinstance(value, bool):
            raise DocumentError(f"{json.dumps(value)} refused: a document holds no booleans", loc)
        if isinstance(value, _Repeated):
            raise DocumentError(f"key {value.key!r} given twice", loc or "document")
        if isinstance(value, dict):
            stack.extend((v, f"{loc}.{k}" if loc else k) for k, v in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((v, f"{loc}[{i}]") for i, v in reversed(list(enumerate(value))))


def _ints(value, loc) -> np.ndarray:
    """value, numbers in nested lists, as int64; fractions and numbers beyond int64 are refused."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "bi" or arr.dtype.kind == "f" and (
                not arr.size or ((arr == np.trunc(arr)) & (abs(arr) < 2.0 ** 63)).all()):
            return arr.astype(np.int64, copy=False)
    except ValueError:  # a ragged list
        pass
    shown = "an entry" if isinstance(value, list) else repr(value)
    raise DocumentError(f"{shown} is not a 64-bit integer", loc)


def _int(value, loc) -> int:
    """One number, read by _ints."""
    if isinstance(value, list):
        raise DocumentError(f"{value!r} is not a 64-bit integer", loc)
    return int(_ints(value, loc))


def _level_index(key, group, k, loc) -> tuple[int, int]:
    """A face or degeneracy key "n,i" as (n, i): canonical, as
    f"{n},{i}" writes it, with 1 <= n <= k, and 0 <= i <= n for a face,
    0 <= i <= n - 1 for a degeneracy."""
    try:
        n, i = (int(v) for v in key.split(","))
        if key != f"{n},{i}":
            raise ValueError(key)
    except ValueError:
        raise DocumentError(f"key {key!r} is not \"n,i\"", loc) from None
    face = group == "faces"
    if not (1 <= n <= k and 0 <= i <= (n if face else n - 1)):
        bound = "n" if face else "n - 1"
        raise DocumentError(f"key {key!r} outside 1 <= n <= {k}, 0 <= i <= {bound}", loc)
    return n, i


def _triple_rows(triples, loc) -> np.ndarray:
    """A JSON list of [i, j, k, coeff] rows as an int64 array, read by _ints;
    coeff.checked_triples checks the rows, and no dense cell is made."""
    if not isinstance(triples, list):
        raise DocumentError("structure must be a list of [i, j, k, coeff]", loc)
    return _ints(triples, loc)


def _load_algebra(section, name, body) -> Algebra:
    cls, key = CARRIERS[section]
    loc = f"{section}.{name}"
    body = _known(body, ("p", "dim", "basis", key, "identity"), loc)
    p = _int(_field(body, "p", loc), f"{loc}.p")
    dim = _int(_field(body, "dim", loc), f"{loc}.dim")
    if dim ** 3 > MAX_CELLS:
        raise DocumentError(f"dim {dim} exceeds {MAX_CELLS} structure cells", f"{loc}.dim")
    try:
        fld = PrimeField(p)
        labels = body["basis"] if "basis" in body else [f"e{i}" for i in range(dim)]
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad algebra header: {exc}", loc)
    if not isinstance(labels, list) or any(isinstance(b, (list, dict)) for b in labels):
        raise DocumentError("basis must be a list of labels", f"{loc}.basis")
    basis = tuple(str(b) for b in labels)
    if len(basis) != dim:
        raise DocumentError(f"{len(basis)} basis labels for dim {dim}", loc)
    rows = _triple_rows(body.get(key, []), loc)
    identity = body.get("identity")
    if identity is not None and cls is not Algebra:
        raise DocumentError("a Lie algebra has no identity", f"{loc}.identity")
    identity = None if identity is None else _int(identity, f"{loc}.identity")
    try:
        return cls.from_triples(fld, rows, basis, identity, name=name)
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
    """The map src -> tgt by a target x source matrix; [] is the zero map,
    and any other matrix has the map's shape.  The lists are converted once;
    Morphism reduces that array mod p."""
    mat = _ints(matrix, loc)
    if mat.shape == (0,):
        mat = np.zeros((tgt.dim, src.dim), dtype=np.int64)
    try:
        return Morphism(src, tgt, mat)
    except ValueError as exc:
        raise DocumentError(str(exc), loc)


def _load_morphism(body, algebras, loc) -> Morphism:
    body = _known(body, ("source", "target", "matrix"), loc)
    return _morphism(_resolve(algebras, _field(body, "source", loc), loc),
                     _resolve(algebras, _field(body, "target", loc), loc),
                     body.get("matrix", []), loc)


def _load_crossed(section, name, body, doc) -> CrossedChain:
    """One body of a crossed section, laid out as CROSSED[section]: the
    levels and then the boundaries top first, then the maps in CARRIED
    order, each missing key located at its own path."""
    spec, loc, groups = CROSSED[section], f"{section}.{name}", {}
    for path in spec.maps.values():
        groups.setdefault(path[0], []).extend(path[1:])
    body = _known(body, (*spec.levels, *spec.boundaries, *groups), loc)
    for group, keys in groups.items():
        if keys and group in body:
            _known(body[group], keys, f"{loc}.{group}")
    levels = [_resolve(getattr(doc, spec.algebras), _field(body, key, f"{loc}.{key}"), loc)
              for key in reversed(spec.levels)][::-1]
    boundaries = [_morphism(levels[n], levels[n - 1], _field(body, key, f"{loc}.{key}"), loc)
                  for n, key in reversed(list(enumerate(spec.boundaries, 1)))][::-1]
    maps = {}
    for key, path in spec.maps.items():
        value, at = body, loc
        for i, step in enumerate(path):
            at += f"[{step}]" if i else f".{step}"
            value = _field(value, step, at)
        maps[key] = _load_bilinear(value, *(levels[i] for i in SIGNATURES[key]), at)
    return CrossedChain(levels, boundaries, maps, name)


def _load_bilinear(body, left, right, target, loc) -> BilinearMap:
    triples = (_field(_known(body, ("triples",), loc), "triples", f"{loc}.triples")
               if isinstance(body, dict) else body)
    shape = (left.dim, right.dim, target.dim)
    try:
        rows = checked_triples(_triple_rows(triples, loc), shape, target.p)
    except StructureError as exc:
        raise DocumentError(str(exc), loc) from None
    return BilinearMap(left, right, target, dense_of(rows, shape))


def load_document(text: str) -> Document:
    marked: list = []
    try:
        raw = json.loads(text, object_pairs_hook=functools.partial(_object_pairs, marked=marked))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}", "document")
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object", "document")
    if marked or "true" in text or "false" in text:
        _refuse_booleans_and_repeats(raw)
    _known(raw, ("config", "simplicial", *CARRIERS, *CROSSED), "document")
    # documents of earlier versions and of bench/inputs.py carry a config
    # object; its keys are checked, though nothing reads them
    cfg = _known(raw.get("config", {}), ("seed", "budget", "exhaustive_bound", "characteristics"),
                 "config")
    for key in ("seed", "budget", "exhaustive_bound"):
        _int(cfg.get(key, 0), f"config.{key}")
    chars = cfg.get("characteristics", [])
    if not isinstance(chars, list) or _ints(chars, "config.characteristics").ndim > 1:
        raise DocumentError("expected a list of integers", "config.characteristics")
    doc = Document()

    def section(key: str) -> dict:
        return _object(raw.get(key, {}), key)

    for key in CARRIERS:
        for name, body in section(key).items():
            getattr(doc, key)[name] = _load_algebra(key, name, body)

    for name, body in section("simplicial").items():
        loc = f"simplicial.{name}"
        body = _known(body, ("k", "levels", "faces", "degeneracies"), loc)
        k = _int(_field(body, "k", loc), f"{loc}.k")
        level_names = _field(body, "levels", loc)
        if k < 0:
            raise DocumentError(f"truncation level {k} is negative", f"{loc}.k")
        if not isinstance(level_names, list) or len(level_names) != k + 1:
            raise DocumentError(f"levels must be a list of {k + 1} names for k={k}", loc)
        levels = tuple(_resolve(doc.algebras, nm, loc) for nm in level_names)
        maps = {}
        for group in ("faces", "degeneracies"):
            maps[group] = {_level_index(key, group, k, f"{loc}.{group}[{key}]"):
                           _load_morphism(mor, doc.algebras, f"{loc}.{group}[{key}]")
                           for key, mor in _object(body.get(group, {}), f"{loc}.{group}").items()}
        try:
            doc.simplicial[name] = TruncatedSimplicialAlgebra(
                levels, maps["faces"], maps["degeneracies"], name=name)
        except StructureError as exc:
            raise DocumentError(str(exc), loc)

    for key in CROSSED:
        for name, body in section(key).items():
            getattr(doc, key)[name] = _load_crossed(key, name, body, doc)
    return doc


# ---------------------------------------------------------------------------
# dumping


def _matrix(m: Morphism) -> list:
    return m.matrix.tolist()


class DocumentBuilder:
    """Names structures for one document: an entry takes the name it is
    given and each level "<entry>.<key>" (E0..Ek, or the keys of CROSSED),
    and an algebra registered twice keeps its first name.  dumps gives the
    document's JSON text, and document the Document load_document reads
    from that text, holding the registered objects themselves."""

    def __init__(self):
        self.named: dict = {f.name: {} for f in fields(Document)}  # section -> name -> object
        self._alg_names: dict[int, str] = {}
        self._keep: list = []  # pin registered objects so ids stay unique

    def algebra(self, A: Algebra, name: str, section: str = "algebras") -> str:
        """Register A under `name` unless it is registered; its name."""
        if id(A) not in self._alg_names:
            self.named[section][name] = A
            self._alg_names[id(A)] = name
            self._keep.append(A)
        return self._alg_names[id(A)]

    def simplicial(self, E: TruncatedSimplicialAlgebra, name: str) -> None:
        for n, A in enumerate(E.levels):
            self.algebra(A, f"{name}.E{n}")
        self.named["simplicial"][name] = E

    def crossed(self, m: CrossedChain, name: str, section: str = "crossed_modules") -> None:
        """Register m in a crossed section, and its levels under the keys
        CROSSED[section] gives them."""
        spec = CROSSED[section]
        # top level first: a carrier shared by two levels takes the upper name
        for key, A in reversed(list(zip(spec.levels, m.levels))):
            self.algebra(A, f"{name}.{key}", spec.algebras)
        self.named[section][name] = m

    def dumps(self) -> str:
        return json.dumps({section: {name: self._body(section, obj) for name, obj in table.items()}
                           for section, table in self.named.items() if table}, sort_keys=True)

    def _body(self, section: str, obj) -> dict:
        """The JSON body of obj, registered in `section`."""
        if section in CARRIERS:
            body = {"p": obj.p, "dim": obj.dim, "basis": list(obj.basis_names),
                    CARRIERS[section][1]: obj.triples.tolist()}
            if obj.identity is not None:
                body["identity"] = obj.identity
            return body
        level_names = [self._alg_names[id(A)] for A in obj.levels]
        if section == "simplicial":
            faces = {f"{n},{i}": {"source": level_names[n], "target": level_names[n - 1],
                                  "matrix": _matrix(mor)}
                     for (n, i), mor in sorted(obj.faces.items())}
            degs = {f"{n},{i}": {"source": level_names[n - 1], "target": level_names[n],
                                 "matrix": _matrix(mor)}
                    for (n, i), mor in sorted(obj.degeneracies.items())}
            return {"k": obj.k, "levels": level_names, "faces": faces, "degeneracies": degs}
        spec = CROSSED[section]
        body = dict(zip(spec.levels, level_names))
        body.update({key: _matrix(d) for key, d in zip(spec.boundaries, obj.boundaries)})
        for key, path in spec.maps.items():
            at = body
            for group in path[:-1]:
                at = at.setdefault(group, {})
            at[path[-1]] = triples_of(obj.maps[key].tensor).tolist()
        return body

    def document(self) -> Document:
        """The Document that load_document(self.dumps()) reads, holding the
        registered objects themselves."""
        return Document(**{section: dict(table) for section, table in self.named.items()})


def corpus_builder(p: int = 2, names=None) -> DocumentBuilder:
    """The built-in corpus registered in one DocumentBuilder.

    With `names`, only the entries whose name is in it, in every section,
    are built; a named command passes its name and the entry that owns a
    carrier name (``ideal-pair`` for ``ideal-pair.E0``), so its name
    resolves as in the whole corpus."""
    b = DocumentBuilder()
    for name, cm in corpus.crossed_corpus(p, names).items():
        b.crossed(cm, name)
    for name, t in corpus.two_crossed_corpus(p, names).items():
        b.crossed(t, name, "two_crossed_modules")
    for name, E in corpus.simplicial_corpus(p, names).items():
        b.simplicial(E, name)
    for name, L in corpus.lie_corpus(p, names).items():
        b.algebra(L, name, "lie_algebras")
    for name, m in corpus.lie_three_corpus(p, names).items():
        b.crossed(m, name, "lie_three_crossed")
    return b


def corpus_document(p: int = 2) -> str:
    """The built-in corpus serialized as a single-line JSON document, as the
    `corpus` command prints it; a named command runs on the objects of
    corpus_builder instead, under the same names."""
    return corpus_builder(p).dumps()
