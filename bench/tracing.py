"""Tracing of moorekit from outside the program.

``install`` wraps the public functions of every moorekit module and a few
methods, without changing a line of the package:

* a module-level function is replaced by a wrapper in every moorekit module
  namespace that imported it, so calls between modules and recursive calls
  go through the wrapper too;
* methods are patched on their classes.

A wrapped function records a span (name, start, end, parent span).  The
hottest inner calls (``HOT``) are only counted, which keeps the overhead
down.  Spans and counts stay in the job's process until ``dump`` hands
them to the benchmark, which turns them into per-layer metrics with
``layer_totals``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("coeff", "moore", "simplicial", "crossed", "lie", "functors",
           "document", "corpus", "report", "cli")

# counted, never spanned: one call each per element operation
HOT = {"moore.p_set", "moore.s_word_morphism", "moore.proj_p", "moore.in_moore",
       "moore.normal_form", "moore.push_face", "moore.table1_eval",
       "coeff.reduce_against", "coeff.row_space_contains", "coeff.solve_in_rows",
       "coeff.mul"}

# (class module, class, method, span name or count key, spanned?)
METHODS = [
    ("coeff", "Element", "__mul__", "coeff.element_products", False),
    ("coeff", "Morphism", "__call__", "coeff.morphism_applications", False),
    ("coeff", "Morphism", "compose", "coeff.compose.calls", False),
    ("coeff", "Morphism", "is_multiplicative", "coeff.is_multiplicative", True),
    ("coeff", "BilinearMap", "__call__", "crossed.bilinear_applications", False),
    ("document", "DocumentBuilder", "dumps", "document.dumps", True),
    ("document", "Document", "lookup", "document.lookup.calls", False),
    ("report", "CheckRecord", "json_line", "report.json_line.calls", False),
]

VERIFIERS = {"crossed.verify_cm", "crossed.verify_2cm", "crossed.verify_3cm",
             "lie.verify_lie_3cm", "lie.verify_lie_2cm", "lie.verify_lie_crossed"}


class Tracer:
    """Span and count buffers of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.verify_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, fn, name: str, after=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        """Hand this process's spans and counts to the benchmark."""
        n = len(self.start)
        spans = np.zeros((n, 4), dtype=np.float64)
        if n:
            spans[:, 0] = np.frombuffer(self.name_of, dtype=np.int64)
            spans[:, 1] = np.frombuffer(self.parent, dtype=np.int64)
            spans[:, 2] = np.frombuffer(self.start, dtype=np.float64)
            spans[:, 3] = np.frombuffer(self.end, dtype=np.float64)
        np.save(path + ".npy", spans)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts)}, fh)


# quantities read off arguments and results ------------------------------------


def _rref_cells(tr, args, kwargs, result):
    tr.counts["coeff.rref.cells"] += int(np.size(args[0]))


def _madds(tr, args, kwargs, result):
    # naive einsum cost of the two contractions in is_multiplicative:
    # "ijm,km->ijk" is s^3 t and "ai,bj,abk->ijk" is s^2 t^3 (computed)
    s, t = args[0].source.dim, args[0].target.dim
    tr.counts["coeff.is_multiplicative.madds"] += s ** 3 * t + s ** 2 * t ** 3


def _dumped_bytes(tr, args, kwargs, result):
    tr.counts["document.dumps.bytes"] += len(result)


def _loaded_bytes(tr, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tr.counts["document.load_document.bytes"] += len(text)


def _objects_built(tr, args, kwargs, result):
    tr.counts["corpus.objects_built"] += len(result)


def _pairs_checked(tr, args, kwargs, result):
    tr.counts["moore.table1.pairs_checked"] += sum(
        r.detail.get("checked", 0) for r in result)


def _report_tuples(tr, args, kwargs, result):
    tr.counts["crossed.tuples_checked"] += sum(e.checked for e in result.entries)
    for e in result.entries:
        if e.name == "3CM6":
            tr.counts["crossed.3CM6.tuples"] += e.checked


AFTER = {"coeff.rref": _rref_cells, "coeff.is_multiplicative": _madds,
         "document.dumps": _dumped_bytes, "document.load_document": _loaded_bytes,
         "moore.table1_audit": _pairs_checked,
         **{f"corpus.{builder}": _objects_built
            for builder in ("simplicial_corpus", "crossed_corpus", "two_crossed_corpus",
                            "lie_corpus", "lie_three_corpus")}}


def _verifier(tr: Tracer, fn, name: str):
    """Span a verifier; count the tuples of the outermost report only, since
    verify_3cm folds the verify_2cm report of its top segment into its own."""
    inner = tr.spanned(fn, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.verify_depth += 1
        try:
            result = inner(*args, **kwargs)
        finally:
            tr.verify_depth -= 1
        if tr.verify_depth == 0:
            _report_tuples(tr, args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap moorekit in place; call once, before the first traced job."""
    mods = {m: importlib.import_module(f"moorekit.{m}") for m in MODULES}
    namespaces = [importlib.import_module("moorekit"), *mods.values()]
    replace: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            name = f"{short}.{attr}"
            if name in HOT:
                wrapped = tracer.counted(obj, name + ".calls")
            elif name in VERIFIERS:
                wrapped = _verifier(tracer, obj, name)
            else:
                wrapped = tracer.spanned(obj, name, AFTER.get(name))
            replace[id(obj)] = wrapped
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in replace and inspect.isfunction(obj):
                setattr(ns, attr, replace[id(obj)])
    for short, cls_name, meth, name, spanned in METHODS:
        cls = getattr(mods[short], cls_name)
        fn = getattr(cls, meth)
        setattr(cls, meth, tracer.spanned(fn, name, AFTER.get(name)) if spanned
                else tracer.counted(fn, name))


# turning spans into per-layer totals -----------------------------------------


def load(path: str) -> tuple[list, np.ndarray, dict]:
    spans = np.load(path + ".npy")
    with open(path + ".json") as fh:
        meta = json.load(fh)
    return meta["names"], spans, meta["counts"]


def layer_totals(names: list, spans: np.ndarray, counts: dict) -> Counter:
    """Per-function span counts and self times, per-module self times, and
    the recorded counts, keyed as ``<module>.<function>.<quantity>``."""
    out: Counter = Counter(counts)
    if spans.shape[0] == 0:
        return out
    name_of = spans[:, 0].astype(np.int64)
    parent = spans[:, 1].astype(np.int64)
    dur = spans[:, 3] - spans[:, 2]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(name_of, minlength=len(names))
    selfs = np.bincount(name_of, weights=self_time, minlength=len(names))
    for nid, name in enumerate(names):
        if calls[nid] == 0:
            continue
        out[name + ".calls"] += int(calls[nid])
        out[name + ".self_s"] += float(selfs[nid])
        out[name.split(".")[0] + ".self_s"] += float(selfs[nid])
    return out

