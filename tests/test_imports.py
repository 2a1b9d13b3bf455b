import ast
import json
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "moorekit"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads (`from __future__` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def orphaned_private_names(sources: dict) -> list[str]:
    """The `_`-prefixed functions, classes and constants defined at the top
    level of a module (dunder names aside) that no module, itself included,
    reads as a name or an attribute; sources maps module names to source."""
    read, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                           if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, t) for t in targets if t.startswith("_") and not t.startswith("__")]
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unused_imports_finds_a_name_never_read():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n") == ["b", "os"]


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_package_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_orphaned_private_names_finds_a_helper_no_module_reads():
    sources = {"a": "def _used(): pass\ndef _orphan(): pass\n_X = 1\n_Y: int = 2\nclass _C: pass\n"
                    "__all__ = []\n",
               "b": "from a import _used\nimport a\n_used()\na._Y\n"}
    assert orphaned_private_names(sources) == ["a._C", "a._X", "a._orphan"]


def test_every_private_name_of_the_package_is_read_by_some_module():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


def _reads(tree) -> tuple[set, set]:
    """The names a tree reads as a bare name, and those it reads as an
    attribute (x.name)."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)},
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def reads_of(source: str, names: set) -> set:
    """The names of the set that a module imports or reads as a name or an
    attribute."""
    tree = ast.parse(source)
    named, attributes = _reads(tree)
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    return (named | attributes | imported) & names


def test_reads_of_finds_an_import_a_name_and_an_attribute():
    source = "from .c import _sweep, other\nimport c\nc._evaluate(_identity)\n"
    assert reads_of(source, {"_sweep", "_sweeps", "_identity", "_evaluate"}) \
        == {"_sweep", "_identity", "_evaluate"}


# one verifier path: the sweep and the identity evaluator are read by crossed,
# which defines them, and by functors, whose table audits sweep Tables 2-4
SWEEP = {"_sweep", "_sweeps", "_identity", "_evaluate"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_crossed_and_functors_read_the_sweep(module):
    allowed = {"crossed.py", "functors.py"}
    read = reads_of((PACKAGE / module).read_text(encoding="utf-8"), SWEEP)
    assert read == set() or module in allowed, sorted(read)


def unread_public_functions(sources: dict, readers: list) -> list[str]:
    """The public functions and methods defined in the modules of sources
    (module name -> source; dunder names aside) that no module of sources
    and no source in readers reads.  A function is read as a name or an
    attribute, a method or property only as an attribute (x.name): a local
    variable of the same name reads no method, and an import, such as the
    re-export of an __init__, reads nothing."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [_reads(tree) for tree in [*trees.values(), *map(ast.parse, readers)]]
    attrs = set().union(*(attributes for _, attributes in reads))
    names = attrs.union(*(named for named, _ in reads))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node.name, names)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{f.name}", f.name, attrs) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
            else:
                defs = []
            out += [f"{module}.{qual}" for qual, name, read in defs
                    if not name.startswith("_") and name not in read]
    return sorted(out)


def nested_imports(source: str) -> list[str]:
    """Each import a module makes inside a function, as "<function>:
    <statement>", with the qualified name of the function around it."""
    out = []

    def visit(node, where, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
            inside = inside or not isinstance(node, ast.ClassDef)
        if inside and isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(f"{where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, inside)

    visit(ast.parse(source), "", False)
    return out


def raw_products(source: str) -> list[str]:
    """Each matrix product of a module written outside coeff.matmul, as
    "<function>: <form>": the @ operator, np.matmul, np.dot, np.tensordot
    and np.einsum, each with the qualified name of the function around it."""
    forms = {"matmul": "np.matmul", "dot": "np.dot", "tensordot": "np.tensordot",
             "einsum": "np.einsum"}
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append(f"{where}: @")
        if isinstance(node, ast.Attribute) and node.attr in forms:
            out.append(f"{where}: {forms[node.attr]}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return out


def test_unread_public_functions_finds_a_function_only_tests_read():
    sources = {"a": "def used(): pass\ndef orphan(): pass\ndef _private(): pass\n"
                    "class C:\n    def __init__(self): pass\n    def method(self): pass\n"
                    "    def spare(self): pass\n",
               "b": "from a import used\nused()\n"}
    assert unread_public_functions(sources, ["x.method()\n"]) == ["a.C.spare", "a.orphan"]


def test_a_bare_name_reads_no_method():
    sources = {"a": "class C:\n    def spare(self): pass\n",
               "b": "def f(spare):\n    return spare + 1\nf(1)\n"}
    assert unread_public_functions(sources, ["spare = 2\nprint(spare)\n"]) == ["a.C.spare"]


def test_an_export_alone_reads_no_function():
    sources = {"__init__": "from .a import orphan, used\n",
               "a": "def orphan(): pass\ndef used(): pass\n"}
    assert unread_public_functions(sources, ["import a\na.used()\n"]) == ["a.orphan"]


def test_every_public_function_of_the_package_is_read_outside_the_tests():
    # a function that only tests read belongs in the tests (tests/reference.py)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in (PACKAGE.parent.parent / "bench").rglob("*.py")]
    assert unread_public_functions(sources, readers) == []


def test_nested_imports_finds_an_import_inside_a_function():
    source = ("import os\ndef f():\n    from . import x\n    return x\n"
              "class K:\n    import sys\n    def g(self):\n        def h():\n"
              "            import json as j\n        return h\n")
    assert nested_imports(source) == ["f: from . import x", "K.g.h: import json as j"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_modules_import_at_module_level(module):
    # simplicial imports moore, so theorem5_check resolves its helper at call time
    allowed = {"moore.py": ["theorem5_check: from .simplicial import degenerate_subalgebra"]}
    assert nested_imports((PACKAGE / module).read_text(encoding="utf-8")) == allowed.get(module, [])


def test_raw_products_finds_each_form_in_its_function():
    source = ("import numpy as np\ndef f(a):\n    return a @ a % 2\n"
              "class K:\n    def g(self, a):\n        a @= a\n        return np.dot(a, np.einsum('ij->i', a))\n"
              "def h(a):\n    return np.tensordot(a, a, 1) + np.matmul(a, a)\n")
    assert raw_products(source) == ["f: @", "K.g: @", "K.g: np.dot", "K.g: np.einsum",
                                    "h: np.tensordot", "h: np.matmul"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_matrix_product_goes_through_matmul(module):
    # coeff.matmul chooses int64 or float64 and guards the word size for every
    # product
    allowed = {"coeff.py": ["matmul: np.matmul", "matmul: np.matmul"]}
    assert raw_products((PACKAGE / module).read_text(encoding="utf-8")) == allowed.get(module, [])


def structure_reads(source: str) -> list[str]:
    """Each read of an algebra's dense tensor in a module, as "<function>:
    <form>": the attribute .structure and the name or attribute bilinear,
    each with the qualified name of the function around it."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Attribute) and node.attr in ("structure", "bilinear"):
            out.append(f"{where}: .{node.attr}")
        if isinstance(node, ast.Name) and node.id == "bilinear" and isinstance(node.ctx, ast.Load):
            out.append(f"{where}: bilinear")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return out


def test_structure_reads_finds_each_form_in_its_function():
    source = ("from .coeff import bilinear\nimport coeff\ndef f(A):\n    return A.structure\n"
              "class K:\n    def g(self, a):\n        return bilinear(a, a, self.A.structure, 2)\n"
              "def h(a, structure):\n"
              "    return coeff.bilinear(a, a, structure, 2) + a.mul_vec(a, a)\n")
    assert structure_reads(source) == ["f: .structure", "K.g: bilinear", "K.g: .structure",
                                       "h: .bilinear"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "coeff.py"))
def test_every_product_of_elements_goes_through_mul_vec(module):
    # Algebra.mul_vec chooses the dense view or the triples for every product
    # of elements; the normal block hands C's tensor on as the nu block, and
    # the multiplier system of multiplication_cm is built from the tensor
    allowed = {"simplicial.py": ["_normal_block: .structure", "_normal_block: .structure"],
               "crossed.py": ["multiplication_cm: .structure"]}
    assert structure_reads((PACKAGE / module).read_text(encoding="utf-8")) == allowed.get(module, [])


def defined_functions(source: str) -> set:
    """The functions a module defines at the top level and the methods of
    its top-level classes, by name."""
    tree = ast.parse(source)
    return ({node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            | {f.name for node in tree.body if isinstance(node, ast.ClassDef)
               for f in node.body if isinstance(f, ast.FunctionDef)})


def test_defined_functions_reads_functions_and_methods():
    source = "def f(): pass\nclass K:\n    def g(self): pass\n    x = 1\ny = 2\n"
    assert defined_functions(source) == {"f", "g"}


# per-layer names of BENCHMARK.json whose function is gone, so they read 0 in
# every traced run; the next change to the benchmark drops or swaps them and
# empties this set
STALE_PER_LAYER = {"moore.c_pairing.calls", "moore.c_pairing.self_s", "moore.proj_p.calls",
                   "functors.cm_from_simplicial.self_s",
                   "functors.two_crossed_from_simplicial.self_s",
                   "functors.three_crossed_from_simplicial.self_s", "lie.validate_lie.self_s"}


def test_every_per_layer_function_name_is_defined_in_its_module():
    # reads BENCHMARK.json and does not change it: a name <module>.<name>.calls
    # or .self_s is a function or method the tracer looks up by that name
    bench = json.loads((PACKAGE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    stale = set()
    for metric in bench["per_layer"]:
        module, _, rest = metric["name"].partition(".")
        name, _, counter = rest.partition(".")
        if counter in ("calls", "self_s"):
            path = PACKAGE / f"{module}.py"
            if not path.exists() or name not in defined_functions(path.read_text(encoding="utf-8")):
                stale.add(metric["name"])
    assert stale == STALE_PER_LAYER
