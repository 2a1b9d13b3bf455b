import ast
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
