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


def test_unused_imports_finds_a_name_never_read():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n") == ["b", "os"]


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_package_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
