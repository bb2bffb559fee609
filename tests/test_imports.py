"""Every module-level import in the package is used by its module.

No linter ships with the package, so this is the unused-import check: a name
bound by a module-level ``import`` and never read in that module fails,
unless its import line says ``# noqa: F401`` (a deliberate re-export).
``__init__.py`` re-exports by design and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cometric"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\n\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import (\n    b,  # noqa: F401\n    c,\n)\n") == []
    assert unused_imports("import numpy.linalg\nfrom x import y as z\nnumpy.linalg.norm(z)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
