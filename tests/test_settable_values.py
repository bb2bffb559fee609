"""The number of values a caller can set, counted from the package source.

A settable value is a parameter with a default (lambdas included), a
dataclass field with a default, or a command-line option (one
``add_argument`` call).  Every one of them should have a caller outside the
tests; the count is pinned so that adding or removing one is a deliberate
change that updates it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cometric"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in node.decorator_list
    )


def settable_values(source: str) -> tuple[int, int, int]:
    """(defaulted parameters, defaulted dataclass fields, CLI options) of ``source``."""
    params = fields = options = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            options += 1
    return params, fields, options


def test_the_count_sees_each_kind():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): return lambda x, y=3: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n    u: int\n    v: int = 0\n"
        "class Plain:\n    w: int = 0\n"
        "parser.add_argument('--out', default=None)\n"
    )
    assert settable_values(source) == (3, 1, 1)


def test_settable_values_are_pinned():
    counts = [settable_values(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert tuple(map(sum, zip(*counts))) == (21, 5, 34)  # 60 in all
