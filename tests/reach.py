"""Print every ``raise`` in ``src/cometric`` that the tier-1 tests never reach.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Runs the test suite in-process under ``sys.settrace`` (and
``threading.settrace``), records the executed lines of the package, and
prints ``file:line function`` for each ``raise`` statement not among them,
naming the function or method that holds it (``<module>`` at top level),
then the count.  Its name keeps pytest from collecting it: tracing doubles
the suite's time.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cometric"
seen: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _raises(node, scope="<module>"):
    """``(line, enclosing function)`` of every ``raise`` under ``node``, the
    function named by its dotted path through classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield child.lineno, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from _raises(child, inner)


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    unreached = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{line} {scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope in sorted(_raises(ast.parse(path.read_text(encoding="utf-8"))))
        if (str(path), line) not in seen
    ]
    print("\n".join(unreached))
    print(f"{len(unreached)} unreached raise statements (tests exit status {int(status)})")
