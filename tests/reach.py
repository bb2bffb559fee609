"""Print every ``raise`` in ``src/cometric`` that the tier-1 tests never reach.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Runs the test suite in-process under ``sys.settrace`` (and
``threading.settrace``), records the executed lines of the package, and
prints ``file:line`` for each ``raise`` statement not among them, then the
count.  Its name keeps pytest from collecting it: tracing doubles the
suite's time.
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


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    unreached = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in sorted(ast.walk(ast.parse(path.read_text(encoding="utf-8"))),
                           key=lambda node: getattr(node, "lineno", 0))
        if isinstance(node, ast.Raise) and (str(path), node.lineno) not in seen
    ]
    print("\n".join(unreached))
    print(f"{len(unreached)} unreached raise statements (tests exit status {int(status)})")
