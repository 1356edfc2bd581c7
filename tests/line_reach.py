"""Statements of ``src/contactgeo`` that the test suite never runs.

    python tests/line_reach.py

runs the tier-1 suite (``pytest -q -p no:cacheprovider
--continue-on-collection-errors`` from the repository root) in this process
under ``sys.settrace`` and ``threading.settrace``, recording the lines run in
``src/contactgeo/*.py`` alone.  It then prints each statement that never ran as
``path:line: text``: the statements of each module's syntax tree, without
docstrings, ``def`` and ``class`` lines and ``global`` or ``nonlocal``
declarations, which run no code of their own.  A statement ran when a line of
its header did: for a compound statement the lines before its body, for any
other all its lines.  Its last line is ``N of M statements unreached``.  It
exits 1 if a test fails.  Lines run in subprocesses are not seen.  The tracer
slows the suite about threefold, so the script is not part of tier-1.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contactgeo"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def _statements(tree):
    """``(first, last)`` header lines of each counted statement of ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, max(node.lineno, last)


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    ran = {path: set() for path in paths}
    owner = {}  # a code object's file name -> its set in ran, or None

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = ran.get(Path(os.path.abspath(name)))
        return local if owner[name] is not None else None

    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, last in sorted(_statements(ast.parse(source))):
            total += 1
            if ran[path].isdisjoint(range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} of {total} statements unreached")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
