"""List the statements of src/stabledyn/ that the tier-1 suite never runs.

    python tools/unrun_statements.py [pytest arguments]

Runs pytest in this process, from the repository root, with the tier-1
arguments (``-q --continue-on-collection-errors``) unless others are given,
under ``sys.settrace`` and ``threading.settrace``.  Only frames of files
under src/stabledyn/ are traced line by line.  Then every statement of those
files that never ran is printed as ``file:line source``.  Definitions,
imports, docstrings and bare annotations do not count: they run at import
or compile to nothing.  A compound statement (if, for, while, with, try)
counts as run when its header ran or the first statement of its body did.

Exits 1 if a statement that ``ALLOWED`` does not name never ran, and
otherwise with pytest's own exit code.  Tracing makes the suite about 1.5
times slower (31 s against 20 s on 2 cores), so this is not part of tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabledyn"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]

# (file under src/stabledyn, the statement's first source line) -> why no
# tier-1 test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is a script; the tests that start one run "
        "it in a subprocess, which is not traced",
    ("sim.py", 'causes.setdefault(j, "non-finite state")'):
        "a step whose four RK4 stages are finite but whose sum overflows; "
        "numpy warns on that overflow, and the suite turns the warning into "
        "an error",
}

# statements that run at import or compile to no code of their own
_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def _counted(node):
    if isinstance(node, _NOT_RUN):
        return False
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return False  # a docstring or a bare constant
    return not (isinstance(node, ast.AnnAssign) and node.value is None)


def _ran(node, ran):
    """Whether a line event reached ``node``: one of the lines it owns (its
    header's, for a compound statement), or else its first body statement."""
    body = getattr(node, "body", None)
    own = range(node.lineno, body[0].lineno if body else node.end_lineno + 1)
    return not ran.isdisjoint(own) or bool(body) and _ran(body[0], ran)


def unrun(source, ran):
    """First lines of the counted statements of ``source`` that never ran,
    given the set ``ran`` of its lines that a line event reached."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and _counted(node)
                   and not _ran(node, ran)})


class LineTracer:
    """Records, per file under PACKAGE, the lines that ran."""

    def __init__(self):
        self.lines = {}    # path -> set of line numbers
        self._local = {}   # co_filename -> local trace function, or None

    def _for(self, filename):
        path = Path(os.path.realpath(filename))
        if PACKAGE not in path.parents:
            return None
        ran = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            local = self._local[filename] = self._for(filename)
            return local


def main(argv=None):
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or TIER1_ARGS
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    failed = False
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        for first in unrun(source, tracer.lines.get(path, set())):
            text = source.splitlines()[first - 1].strip()
            reason = ALLOWED.get((path.relative_to(PACKAGE).as_posix(), text))
            note = f"  [allowed: {reason}]" if reason else ""
            failed |= reason is None
            print(f"{path.relative_to(ROOT)}:{first} {text}{note}")
    if failed:
        print("statements above that are not allowed never ran", file=sys.stderr)
        return 1
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
