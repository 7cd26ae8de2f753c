"""List the functions of the hodgeheat package that neither the corpus
reports nor the acceptance criteria reach.

Usage: PYTHONPATH=src python tests/reach.py

Runs ``tests/corpus_reports.py`` (into a temporary directory) and
``tests/test_acceptance.py`` (through ``pytest.main``) in this process,
under one ``sys.setprofile`` hook that records the code of every Python
function called.  Calls made in a child process, such as the acceptance
suite's thread-cap check, are not seen.  Then it reads each module of the
package with ``ast`` and prints every function and method whose code never
ran, as path:line, its line count and its qualified name, in file order,
with the total line count last.  A function counts as reached when it was
called at least once; a nested function is listed only when it is defined
in a reached one.  pytest does not collect this file.
"""

import ast
import os
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

import hodgeheat

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(hodgeheat.__file__).resolve().parent


def _functions(path):
    """(first line, last line, qualified name, first line of the enclosing
    function or None) of each function in the module at path; a decorated
    function starts at its first decorator, as its code object does."""
    found = []

    def visit(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((first, child.end_lineno, prefix + child.name, outer))
                visit(child, f"{prefix}{child.name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def _reached():
    """{(file, first line)} of every function called by the two runs."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cwd = os.getcwd()
    sys.setprofile(record)
    try:
        corpus = runpy.run_path(str(TESTS / "corpus_reports.py"), run_name="corpus_reports")
        with tempfile.TemporaryDirectory() as outdir:
            corpus["main"](outdir)
            os.chdir(cwd)
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS / "test_acceptance.py")])
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    if code != 0:
        sys.exit(f"reach: the acceptance suite exited {code}")
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def main():
    reached = _reached()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for first, last, name, outer in _functions(path):
            outer_reached = outer is None or (str(path), outer) in reached
            if outer_reached and (str(path), first) not in reached:
                total += last - first + 1
                print(f"{path.relative_to(PACKAGE.parent.parent)}:{first}: "
                      f"{last - first + 1} lines  {name}")
    print(f"{total} lines unreached")


if __name__ == "__main__":
    main()
