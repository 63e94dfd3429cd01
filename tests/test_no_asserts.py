"""`python -O` strips assert statements, so no check in the solver may be one.

The exhaustive reference solver in bruteforce.py is the one exception: it
is a test oracle, not part of a solve.
"""

import ast
import pathlib

import hswcsp

PACKAGE = pathlib.Path(hswcsp.__file__).parent
ALLOWED = {"bruteforce.py"}


def test_solver_sources_have_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name not in ALLOWED
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)
