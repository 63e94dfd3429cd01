"""`python -O` strips assert statements, so no check in the package may be one."""

import ast
import pathlib

import hswcsp

PACKAGE = pathlib.Path(hswcsp.__file__).parent


def test_solver_sources_have_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)
