"""The package parses as the oldest Python that pyproject.toml accepts.

`ast.parse(source, feature_version=...)` rejects syntax newer than that
version, such as `except*` or `type X = ...`, whichever interpreter runs
the test. It does not catch a call into the standard library that the
older version lacks (`tomllib`, `datetime.UTC`); only running the package
under that version does.
"""

import ast
import pathlib
import re

import pytest

import hswcsp

PACKAGE = pathlib.Path(hswcsp.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_sources_parse_as_the_oldest_supported_python():
    claim = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert claim is not None
    oldest = (3, int(claim.group(1)))
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=oldest)


def test_newer_syntax_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
