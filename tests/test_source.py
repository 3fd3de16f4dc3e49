"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import mfcat

SRC = Path(mfcat.__file__).parent


def test_the_package_relies_on_no_assert_statement():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
