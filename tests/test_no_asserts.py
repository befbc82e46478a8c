"""Correctness checks in the package raise real exceptions: `python -O`
strips `assert` statements, so none may appear under src/qtors/."""

import ast
from pathlib import Path

import qtors

PACKAGE = Path(qtors.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
