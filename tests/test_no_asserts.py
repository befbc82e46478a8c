"""Correctness checks in the package raise real exceptions: `python -O`
strips `assert` statements, so none may appear under src/qtors/, and a
failed check raises a specific error, never a bare `AssertionError`."""

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


def _names_assertion_error(exc: ast.expr | None) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_raises_no_assertion_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and _names_assertion_error(node.exc)
    ]
    assert found == []
