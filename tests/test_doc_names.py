"""Every private name that README.md quotes in backticks (`_x`, or a dotted
name with a private part such as `rep._x` or `_X.method`) is defined in the
package or the tests: as a function, a class, or the target of an
assignment (a constant, a field or an attribute set on `self`)."""

import ast
import re
from pathlib import Path

import qtors

SRC = Path(qtors.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?`")


def _private_parts(name):
    return [p for p in name.split(".") if p.startswith("_") and not p.endswith("__")]


def _defined_names():
    names = set()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        names.add(target.attr)
    return names


def test_readme_private_names_are_defined():
    quoted = {
        m.group(1)
        for m in DOTTED.finditer((ROOT / "README.md").read_text())
        if _private_parts(m.group(1))
    }
    assert quoted, "README.md quotes no private names; the pattern is stale"
    defined = _defined_names()
    missing = sorted(n for n in quoted if not set(_private_parts(n)) <= defined)
    assert not missing, f"README.md names undefined private names: {missing}"
