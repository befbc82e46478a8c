"""No code that nothing calls: every module-level function, class and
constant of the package, public or private, and every private method, is
named somewhere in the package outside its own definition.  The imports of
`__init__.py` count, so the public API is used by definition.  An import
counts as a use, so every other module must also read each name it
imports.  The names that the benchmark tracer reads count too: it wraps
package functions and classes by name from outside the package.  Its
source is parsed as text here, never imported or executed."""

import ast
from collections import Counter
from pathlib import Path

import qtors

SRC = Path(qtors.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _names(node):
    """Every name that the nodes under `node` read or import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Module-level functions, classes and constants, and private methods
    of module-level classes, as (qualified name, name, node); dunder names
    are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not _dunder(node.name):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "id", "")
                if name and not _dunder(name):
                    yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", "")
                if (
                    isinstance(item, defs)
                    and name.startswith("_")
                    and not name.endswith("__")
                ):
                    yield f"{node.name}.{name}", name, item


def _unused(trees, outside=()):
    """`file:qualname` of the definitions in the parsed modules `trees`
    (file name -> module) that no other code names, in the package or in
    the parsed modules `outside`."""
    uses = Counter()
    for tree in [*trees.values(), *outside]:
        uses.update(_names(tree))
    out = []
    for fname, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if uses[name] - Counter(_names(node))[name] <= 0:
                out.append(f"{fname}:{qualname}")
    return out


def _unread_imports(trees):
    """`file:name` of the names that a parsed module other than
    `__init__.py` imports and never reads; `__future__` imports are
    directives, not names."""
    out = []
    for fname, tree in trees.items():
        if fname == "__init__.py":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append(f"{fname}:{name}")
    return out


def test_every_definition_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unused(trees, [ast.parse(TRACING.read_text())]) == []


def test_the_guard_flags_definitions_named_only_in_their_own_body():
    called = ast.parse("from m import _imported\n_helper()\n")
    module = ast.parse(
        "def _helper():\n    return _recursive()\n"
        "def _recursive():\n    return _recursive()\n"
        "def _dead():\n    return _dead()\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        pass\n"
        "    def _method(self):\n        return self._method()\n"
        "def _imported():\n    pass\n"
        "def exported():\n    return LIMIT\n"
        "def public():\n    return public()\n"
        "_LIMIT = 3\n"
        "_PANEL = 192\n"
        "_TYPED: int = _LIMIT\n"
        "LIMIT = 4\n"
        "TABLE = {}\n"
        "__all__ = []\n"
    )
    init = ast.parse("from .m import exported\n")
    assert _unused({"__init__.py": init, "a.py": called, "m.py": module}) == [
        "m.py:_dead",
        "m.py:_Box",
        "m.py:_Box._method",
        "m.py:public",
        "m.py:_PANEL",
        "m.py:_TYPED",
        "m.py:TABLE",
    ]


def test_the_guard_counts_names_read_outside_the_package():
    module = ast.parse("class _Wrapped(Exception):\n    pass\ndef _dead():\n    pass\n")
    tracer = ast.parse("def install(mods):\n    wrap(mods['m']._Wrapped)\n")
    trees = {"m.py": module}
    assert _unused(trees) == ["m.py:_Wrapped", "m.py:_dead"]
    assert _unused(trees, [tracer]) == ["m.py:_dead"]


def test_every_import_is_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unread_imports(trees) == []


def test_the_guard_flags_imports_that_are_never_read():
    module = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from .m import used, unused, renamed as alias\n"
        "def f(x: used) -> None:\n"
        "    import json\n"
        "    return np.zeros(1), xml.dom, alias\n"
    )
    init = ast.parse("from .m import exported\n")
    assert _unread_imports({"__init__.py": init, "a.py": module}) == [
        "a.py:os",
        "a.py:unused",
        "a.py:json",
    ]
