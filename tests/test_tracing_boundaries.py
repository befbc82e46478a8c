"""The benchmark tracer wraps qtors functions by module and attribute name;
every name it lists must still resolve, or `--trace 1` breaks on a rename.
The tracer source is read and executed here, never imported from or
written to its directory."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_resolves_in_qtors():
    tracing = _tracing_module()
    names = list(tracing.BOUNDARIES) + list(tracing.COUNTED)
    assert names
    missing = []
    for module, path in names:
        assert module in tracing.MODULES
        owner = importlib.import_module(f"qtors.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
