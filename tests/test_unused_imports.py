"""Every name a `ddmna` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ddmna"

# The benchmark's tracer (perfbench/bench_trace.py) wraps these as globals of
# ddsolver, where it looks them up; ddsolver itself does not use them.
TRACER_ONLY = {"ddsolver": {"scipy", "generate_measurements", "nearest_measurement"}}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports and never read in it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == TRACER_ONLY.get(path.stem, set())
