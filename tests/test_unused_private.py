"""Every private name `ddmna` defines is read somewhere in the package: its
private functions, classes and methods, its private module constants and
the private attributes its methods set on `self`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ddmna"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> set[str]:
    """Private names the module defines: functions, classes and methods at
    any depth, module-level constants and `self._attr` assignments."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name) and node.value.id == "self")
    return {name for name in names if _private(name)}


def reads(tree: ast.Module) -> set[str]:
    """Names the module reads, as a plain name or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_private_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "ddsolver" in trees
    read = set().union(*map(reads, trees.values()))
    unread = {stem: sorted(private_definitions(tree) - read) for stem, tree in trees.items()}
    assert not any(unread.values()), {stem: names for stem, names in unread.items() if names}


def test_the_scan_finds_an_unread_private_name():
    tree = ast.parse("_LIMIT = 1\n"
                     "def _helper():\n    return _LIMIT\n"
                     "class A:\n"
                     "    def __init__(self):\n        self._kept = self._slot = 0\n"
                     "    def _solve(self):\n        return self._kept\n")
    assert private_definitions(tree) - reads(tree) == {"_helper", "_slot", "_solve"}
