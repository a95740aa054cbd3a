"""Every public function and class at the top level of a `ddmna` module is
used: some code reads its name outside its own definition, in the package
(a re-export in `__init__.py` does not count), in `tests/` or in
`perfbench/`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ddmna"


def public_definitions(tree: ast.Module) -> list[ast.stmt]:
    """The module's top-level public functions and classes."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def reads(node: ast.AST) -> set[str]:
    """Names the node reads, as a plain name or as an attribute; an import
    binds a name and reads none."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def unused_public(modules: dict[str, ast.Module], others: list[ast.Module]) -> set:
    """(module, name) of each public definition of `modules` whose name no
    code reads: neither another top-level statement of `modules` nor `others`."""
    read_by_others = set().union(*map(reads, others))
    statements = [(node, reads(node)) for tree in modules.values() for node in tree.body]
    return {(stem, node.name) for stem, tree in modules.items()
            for node in public_definitions(tree)
            if node.name not in read_by_others
            and not any(node.name in read for other, read in statements if other is not node)}


def _parse(paths) -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_public_definition_is_used():
    modules = {path.stem: tree for path, tree in _parse(sorted(SRC.glob("*.py"))).items()
               if path.stem != "__init__"}
    assert "reference" in modules
    others = _parse(sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")))
    assert others
    assert unused_public(modules, list(others.values())) == set()


def test_the_scan_finds_an_unused_public_name():
    module = ast.parse("def helper(n):\n    return helper(n - 1) if n else 0\n"
                       "def used():\n    return 1\n"
                       "def called_here():\n    return used()\n"
                       "class Kept:\n    pass\n"
                       "class Dropped:\n    pass\n")
    other = ast.parse("from m import Dropped, Kept, called_here, helper\n"
                      "called_here()\nKept()\n")
    assert unused_public({"m": module}, [other]) == {("m", "helper"), ("m", "Dropped")}
