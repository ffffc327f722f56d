"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grpalg"


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_src_definition_has_a_src_caller():
    """Every def and class in src/grpalg is referenced somewhere in
    src/grpalg, as a name, an attribute or an imported name: code that only
    tests reach lives beside them in tests/conftest.py."""
    defined, used = {}, set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{fname}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, f"defined in src/grpalg but referenced nowhere there: {unused}"
