"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grpalg"


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _references(node, inside=frozenset()):
    """Each name, attribute and imported name under node, except a def's or
    class's references to itself inside its own body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_src_definition_has_a_src_caller():
    """Every def and class in src/grpalg is referenced somewhere in
    src/grpalg outside its own body, as a name, an attribute or an imported
    name: code that only tests reach lives beside them in tests/conftest.py,
    and a recursive helper needs a caller besides itself."""
    defined, used = {}, set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{fname}:{node.lineno}")
        used.update(_references(tree))
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, f"defined in src/grpalg but referenced nowhere there: {unused}"


def test_every_src_attribute_is_read_in_src():
    """Every attribute src/grpalg assigns on self (tuple targets included)
    is read somewhere in src/grpalg."""
    assigned, read = {}, set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                assigned.setdefault(node.attr, f"{fname}:{node.lineno}")
    unread = {name: where for name, where in assigned.items() if name not in read}
    assert not unread, f"assigned on self in src/grpalg but read nowhere there: {unread}"
