"""Checks on the package source itself, read as syntax trees."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grpalg"


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _external(tree):
    """The names a module binds by importing from outside grpalg: modules
    (`import numpy as np` binds np) and the names taken from them (`from
    itertools import product` binds product)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _is_outside(node):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
    return out


def _is_outside(node):
    """Whether an import statement imports from outside grpalg."""
    return isinstance(node, ast.Import) or (
        node.level == 0 and node.module.split(".")[0] != "grpalg")


def _on_external(node, external):
    """Whether node is an external name or an attribute chain on one
    (np, np.random, itertools.product)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in external


def _references(node, external, inside=frozenset()):
    """Each name, attribute and imported name under node, except a def's or
    class's references to itself inside its own body, and except what comes
    from outside grpalg: an import from there, a name it binds (`external`)
    and the attributes read on such a name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)) and _is_outside(node):
        return
    name = (node.id if isinstance(node, ast.Name) and node.id not in external
            else node.attr if isinstance(node, ast.Attribute)
            and not _on_external(node.value, external)
            else node.name if isinstance(node, ast.alias) else None)
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, external, inside)


# Dunder methods that Python calls implicitly, out of an AST scan's sight:
# constructors, reprs and dataclass hooks in every class, and Subgroup's
# equality and hash (both read Subgroup.key), as a Subgroup is a dict key in
# shoda_triples (its closure's `pairs`) and a field of the frozen dataclass
# Triple, whose generated __eq__ and __hash__ call them.  Every other dunder
# needs a src caller.
IMPLICIT = {"__init__", "__repr__", "__post_init__"}
IMPLICIT_IN = {("Subgroup", "__eq__"), ("Subgroup", "__hash__")}


def test_every_src_definition_has_a_src_caller():
    """Every def and class in src/grpalg is referenced somewhere in
    src/grpalg outside its own body, as a name, an attribute or an imported
    name: code that only tests reach lives beside them in tests/conftest.py,
    and a recursive helper needs a caller besides itself.  A name from
    outside grpalg is no use of a src def of the same name: `product` from
    itertools, or `np.add`, calls no src `product` or `add`.  Dunder
    methods count too, except the IMPLICIT ones."""
    defined, used = {}, set()
    for fname, tree in _trees().items():
        owner = {node: cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in IMPLICIT and (owner.get(node), node.name) not in IMPLICIT_IN:
                    defined.setdefault(node.name, f"{fname}:{node.lineno}")
        used.update(_references(tree, _external(tree)))
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


def test_every_src_constant_is_read_in_src():
    """Every module-level UPPER_CASE constant in src/grpalg is read
    somewhere in src/grpalg, as a name or as an attribute of its module."""
    assigned, read = {}, set()
    for fname, tree in _trees().items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    assigned.setdefault(target.id, f"{fname}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert assigned, "no module-level constant found in src/grpalg"
    unread = {name: where for name, where in assigned.items() if name not in read}
    assert not unread, f"constants in src/grpalg read nowhere there: {unread}"


def test_every_src_parameter_is_read():
    """Every parameter of a def in src/grpalg, other than self, is read in
    the def's body (a def or lambda nested in it counts): a parameter that
    is threaded through a signature must be used there."""
    unread = {}
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for param in params:
                if param != "self" and param not in loaded:
                    unread[f"{fname}:{node.lineno} {node.name}"] = param
    assert not unread, f"parameters in src/grpalg read nowhere in their def: {unread}"
