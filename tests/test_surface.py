"""Every top-level definition and class member in ``src/cuspext`` is reached from ``src/``.

A definition that no module names (as a ``Name``, an ``Attribute`` or an
import alias) is code that no command runs; it either goes or is listed
in ``UNREACHED`` with the reason it stays.  A method or property of a
class counts as reached only when some ``Attribute`` names it: a bare
name or an import alias of the same spelling (``dataclasses.field``, say)
is not a read of the member.  ``__init__.py`` is not scanned: a
re-export there would count as a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cuspext"

UNREACHED = {
    "classify_bilip_region": "perfbench/tracer.py patches it",
    "w1p_norm": "perfbench/tracer.py patches it",
    "jacobian": "the closed-form bi-Lipschitz constants probe sigma_max with it",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _defined(trees):
    """{name: module} of every top-level def and class."""
    return {node.name: module
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _referenced(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_definition_is_reached_or_listed():
    trees = _trees()
    referenced = _referenced(trees)
    unreached = {name: module for name, module in _defined(trees).items()
                 if name not in referenced}
    assert sorted(set(unreached) - set(UNREACHED)) == [], unreached


def test_the_list_holds_only_unreached_definitions():
    # a listed name that gains a caller, or is deleted, leaves the list
    trees = _trees()
    defined, referenced = _defined(trees), _referenced(trees)
    assert sorted(name for name in UNREACHED
                  if name not in defined or name in referenced) == []


def _members(trees):
    """``Class.member`` of every non-dunder method and property of a class."""
    return {f"{node.name}.{item.name}"
            for tree in trees.values()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def test_every_class_member_is_named_as_an_attribute():
    trees = _trees()
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    assert sorted(member for member in _members(trees)
                  if member.split(".", 1)[1] not in attributes) == []
