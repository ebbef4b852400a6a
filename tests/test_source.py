"""Checks on the package's source text."""

import ast
import collections
import pathlib

import winsor_bounds

SRC = pathlib.Path(winsor_bounds.__file__).parent


def private_definitions(tree):
    """The module-level functions, classes and assigned names of ``tree``
    whose names start with an underscore and are no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_used():
    # a helper or constant that a refactor leaves behind is referenced
    # nowhere but its own definition: no load of the name, no attribute
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if not used[name]
    ]
    assert len(trees) >= 10 and not unused, unused
