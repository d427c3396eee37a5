"""Every name a module of the package imports is used in that module (no
linter is required to run the suite, so this stands in for one)."""

import ast
from pathlib import Path

import pytest

import streamcolor

MODULES = sorted(
    path for path in Path(streamcolor.__file__).resolve().parent.glob("*.py")
    if path.name != "__init__.py"  # re-exports
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue  # imported for others to find, such as a tracer that patches it
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_definition_has_a_caller():
    """Each private function or class at a module's top level, and each
    private method that is not a dunder, is named somewhere in the package:
    no scalar twin is left behind without a caller."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreferenced = {}
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for definition in (node, *members):
                if not isinstance(definition, kinds):
                    continue
                name = definition.name
                if name.startswith("_") and not name.endswith("__") and name not in referenced:
                    unreferenced[f"{module}:{definition.lineno}"] = name
    assert unreferenced == {}
