"""Checks on the package source itself, read with the standard library's ast."""

import ast
import re
from pathlib import Path

import docmrt

SOURCES = sorted(Path(docmrt.__file__).parent.glob("*.py"))
MAX_LINE = 100
ENUM_HOOK = re.compile(r"^_[a-z]+_$")  # sunder names such as _missing_ that Enum calls


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and not ENUM_HOOK.match(name):
                yield name, node


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_private_module_name_is_referenced():
    # a refactor that leaves a private helper without callers fails here
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    references = [
        (name, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if (name := _referenced_name(node)) is not None
    ]
    unreferenced = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in own for ref, node in references):
                unreferenced.append(f"{module}:{name}")
    assert unreferenced == []


def test_no_source_line_is_over_the_length_limit():
    long_lines = [
        f"{path.name}:{lineno}: {len(line)} characters"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
