"""Checks on the package source itself, read with the standard library's ast."""

import ast
import re
from pathlib import Path

import docmrt

PACKAGE = Path(docmrt.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# what uses the package outside the unit tests: its own modules (the package
# file only imports them), the benchmark, the scripts and the acceptance criteria
USERS = [
    *(path for path in SOURCES if path.name != "__init__.py"),
    *sorted(ROOT.glob("perfbench/*.py")),
    *sorted(ROOT.glob("perfbench/tests/*.py")),
    *sorted(ROOT.glob("scripts/*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
MAX_LINE = 100
ENUM_HOOK = re.compile(r"^_[a-z]+_$")  # sunder names such as _missing_ that Enum calls


def test_the_package_file_only_imports_its_modules():
    # each name has one public path, docmrt.<module>.<name>: the package file is
    # its docstring and one `from . import` of package modules, with no re-export
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    modules = {path.stem for path in SOURCES} - {"__init__"}
    assert ast.get_docstring(tree) is not None and len(tree.body) == 2
    imports = tree.body[1]
    assert isinstance(imports, ast.ImportFrom) and (imports.level, imports.module) == (1, None)
    assert all(alias.asname is None and alias.name in modules for alias in imports.names)


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


def _qualified_references(tree: ast.Module, own_module: str | None):
    """(module, name, node) of each module-qualified reference in tree:
    `module.name`, `from ...module import name`, a `(module, "name", ...)` trace
    target, and, inside own_module itself, a bare name that is read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield _referenced_name(node.value), node.attr, node
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module.rpartition(".")[2], alias.name, node
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            target, name = node.elts[:2]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                yield _referenced_name(target), name.value, node
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own_module:
            yield own_module, node.id, node


def _public_name_users() -> dict[str, list]:
    """module.name of each public module-level function or class of the package,
    mapped to the (path, node) of every reference to it in USERS outside its own
    definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    references = [
        (path, module, name, node)
        for path, tree in trees.items()
        for module, name, node in _qualified_references(
            tree, path.stem if path.parent == PACKAGE else None
        )
    ]
    users = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            users[f"{path.stem}.{node.name}"] = [
                (user, ref)
                for user, module, name, ref in references
                if (module, name) == (path.stem, node.name) and id(ref) not in own
            ]
    return users


def test_every_public_name_is_used_outside_the_unit_tests():
    # a public function or class that only unit tests call is API that the lab,
    # its benchmark and its acceptance gate do not need
    assert [name for name, refs in _public_name_users().items() if not refs] == []


# Public names that nothing but perfbench's trace targets uses. The benchmark's
# per-layer counters name them, so they go only with a benchmark change; this set
# may shrink, and a new name that only a trace target uses fails the check below.
TRACE_ONLY = {
    "metrics.seq_cost", "metrics.doc_cost", "sampling.build_documents_random",
    "textcore.build_vocab",
}


def test_only_the_pinned_names_are_used_by_trace_targets_alone():
    tracing = ROOT / "perfbench" / "tracing.py"
    trace_only = {
        name
        for name, refs in _public_name_users().items()
        if refs and all(user == tracing and isinstance(ref, ast.Tuple) for user, ref in refs)
    }
    assert trace_only == TRACE_ONLY


def _public_functions(tree: ast.Module):
    """(node, offset) of each public module-level function and public method;
    offset is 1 where a call's positional arguments start after self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    decorators = {_referenced_name(d) for d in method.decorator_list}
                    yield method, 0 if "staticmethod" in decorators else 1


def _passed(call: ast.Call, args: ast.arguments, offset: int) -> set[str]:
    """The parameter names that call sets: by keyword, by position (a `*` splat
    sets every later positional parameter), or all of them through a `**` splat."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    if any(keyword.arg is None for keyword in call.keywords):
        return {*positional, *(a.arg for a in args.kwonlyargs)}
    names = {keyword.arg for keyword in call.keywords}
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return names | set(positional[offset + k :])
        if offset + k < len(positional):
            names.add(positional[offset + k])
    return names


def test_every_public_parameter_is_set_outside_the_unit_tests():
    # a defaulted parameter that only unit tests pass is a setting the lab, its
    # benchmark and its acceptance gate never change; a function that none of
    # them calls by name is left to the public-name check above
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    calls = [
        call
        for tree in trees.values()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and _referenced_name(call.func) is not None
    ]
    unset = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for function, offset in _public_functions(tree):
            own = {id(inner) for inner in ast.walk(function)}
            mine = [
                c for c in calls if _referenced_name(c.func) == function.name and id(c) not in own
            ]
            if not mine:
                continue
            args = function.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults) :] + [
                a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
            ]
            passed = set().union(*(_passed(call, args, offset) for call in mine))
            unset += [
                f"{path.stem}.{function.name}({name})"
                for name in defaulted
                if not name.startswith("_") and name not in passed
            ]
    assert unset == []


def test_no_source_line_is_over_the_length_limit():
    long_lines = [
        f"{path.name}:{lineno}: {len(line)} characters"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_no_comparison_names_an_mrt_mode():
    # mrt's scheme table is the one place that says what an MRT mode does, so a
    # new mode is one entry there; checks against "mle" and default values stay
    mrt_modes = {mode for mode in docmrt.mrt.MODES if mode != "mle"}
    compared = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(const, ast.Constant) and const.value in mrt_modes
            for const in ast.walk(node)
        )
    ]
    assert compared == []


def test_no_class_defines_validate():
    # a settings dataclass checks itself in __post_init__, so no object can be
    # built, copied or replaced and then used unchecked
    defined = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "validate" for item in node.body)
    ]
    assert defined == []


def test_only_textcore_reads_entries():
    # aligned lines are held as columns; the (source, reference, doc_id) rows
    # are a read-out for callers outside the package, not a second representation
    readers = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "textcore.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert readers == []
