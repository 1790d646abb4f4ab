"""The README's examples against the code: its Python imports, its command lines
and the module-qualified names its prose and its removed-names table mention."""

import ast
import dataclasses
import importlib
import re
import shlex
from pathlib import Path

from docmrt import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [body for lang, body in FENCE.findall(text) if lang == language]


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(imported, name)


def test_readme_examples_match_the_code():
    # every python block compiles and each docmrt import in it resolves (the
    # blocks are not run); every `docmrt <subcommand>` line of a bash block parses
    python = _blocks("python")
    imports = []  # (module, name) of `from module import name`, name None for `import module`
    for body in python:
        compile(body, str(README), "exec")
        for node in ast.walk(ast.parse(body)):
            if isinstance(node, ast.Import):
                imports += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(node.module, alias.name) for alias in node.names]
    unresolved = [
        (module, name)
        for module, name in imports
        if module.split(".")[0] == "docmrt" and not _resolves(module, name)
    ]

    commands = [
        words[1:]
        for body in _blocks("bash")
        for line in body.replace("\\\n", " ").splitlines()
        if (words := shlex.split(line, comments=True))[:1] == ["docmrt"]
    ]
    parser = cli.build_parser()
    unparsed = []
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            unparsed.append(shlex.join(["docmrt", *words]))

    assert python and commands
    assert (unresolved, unparsed) == ([], [])


MODULES = ("cli", "harness", "metrics", "model", "mrt", "sampling", "textcore")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.\w+)+")


def _dotted_resolves(dotted: str) -> bool:
    # module.name... by attribute lookup from docmrt.<module>; Class.attr... from a
    # public class of any docmrt module; a dataclass field counts as an attribute
    head, *rest = dotted.split(".")
    if head in MODULES:
        owners = [importlib.import_module(f"docmrt.{head}")]
    else:
        modules = [importlib.import_module(f"docmrt.{m}") for m in MODULES]
        owners = [getattr(m, head) for m in modules if hasattr(m, head)]
    for owner in owners:
        obj = owner
        for name in rest:
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
                obj = None
            else:
                break
        else:
            return True
    return False


def test_readme_names_resolve_and_removed_names_do_not():
    text = README.read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index("| removed | use instead |")
    end = lines.index("", start)
    table = [re.split(r"(?<!\\)\|", row)[1] for row in lines[start + 2 : end]]
    prose = FENCE.sub("", "\n".join(lines[:start] + lines[end:]))
    mentioned = [
        span
        for span in re.findall(r"`([^`]+)`", prose)
        if DOTTED.fullmatch(span) and span.split(".")[0] in MODULES and not span.endswith(".py")
    ]
    removed = [span for cell in table for span in re.findall(r"`([^`]+)`", cell)]
    removed = [span for span in removed if DOTTED.fullmatch(span)]

    assert mentioned and removed
    assert [span for span in mentioned if not _dotted_resolves(span)] == []
    assert [span for span in removed if _dotted_resolves(span)] == []
