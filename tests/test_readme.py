"""The README's examples against the code: its Python imports and its command lines."""

import ast
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
