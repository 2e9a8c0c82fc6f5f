"""Module layering and the command lines README shows.

The modules form one stack, numerics <- selfsim <- carnot <- verify <- cli:
each may import only modules below it.  Every `lipgraph ...` line in
README's code blocks must parse with the real argument parser; the
commands are parsed, never run.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lipgraph import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lipgraph"
LAYERS = ("numerics", "selfsim", "carnot", "verify", "cli")


def imported_modules(path):
    """Names of the lipgraph modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            elif node.module and node.module.startswith("lipgraph."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("lipgraph."))
    return names


def test_every_module_is_in_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS) | {"__init__"}
    assert imported_modules(PACKAGE / "__init__.py") == set()


@pytest.mark.parametrize("module", LAYERS)
def test_no_module_imports_a_layer_above_it(module):
    imported = imported_modules(PACKAGE / f"{module}.py")
    assert imported <= set(LAYERS)
    above = {name for name in imported if LAYERS.index(name) >= LAYERS.index(module)}
    assert above == set(), f"{module} imports {sorted(above)}"


def readme_commands():
    """Argument lists of the `lipgraph ...` lines in README's fenced code blocks."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lipgraph ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.func is not None, argv
