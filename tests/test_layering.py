"""Module layering and the command lines README shows.

The modules form one stack, numerics <- selfsim <- carnot <- verify <- cli:
each may import only modules below it, and only `selfsim` names the
curve's descent store `_descents`.  Every function of `verify` that
returns a Report is a campaign framed by `verify._campaign`, the one
place that reads the clock.  Every `lipgraph ...` line in
README's code blocks must parse with the real argument parser; the
commands are parsed, never run.  README's Python example is run, so a
changed API cannot leave it stale.
"""

import ast
import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

import pytest

from lipgraph import cli, verify

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


@pytest.mark.parametrize("module", LAYERS)
def test_only_selfsim_names_the_descent_store(module):
    # the store has one owner; a campaign empties it through Curve.forget()
    named = re.search(r"\b_descents\b", (PACKAGE / f"{module}.py").read_text())
    assert bool(named) == (module == "selfsim")


def test_every_campaign_passes_the_campaign_frame():
    # a function of verify that returns a Report is framed by _campaign, and only the frame reads the clock
    campaigns = [
        f for f in vars(verify).values() if inspect.isfunction(f) and f.__annotations__.get("return") == "Report"
    ]
    assert len(campaigns) >= 6
    framed = verify._campaign("c")(lambda: ({}, 0, [])).__code__
    unframed = [f.__name__ for f in campaigns if f.__code__ is not framed]
    assert unframed == []
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    (frame,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_campaign")
    inside = {id(node) for node in ast.walk(frame)}
    clocks = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "perf_counter"
        or isinstance(node, ast.Name) and node.id == "perf_counter"
        or isinstance(node, ast.alias) and node.name == "perf_counter"
    ]
    assert clocks and all(id(node) in inside for node in clocks)


def readme_blocks(lang="[a-z]*"):
    """Bodies of README's fenced code blocks tagged lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def readme_commands():
    """Argument lists of the `lipgraph ...` lines in README's fenced code blocks."""
    lines = [line.strip() for block in readme_blocks() for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lipgraph ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.func is not None, argv


def test_readme_python_example_runs():
    (block,) = readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().startswith("True {")
