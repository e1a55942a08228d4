"""Every import in the package and its tests is used: a name bound by an
import statement must be read somewhere in its file, or be listed in the
module's __all__, or carry `# noqa: F401` on its line.  Standard library
only (ast), so it runs wherever the tests do.  And importing the command
line loads no module that no proof run needs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/hyperproof/*.py")) + sorted(
    ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in \
                    lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_the_scan_finds_unused_imports_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import re as regex\n"
              "from math import (\n"
              "    gcd,\n"
              "    lcm,  # noqa: F401\n"
              ")\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "print(regex)\n")
    assert unused_imports(source) == [(2, "os"), (2, "os"), (5, "gcd")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_command_line_stays_light():
    # dataclasses, which imports inspect, and typing cost every command-line
    # run start-up time that no proof needs (README, "Start-up"); a fresh
    # interpreter without site packages imports hyperproof.cli from src
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import hyperproof.cli\n"
            "print(*(m for m in ('dataclasses', 'inspect', 'typing')\n"
            "        if m in sys.modules))\n")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
