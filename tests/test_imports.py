"""Import hygiene: every name an import binds is read somewhere in its module,
unless the import's line is marked ``noqa`` (a deliberate re-export); and every
module-level function or class of the package is named by the program's own
code, so none is kept for the tests alone."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/twistknots", "scripts", "tests")
               for path in (ROOT / folder).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/twistknots").rglob("*.py"))
PROGRAM = sorted(path for folder in ("src", "scripts", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def unread_imports(source: str) -> list[str]:
    """'line: name' for each name that an import of ``source`` binds and that
    no other node of the module reads; ``__future__`` imports, star imports
    and imports with ``noqa`` on one of their lines are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds a; "import a.b as c" and "from a import b as c" bind c
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                out.append(f"{node.lineno}: {name}")
    return out


def test_scan_finds_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as js\n"
              "from math import (\n    gcd,  # noqa: F401\n    lcm,\n)\n"
              "from fractions import Fraction\n"
              "def f(x: Fraction):\n    import re\n    return os.sep\n")
    assert unread_imports(source) == ["3: js", "10: re"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def definitions(source: str) -> list[str]:
    """The names of the module-level functions and classes of ``source``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def named(source: str) -> set[str]:
    """Every name that ``source`` reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_scan_finds_unnamed_definitions():
    # b is named by an import, A by a read and d as an attribute; c is only
    # defined, and e only assigned to
    source = ("import os\nfrom a import b as z\nclass A:\n    pass\ndef b():\n    return A\n"
              "def c(x=os.sep):\n    return x.d\ndef d():\n    pass\ndef e():\n    e = 1\n")
    assert [name for name in definitions(source) if name not in named(source)] == ["c", "e"]


@cache
def program_names() -> set[str]:
    """``named`` over every module of the program: the package, its scripts
    and its benchmark, but not its tests."""
    return set().union(*(named(path.read_text()) for path in PROGRAM))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_named_by_the_program(path):
    assert [name for name in definitions(path.read_text()) if name not in program_names()] == []
