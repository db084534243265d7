"""Import hygiene: every name an import binds is read somewhere in its module,
unless the import's line is marked ``noqa`` (a deliberate re-export)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/twistknots", "scripts", "tests")
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
