"""Every name a module under src/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

import liouville_lab as ll

SOURCES = sorted(Path(ll.__file__).parent.glob("*.py"))


def _unused_imports(path):
    """The names path imports but never reads, leaving out ``__future__``
    imports and lines marked ``# noqa: F401``; a name listed in the
    module's ``__all__`` counts as read."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {lineno})"
                  for name, lineno in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\n"
                      "from os import path, sep  # noqa: F401\n"
                      "from .config import RunConfig, whole_steps\n"
                      "__all__ = ['RunConfig']\n"
                      "x: RunConfig = None\n")
    assert _unused_imports(module) == ["math (line 2)",
                                       "whole_steps (line 4)"]
