"""Every name a module under src/ imports is used in that module, and
every private top-level name under src/ is read by some module there."""

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


def _unread_private_names(paths):
    """The private top-level names (one leading underscore) that the
    modules at paths define and that none of them reads, as a name, an
    attribute or an import."""
    defined = {}
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}: {name} (line {node.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for name, where in defined.items()
                  if name not in read)


def test_every_private_name_is_read():
    assert _unread_private_names(SOURCES) == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("_TABLE = (1, 2)\n"
                     "_SHARED = 3\n"
                     "def _helper():\n"
                     "    return _TABLE\n"
                     "def _unused():\n"
                     "    pass\n"
                     "__all__ = []\n")
    second.write_text("from .first import _SHARED\n"
                      "_LEFT: int = _SHARED\n")
    assert _unread_private_names([first, second]) == [
        "first.py: _helper (line 3)", "first.py: _unused (line 5)",
        "second.py: _LEFT (line 2)"]
