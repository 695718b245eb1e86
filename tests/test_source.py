"""Static checks over the package source."""

import ast
import pathlib

import ep_prover

SOURCES = sorted(pathlib.Path(ep_prover.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never uses, with their line numbers."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_checker_sees_unused_and_used_imports():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from typing import Optional, Union\n"
                     "def f(x: Optional[int]):\n    return os.path.sep\n")
    assert unused_imports(tree) == [(3, "regex"), (4, "Union")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 10
    found = {p.name: unused_imports(ast.parse(p.read_text()))
             for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}
