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


def recursive_closures(tree: ast.Module) -> list:
    """Functions defined inside a function whose body refers to their own
    name, with their line numbers and dotted names.  Such a function is a
    reference cycle (it holds a cell that holds it), which only Python's
    cyclic collector can free."""
    found = []
    stack = [(tree, "", False)]
    while stack:
        node, prefix, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                stack.append((child, prefix, in_function))
                continue
            name = prefix + child.name
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                    isinstance(n, ast.Name) and n.id == child.name
                    for stmt in child.body for n in ast.walk(stmt)):
                found.append((child.lineno, name))
            stack.append((child, name + ".", in_function or is_function))
    return sorted(found)


def test_the_checker_sees_recursive_closures():
    tree = ast.parse("def f(n):\n"
                     "    def go(k):\n        return k and go(k - 1)\n"
                     "    def add(k):\n        return k + n\n"
                     "    return go(n) + add(n)\n"
                     "def top(k):\n    return k and top(k - 1)\n"
                     "class C:\n    def m(self):\n"
                     "        def walk(x):\n"
                     "            return [walk(y) for y in x]\n"
                     "        return walk\n")
    assert recursive_closures(tree) == [(2, "f.go"), (11, "C.m.walk")]


def test_no_module_defines_a_recursive_closure():
    found = {p.name: recursive_closures(ast.parse(p.read_text()))
             for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}
