"""Static checks over the package source."""

import ast
import pathlib

import ep_prover
from ep_prover import tptp

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


TERM_SLOTS = {"_skey", "fvs", "_canon", "tid"}


def term_slot_assignments(tree: ast.Module) -> list:
    """Assignments to an attribute named like a `Term` slot, with their
    line numbers.  Interned terms are shared, so only `terms` may set
    what they memoize."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Attribute) and n.attr in TERM_SLOTS \
                        and isinstance(n.ctx, ast.Store):
                    found.append((n.lineno, n.attr))
    return sorted(found)


def test_the_checker_sees_term_slot_assignments():
    tree = ast.parse("t.fvs = s\nu._canon, w = x, y\nv.tid += 1\n"
                     "k = t._skey\nt.skey = k\nn: int = t.tid\n"
                     "t._skey: str = ''\n[a.b.tid for a in c]\n")
    assert term_slot_assignments(tree) == [
        (1, "fvs"), (2, "_canon"), (3, "tid"), (7, "_skey")]


def test_only_terms_assigns_a_term_slot():
    found = {p.name: term_slot_assignments(ast.parse(p.read_text()))
             for p in SOURCES if p.name != "terms.py"}
    assert {k: v for k, v in found.items() if v} == {}
    terms_py = next(p for p in SOURCES if p.name == "terms.py")
    assert term_slot_assignments(ast.parse(terms_py.read_text()))


def names_in_use(tree: ast.Module) -> set:
    """Every name a module reads, imports or spells as an identifier
    string (`getattr` arguments, the spans of perfbench)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


def dead_functions(defining: dict, using: list) -> list:
    """(module, line, name) of each function or method defined in the
    trees of `defining` ({module name: tree}) whose name no tree in
    `using` uses.  Dunder methods are called by Python."""
    used = set().union(*map(names_in_use, using))
    found = []
    for module, tree in defining.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in used or (name.startswith("__")
                                and name.endswith("__")):
                continue
            found.append((module, node.lineno, name))
    return sorted(found)


def test_the_checker_sees_dead_functions():
    lib = ast.parse("class C:\n    def __init__(self):\n        pass\n"
                    "    def used(self):\n        return helper()\n"
                    "    def gone(self):\n        pass\n"
                    "def helper():\n    pass\n"
                    "def by_name():\n    pass\n"
                    "def _r_rule():\n    pass\n")
    user = ast.parse("from lib import C\nC().used()\n"
                     "getattr(lib, 'by_name')\n")
    assert dead_functions({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 6, "gone"), ("lib.py", 12, "_r_rule")]


def test_every_function_of_the_package_is_used():
    # used by the program or the benchmark: a function only tests call
    # is dead code with a test
    root = pathlib.Path(__file__).resolve().parents[1]
    using = [ast.parse(p.read_text()) for d in ("src", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    assert len(using) > len(SOURCES)
    defining = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert dead_functions(defining, using) == []


def test_the_benchmark_spans_find_every_name_they_patch(monkeypatch):
    # perfbench patches prover functions by name: a renamed one must fail
    # here, not only when the benchmark runs
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from spans import Tracer, prover_spans
    original = tptp.parse_problem
    tracer = Tracer()
    try:
        tracer.install(prover_spans())
        assert tptp.parse_problem is not original
    finally:
        tracer.uninstall()
    assert tptp.parse_problem is original


def unread_parameters(tree: ast.Module) -> list:
    """(line, dotted function name, parameter) of each parameter that its
    function's body never reads.  A method's `self` or `cls` is passed by
    Python and is not counted."""
    found = []
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                stack.append((child, prefix))
                continue
            name = prefix + child.name
            stack.append((child, name + "."))
            if isinstance(child, ast.ClassDef):
                continue
            args = child.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a]
            read = {n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            found.extend((child.lineno, name, a.arg) for a in params
                         if a.arg not in read
                         and a.arg not in ("self", "cls"))
    return sorted(found)


def test_the_checker_sees_unread_parameters():
    tree = ast.parse("def f(a, b=1, *rest, c, **kw):\n    return a + c\n"
                     "def g(x: int = 0):\n"
                     "    def inner(y):\n        return x\n"
                     "    return inner\n"
                     "class C:\n    def m(self, z):\n        pass\n"
                     "    @classmethod\n    def k(cls, w):\n"
                     "        return [w for _ in ()]\n")
    assert unread_parameters(tree) == [
        (1, "f", "b"), (1, "f", "kw"), (1, "f", "rest"),
        (4, "g.inner", "y"), (8, "C.m", "z")]


def test_no_function_of_the_package_has_an_unread_parameter():
    found = []
    for p in SOURCES:
        for line, name, param in unread_parameters(ast.parse(p.read_text())):
            # `saturate`'s `pre` is ignored, but the benchmark harness
            # still passes it (ROADMAP item 8 removes both)
            if (p.name, name, param) == ("saturation.py", "saturate", "pre"):
                continue
            found.append((p.name, line, name, param))
    assert found == []


def unread_attributes(tree: ast.Module, using=()) -> list:
    """(line, name) of each attribute that `tree` stores on `self` and
    that neither `tree` nor a tree of `using` reads, on any object.
    `self.x = v`, `self.x += v` and `self.x[k] = v` store `x`; any other
    load of an attribute `x` reads it."""
    stored, read = {}, set()
    for t in (tree, *using):
        into = {id(n.value) for n in ast.walk(t)
                if isinstance(n, ast.Subscript)
                and not isinstance(n.ctx, ast.Load)}
        for n in ast.walk(t):
            if not isinstance(n, ast.Attribute):
                continue
            if isinstance(n.ctx, ast.Load) and id(n) not in into:
                read.add(n.attr)
            elif t is tree and isinstance(n.value, ast.Name) \
                    and n.value.id == "self":
                stored.setdefault(n.attr, n.lineno)
    return sorted((line, name) for name, line in stored.items()
                  if name not in read)


def test_the_checker_sees_unread_attributes():
    lib = ast.parse("class C:\n    def __init__(self):\n"
                    "        self.kept = 0\n        self.gone = 1\n"
                    "        self.log = {}\n        self.count = 0\n"
                    "    def step(self, k):\n        self.log[k] = 1\n"
                    "        self.count += 1\n        return self.kept\n")
    user = ast.parse("c = C()\nprint(c.count)\n")
    assert unread_attributes(lib) == [(4, "gone"), (5, "log"), (6, "count")]
    assert unread_attributes(lib, [user]) == [(4, "gone"), (5, "log")]


def test_the_package_reads_every_attribute_it_stores():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    found = []
    for name, tree in trees.items():
        for line, attr in unread_attributes(tree, list(trees.values())):
            # perfbench and the tests read `UnifOutcome.exhausted`, and
            # the run report of ROADMAP item 3 is to print it
            if (name, attr) == ("unification.py", "exhausted"):
                continue
            found.append((name, line, attr))
    assert found == []
