"""Static checks: every top-level function and method in the package is
referenced from some package module, and every top-level function in
``tests/oracles.py`` from some module under ``tests/``.

A definition counts as referenced when a module of the same tree uses its
name as a bare name or as an attribute. In the package, dunder methods
(Python calls them) and the names in ``__all__`` (the public surface) are
exempt; nothing else is. A helper that only tests call belongs in
``tests/oracles.py``, where an oracle no test calls is flagged in turn.
"""

import ast
from pathlib import Path

import dcpowersim

PACKAGE = Path(dcpowersim.__file__).parent
TESTS = Path(__file__).parent


def definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level function and method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item.name


def unreferenced(sources: dict[str, str], exempt) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{module}: {qualname}"
        for module, tree in sorted(trees.items())
        for qualname, name in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and name not in exempt
        and qualname not in exempt
    ]


def test_checker_flags_only_unreferenced_definitions():
    sources = {
        "a.py": "def f():\n    g()\n\ndef g():\n    pass\n\ndef h():\n    pass\n",
        "b.py": (
            "class C:\n"
            "    def __init__(self):\n        self.m()\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        pass\n"
        ),
    }
    assert unreferenced(sources, exempt={"h"}) == ["a.py: f", "b.py: C.n"]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced(sources, exempt=set(dcpowersim.__all__)) == []


def test_every_oracle_is_used_by_a_test():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")}
    # test modules define tests and fixtures that pytest, not code, calls
    oracles = [
        entry
        for entry in unreferenced(sources, exempt=set())
        if entry.startswith("oracles.py: ")
    ]
    assert oracles == []
