"""Static check: every top-level function and method in the package is
referenced from some package module.

A definition counts as referenced when a package module uses its name as a
bare name or as an attribute. Exempt are dunder methods (Python calls them),
the names in ``__all__`` (the public surface) and the references in
``TEST_REFERENCES``, which the package keeps on purpose for the tests to
compare against. A scalar twin of a rule that only tests call would pass
those tests while the code a run executes went unchecked.
"""

import ast
from pathlib import Path

import dcpowersim

PACKAGE = Path(dcpowersim.__file__).parent

TEST_REFERENCES = {
    "service_window": "scalar reference that service_windows is compared against",
    "ScheduleTrace.usage_step": "exact occupancy oracle of the scheduler property tests",
    "revealed_capacity": "closed form checked by acceptance criterion 07",
    "CapacityTimeline.constant": "flat capacity timeline the scheduler tests build",
    "PowerTemplate.backoff_level": "backoff level of a selected template, read by tests",
}


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
    exempt = set(dcpowersim.__all__) | set(TEST_REFERENCES)
    assert unreferenced(sources, exempt) == []
