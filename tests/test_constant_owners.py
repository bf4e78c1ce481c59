"""Static check: every module-level constant has one owner.

A constant is a module-level name written in capitals (``MINUTES_PER_DAY``,
``_SECTIONS``). No two package modules may assign the same one; a module that
needs another's constant imports it.
"""

import ast
import re
from pathlib import Path

import dcpowersim

MODULES = sorted(Path(dcpowersim.__file__).parent.glob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def assigned_constants(source: str) -> set[str]:
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id):
                    names.add(node.id)
    return names


def shared_constants(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each constant assigned in more than one module, with those modules."""
    owners: dict[str, list[str]] = {}
    for module, source in sorted(sources.items()):
        for name in assigned_constants(source):
            owners.setdefault(name, []).append(module)
    return {name: mods for name, mods in sorted(owners.items()) if len(mods) > 1}


def test_checker_flags_only_names_assigned_twice():
    sources = {
        "a.py": "X = 1\n_Y: int = 2\nlower = 3\nA, B = 4, 5\ndef f():\n    Z = 6\n",
        "b.py": "from a import _Y\nX = 7\nZ = 8\nlower = 9\nB += 1\nclass C:\n    A = 1\n",
    }
    assert shared_constants(sources) == {"B": ["a.py", "b.py"], "X": ["a.py", "b.py"]}


def test_each_constant_has_one_owner():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert shared_constants(sources) == {}
