"""Static check: a stage reads what its scenario fixes from the scenario.

A package function that takes a ``scenario`` parameter may not also take a
value the ``Scenario`` fixes (its seed, root seed, horizon, verbosity scale
or speed class): every caller would pass both, and the two could disagree.
"""

import ast
from pathlib import Path

import dcpowersim

MODULES = sorted(Path(dcpowersim.__file__).parent.glob("*.py"))
SCENARIO_FACTS = {"root_seed", "seed", "horizon_days", "verbosity_scale", "speed_class"}


def restated_facts(source: str) -> list[str]:
    """Each function that takes ``scenario``, with the scenario facts it
    takes beside it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            facts = sorted(names & SCENARIO_FACTS)
            if "scenario" in names and facts:
                found.append(f"{node.name}({', '.join(facts)})")
    return found


def test_checker_flags_only_a_scenario_beside_a_fact():
    source = (
        "def a(bundle, scenario, fi):\n    pass\n"
        "def b(bundle, scenario, root_seed, fi):\n    pass\n"
        "def c(seed, horizon_days):\n    pass\n"
        "class K:\n"
        "    def m(self, scenario, *, speed_class=None, seed=0):\n        pass\n"
    )
    assert restated_facts(source) == ["b(root_seed)", "m(seed, speed_class)"]


def test_no_stage_takes_a_scenario_fact_beside_its_scenario():
    found = {p.name: restated_facts(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {module: funcs for module, funcs in found.items() if funcs} == {}
