"""Every CLI command run in a fresh interpreter, and what each one imports.

The package loads its modules on first use, so a name a command fails to
bind only shows in a new process: this pytest process has already imported
every module. Each command here runs through ``python -m dcpowersim`` and
must print and write exactly what an in-process ``main()`` run does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcpowersim
from dcpowersim.cli import main

from test_cosim import tiny_doc

SRC = Path(dcpowersim.__file__).resolve().parents[1]

# a module-set probe: runs the CLI as ``python -m dcpowersim`` does, then
# writes the sorted names of the loaded modules to the file named first
PROBE = """\
import json, runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("dcpowersim", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
with open(out, "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""
SIMULATOR = {
    f"dcpowersim.{m}"
    for m in ("cosim", "config", "defaults", "sweep", "batch_power", "seeds",
              "batch_arrivals", "inference_arrivals", "distributions", "scheduler",
              "serving")
}
PROCESS_POOL = "concurrent.futures.process"
# the hash modules, which only commands that load a bundle or write a manifest need
HASHING = {"hashlib", "_hashlib"}


def fresh(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a new interpreter with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def tree(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """The tiny bundle, a 1-day scenario, a two-point sweep and the series
    file one simulate run writes."""
    tmp = tmp_path_factory.mktemp("fresh_inputs")
    paths = {
        "cfg": tmp / "cfg.json",
        "scenario": tmp / "scenario.json",
        "sweep": tmp / "sweep.json",
        "no_total": tmp / "no_total.csv",
    }
    paths["cfg"].write_text(json.dumps(tiny_doc()))
    paths["scenario"].write_text(json.dumps({"total_gpus": 4, "horizon_days": 1}))
    paths["sweep"].write_text(json.dumps({
        "shares": [0.0, 0.5], "seeds": [3], "scenario": {"total_gpus": 4, "horizon_days": 1},
    }))
    paths["no_total"].write_text("minute,p_inf_kw\n0,1.5\n1,2.5\n")
    out = tmp / "sim"
    assert main(["simulate", "--config", str(paths["cfg"]), "--scenario",
                 str(paths["scenario"]), "--seed", "1", "--share", "0.5", "--out", str(out)]) == 0
    return {**{k: str(v) for k, v in paths.items()}, "series": str(out / "series.csv")}


COMMANDS = {
    "generate_batch": ["generate", "batch", "--config", "{cfg}", "--scenario", "{scenario}",
                       "--seed", "2"],
    "generate_inference": ["generate", "inference", "--config", "{cfg}",
                           "--scenario", "{scenario}", "--seed", "2"],
    "simulate": ["simulate", "--config", "{cfg}", "--scenario", "{scenario}", "--seed", "1",
                 "--share", "0.5", "--policy", "SWF"],
    "sweep": ["sweep", "--config", "{cfg}", "--scenario", "{sweep}", "--parallel", "1"],
    "metrics": ["metrics", "{series}", "--ramp-horizons", "1,5", "--daily-median"],
    "diagnose": ["diagnose", "{series}", "--delta-minutes", "60"],
    "metrics_missing_column": ["metrics", "{no_total}"],
}
WRITES_FILES = {"generate_batch", "generate_inference", "simulate", "sweep"}


def command(name: str, inputs: dict[str, str], out: Path) -> list[str]:
    argv = [arg.format(**inputs) for arg in COMMANDS[name]]
    return argv + ["--out", str(out)] if name in WRITES_FILES else argv


@pytest.mark.parametrize("name", COMMANDS)
def test_fresh_process_matches_in_process(name, inputs, tmp_path, capsys):
    code = main(command(name, inputs, tmp_path / "in_process"))
    expected = capsys.readouterr()
    proc = fresh(["-m", "dcpowersim", *command(name, inputs, tmp_path / "fresh")], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    if name in WRITES_FILES:
        assert code == 0
        assert tree(tmp_path / "fresh") == tree(tmp_path / "in_process")
    elif name == "metrics_missing_column":
        assert code == 1
        assert proc.stderr == (
            "configuration error:\n"
            f"{inputs['no_total']}: column 'p_total_kw' not in ['minute', 'p_inf_kw']\n"
        )
    else:
        assert code == 0 and proc.stdout


def loaded_modules(args: list[str], tmp_path: Path) -> set[str]:
    """The modules a fresh ``python -m dcpowersim args...`` has loaded when it ends."""
    out = tmp_path / "modules.json"
    proc = fresh(["-c", PROBE, str(out), *args], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text()))


def test_bare_import_loads_no_submodule(tmp_path):
    """``dir`` lists the exported names before any of them is loaded."""
    out = tmp_path / "state.json"
    code = (
        "import json, sys, dcpowersim\n"
        f"json.dump([sorted(sys.modules), dir(dcpowersim)], open({str(out)!r}, 'w'))\n"
    )
    proc = fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules, names = json.loads(out.read_text())
    assert [m for m in modules if m.startswith("dcpowersim.")] == []
    assert set(dcpowersim.__all__) | {"__version__"} <= set(names)


@pytest.mark.parametrize("name", ["metrics", "diagnose"])
def test_series_commands_load_no_simulator(name, inputs, tmp_path):
    modules = loaded_modules(command(name, inputs, tmp_path / "out"), tmp_path)
    assert "dcpowersim.metrics" in modules
    assert modules & SIMULATOR == set()
    assert PROCESS_POOL not in modules
    assert modules & HASHING == set()


@pytest.mark.parametrize("name", ["simulate", "sweep"])
def test_serial_runs_load_no_process_pool(name, inputs, tmp_path):
    modules = loaded_modules(command(name, inputs, tmp_path / "out"), tmp_path)
    assert "dcpowersim.cosim" in modules
    assert PROCESS_POOL not in modules
    assert HASHING <= modules


class TestTopLevelSurface:
    def test_each_name_is_its_submodule_object(self):
        for name in dcpowersim.__all__:
            value = getattr(dcpowersim, name)
            assert value.__module__.startswith("dcpowersim.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from dcpowersim import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(dcpowersim.__all__)

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(dcpowersim, "schedule")
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            getattr(dcpowersim, "not_a_name")


def test_probe_sees_process_pool_in_parallel_sweep(inputs, tmp_path):
    """The pool check can fail: a two-worker sweep does load the pool."""
    argv = command("sweep", inputs, tmp_path / "out")
    argv[argv.index("--parallel") + 1] = "2"
    assert PROCESS_POOL in loaded_modules(argv, tmp_path)
