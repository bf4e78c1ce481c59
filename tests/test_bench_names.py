"""The per-layer benchmark trace wraps package functions by name and counts
what the scheduler's trace holds; a refactor that removes or renames one, or
changes the trace's shape under the counters, must fail here, not in the
benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_with_bench_path(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python args...`` from the repository root with the package and
    the benchmark helpers importable."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tracer_installs_on_current_names():
    proc = _run_with_bench_path(["-c", "import tracer; tracer.install(tracer.Recorder())"])
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_a_simulate_run(tmp_path):
    """The scheduler counters read the trace's shape: every run either
    completed or was preempted, and this small run both preempts and
    backfills. The request counter reads the request parts' layout, so
    it must count the rows of the run's request log."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"total_gpus": 12, "horizon_days": 1}))
    out_json = tmp_path / "trace.json"
    proc = _run_with_bench_path([
        str(ROOT / "bench" / "tracer.py"), str(out_json), "--",
        "simulate", "--config", "default", "--seed", "1",
        "--scenario", str(scenario), "--out", str(tmp_path / "out"),
    ])
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(out_json.read_text())["counts"]
    assert counts["segment_runs"] == counts["completed_runs"] + counts["preemptions"]
    assert counts["backfills"] > 0
    assert counts["preemptions"] > 0
    requests_csv = (tmp_path / "out" / "requests.csv").read_bytes()
    assert counts["requests"] == requests_csv.count(b"\n") - 1
