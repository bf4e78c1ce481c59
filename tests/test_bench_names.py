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
    it must count the rows of the run's request log. Power synthesis for
    every job of the run is one timed call inside the run's span."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"total_gpus": 12, "horizon_days": 1}))
    out_json = tmp_path / "trace.json"
    proc = _run_with_bench_path([
        str(ROOT / "bench" / "tracer.py"), str(out_json), "--",
        "simulate", "--config", "default", "--seed", "1",
        "--scenario", str(scenario), "--out", str(tmp_path / "out"),
    ])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_json.read_text())
    counts, spans = doc["counts"], doc["spans"]
    assert counts["segment_runs"] == counts["completed_runs"] + counts["preemptions"]
    assert counts["backfills"] > 0
    assert counts["preemptions"] > 0
    requests_csv = (tmp_path / "out" / "requests.csv").read_bytes()
    assert counts["requests"] == requests_csv.count(b"\n") - 1
    synthesis = [span for span in spans if span[0] == "batch_power.job_power_trace"]
    assert len(synthesis) == 1
    _, start, end, parent = synthesis[0]
    assert end > start
    hybrid_name, hybrid_start, hybrid_end, _ = spans[parent]
    assert hybrid_name == "cosim.run_hybrid"
    assert hybrid_start <= start and end <= hybrid_end
