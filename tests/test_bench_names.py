"""The per-layer benchmark trace wraps package functions by name and counts
what the scheduler's trace holds; a refactor that removes or renames one, or
changes the trace's shape under the counters, must fail here, not in the
benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from dcpowersim.cli import main
from dcpowersim.sweep import expand_grid

from oracles import scenario_requests

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
    it must count the rows of the request log that ``generate inference``
    writes for the same scenario. Power synthesis for every job of the run
    is one timed call inside the run's span. ``serving.s`` adds up every
    serving span's full duration, so no serving span may open inside
    another."""
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
    assert main(["generate", "inference", "--config", "default", "--seed", "1",
                 "--scenario", str(scenario), "--out", str(tmp_path / "log")]) == 0
    requests_csv = (tmp_path / "log" / "requests.csv").read_bytes()
    assert counts["requests"] == requests_csv.count(b"\n") - 1
    synthesis = [span for span in spans if span[0] == "batch_power.job_power_trace"]
    assert len(synthesis) == 1
    _, start, end, parent = synthesis[0]
    assert end > start
    hybrid_name, hybrid_start, hybrid_end, _ = spans[parent]
    assert hybrid_name == "cosim.run_hybrid"
    assert hybrid_start <= start and end <= hybrid_end
    serving = [i for i, span in enumerate(spans) if span[0].startswith("serving.")]
    assert {spans[i][0] for i in serving} >= {"serving.service_windows", "serving.concurrency"}
    for index in serving:
        parent = spans[index][3]
        while parent >= 0:
            assert not spans[parent][0].startswith("serving."), spans[index][0]
            parent = spans[parent][3]


def _write_series(path: Path, minutes: int) -> None:
    """A series file with a daily cycle in both power columns."""
    lines = ["minute,p_total_kw,p_batch_kw,p_inf_kw,g_inf,g_batch"]
    for m in range(minutes):
        inf = 10.0 + 3.0 * ((m * 7) % 1440) / 1440.0 + (m % 11) * 0.1
        batch = 20.0 - 2.0 * ((m * 5) % 1440) / 1440.0 + (m % 13) * 0.05
        lines.append(f"{m},{inf + batch:.6f},{batch:.6f},{inf:.6f},2,3")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_tracer_spans_series_commands(tmp_path):
    """metrics and diagnose import no simulator, yet the tracer wraps the
    read and metric calls they make, and tracing leaves their output as is."""
    series = tmp_path / "series.csv"
    _write_series(series, 2 * 1440)
    commands = {
        "metrics": ["metrics", str(series), "--ramp-horizons", "1,15"],
        "diagnose": ["diagnose", str(series), "--delta-minutes", "60"],
    }
    expected = {
        "metrics": ["metrics.cov", "metrics.ramp_rate", "metrics.ramp_rate"],
        "diagnose": ["metrics.transmission_diagnostic"],
    }
    for name, argv in commands.items():
        out_json = tmp_path / f"{name}.json"
        tracer = [str(ROOT / "bench" / "tracer.py"), str(out_json), "--"]
        traced = _run_with_bench_path([*tracer, *argv])
        plain = _run_with_bench_path(["-m", "dcpowersim", *argv])
        assert traced.returncode == plain.returncode == 0, traced.stderr + plain.stderr
        assert traced.stdout == plain.stdout
        spans = [span[0] for span in json.loads(out_json.read_text())["spans"]]
        assert spans == [f"cli.{name}", "outputs.read_series_csv", *expected[name]]


def test_tracer_counts_a_sweep_and_leaves_its_outputs(tmp_path, bundle):
    """A sweep streams each point's requests from inside run_hybrid. The
    request counter must still count every request the points draw, and
    tracing must leave every output file as it is."""
    sweep_doc = {"scenario": {"total_gpus": 12, "horizon_days": 1}, "shares": [0.5, 1.0]}
    sweep_json = tmp_path / "sweep.json"
    sweep_json.write_text(json.dumps(sweep_doc))
    argv = ["sweep", "--config", "default", "--seed", "1", "--scenario", str(sweep_json)]
    out_json = tmp_path / "trace.json"
    traced = _run_with_bench_path([
        str(ROOT / "bench" / "tracer.py"), str(out_json), "--",
        *argv, "--out", str(tmp_path / "traced"),
    ])
    plain = _run_with_bench_path(["-m", "dcpowersim", *argv, "--out", str(tmp_path / "plain")])
    assert traced.returncode == plain.returncode == 0, traced.stderr + plain.stderr
    assert traced.stdout == plain.stdout

    points = expand_grid({**sweep_doc, "seeds": [1]}, dict(bundle.scenario_defaults))
    drawn = sum(p.times.size for s in points for p in scenario_requests(bundle, s))
    assert drawn > 0
    assert json.loads(out_json.read_text())["counts"]["requests"] == drawn

    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "traced").iterdir()) == names
    for name in names:
        traced_bytes = (tmp_path / "traced" / name).read_bytes()
        assert traced_bytes == (tmp_path / "plain" / name).read_bytes(), name
