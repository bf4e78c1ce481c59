#!/usr/bin/env python3
"""Layered benchmark for the dcpowersim command line.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 55 --trace 0

Run it from the repository root; the package is imported from ./src. Each
workload is a closed loop with one client: its CLI commands run one after
another, each in a fresh interpreter, and the next iteration starts once the
previous one has exited and its outputs have been checked. With --trace 0
the run reports the end-to-end metrics, each time scaled to a nominal host
speed by a reference kernel timed next to it; with --trace 1 it alternates
untraced and traced iterations and reports the per-layer metrics. The last
line of standard output is one JSON object; the lines above it are the same
numbers as a table. ``--workload all`` runs every workload in turn.
bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (
    check_cov,
    check_manifest,
    check_series,
    digests,
    read_sweep,
    sha256,
)
from spans import LAYER_METRICS, Span, layer_metrics, valid_metric_name

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
GOLDEN_PATH = BENCH_DIR / "golden.json"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.py"

UTILIZATION = 0.75
QUICKSTART_SHARE = 0.5
DETERMINISM_SHARES = (0.0, 0.5, 1.0)
# Rounds of set-up and reference samples taken before the first iteration;
# one more round is taken before every iteration.
WARMUP_ROUNDS = 4
# The shared host's speed drifts by up to 1.5x, within a run and over minutes,
# and every timing drifts with it. Each end-to-end time is therefore
# multiplied by REFERENCE_S / (time of the reference kernel run next to it;
# see reference.py). The constant is the kernel's typical time on the 2-CPU
# machine the README figures come from; it only fixes the scale.
REFERENCE_S = 0.40
SETUP_CODE = (
    "from dcpowersim import load_bundle\n"
    "from dcpowersim.defaults import default_bundle_doc\n"
    "load_bundle(default_bundle_doc())\n"
)

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
# Zero by construction on some workload (sweeps write no request or detail
# file and read no series back; quickstart runs no sweep). They are printed
# in the table but left out of the result line, which holds only metrics
# that are measured on every workload.
TABLE_ONLY = frozenset(
    {
        "outputs.write_requests_csv.s",
        "outputs.write_detail_csv.s",
        "outputs.read_series_csv.s",
        "sweep.run_sweep.s",
    }
)
PER_LAYER = tuple(
    (name, unit) for _layer, name, unit in LAYER_METRICS if name not in TABLE_ONLY
) + (("trace_overhead_frac", "frac"),)


@dataclass(frozen=True)
class Workload:
    name: str
    total_gpus: int
    horizon_days: int
    # None runs the README quick start: simulate, then metrics and diagnose
    shares: tuple[float, ...] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart", 48, 7, None),
        Workload("long_horizon", 48, 56, (0.0, 0.5)),
        Workload("large_cluster", 768, 7, (0.5,)),
    )
}


@dataclass
class Command:
    label: str
    rc: int
    start: float
    end: float
    maxrss_kb: int
    stdout: Path
    stderr: Path


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    duration_s: float
    ops: dict[str, list[str]]
    digests: dict[str, str]
    layers: dict[str, float]  # empty unless traced
    spans: list[Span]


class Runner:
    """Launches CLI commands against the package in ``src``."""

    def __init__(self, src: Path) -> None:
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))

    def launch(self, label: str, argv: list[str], io_dir: Path, trace: Path | None = None) -> Command:
        if trace is None:
            cmd = [sys.executable, "-m", "dcpowersim", *argv]
        else:
            cmd = [sys.executable, str(TRACER), str(trace), "--", *argv]
        out_path, err_path = io_dir / f"{label}.stdout", io_dir / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss starts from this process's own high-water mark, which the
        # child inherits at fork: keep this process smaller than its children
        return Command(label, proc.returncode, start, end, usage.ru_maxrss, out_path, err_path)

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter that imports the package and
        loads the default bundle."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=self.env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    def reference_seconds(self) -> float:
        """Time of one pass of the reference kernel, timed inside a fresh
        interpreter so that the interpreter's start is left out."""
        done = subprocess.run(
            [sys.executable, str(REFERENCE)], env=self.env, check=True,
            stdout=subprocess.PIPE, text=True,
        )
        return float(done.stdout)


def sweep_doc(shares, seed: int, total_gpus: int, horizon_days: int) -> dict:
    return {
        "shares": list(shares),
        "utilizations": [UTILIZATION],
        "seeds": [seed],
        "scenario": {"total_gpus": total_gpus, "horizon_days": horizon_days},
    }


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def plan(wl: Workload, seed: int, run_dir: Path, io_dir: Path) -> list[tuple[str, list[str]]]:
    """The workload's commands as (label, CLI arguments), in launch order."""
    if wl.shares is None:
        scenario = write_json(
            io_dir / "scenario.json",
            {
                "total_gpus": wl.total_gpus,
                "horizon_days": wl.horizon_days,
                "share_target": QUICKSTART_SHARE,
                "utilization_target": UTILIZATION,
            },
        )
        series = str(run_dir / "series.csv")
        return [
            ("simulate", ["simulate", "--config", "default", "--scenario", str(scenario),
                          "--seed", str(seed), "--out", str(run_dir)]),
            ("metrics", ["metrics", series]),
            ("diagnose", ["diagnose", series]),
        ]
    doc = write_json(
        io_dir / "sweep.json", sweep_doc(wl.shares, seed, wl.total_gpus, wl.horizon_days)
    )
    return [("sweep", ["sweep", "--config", "default", "--scenario", str(doc),
                       "--out", str(run_dir), "--parallel", "1"])]


def exit_problems(cmd: Command) -> list[str]:
    if cmd.rc == 0:
        return []
    tail = cmd.stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
    return [f"{cmd.label} exited with {cmd.rc}: {' '.join(tail)}"]


def check_outputs(wl: Workload, run_dir: Path, cmds: list[Command]) -> dict[str, list[str]]:
    """Problems per operation: each command, and each sweep scenario."""
    ops = {c.label: exit_problems(c) for c in cmds}
    if wl.shares is None:
        ops["simulate"] += check_manifest(run_dir)
        ops["simulate"] += check_series(run_dir / "series.csv", wl.horizon_days, wl.total_gpus)
        if cmds[1].rc == 0:
            ops["metrics"] += check_cov(cmds[1].stdout.read_text(), run_dir / "metrics.json")
        if cmds[2].rc == 0 and "slope=" not in cmds[2].stdout.read_text():
            ops["diagnose"].append("diagnose printed no slope")
        return ops
    ops["sweep"] += check_manifest(run_dir)
    sweep_csv = run_dir / "sweep.csv"
    rows = read_sweep(sweep_csv) if sweep_csv.is_file() else []
    for share in wl.shares:
        label = f"share_{share:g}"
        match = [r for r in rows if float(r["share_target"]) == share]
        if len(match) != 1:
            ops[label] = [f"sweep.csv has {len(match)} rows for share {share:g}"]
            continue
        row = match[0]
        ops[label] = [f"{row['scenario_id']}: error {row['error']}"] if row["error"] else []
        ops[label] += check_series(
            run_dir / f"series_{row['scenario_id']}.csv", wl.horizon_days, wl.total_gpus
        )
    return ops


def load_trace(cmds: list[Command], io_dir: Path) -> tuple[list[Span], dict, list[int]]:
    """Merge the tracer files of one iteration under one span per command."""
    spans: list[Span] = []
    counts: dict[str, float] = {}
    delays: list[int] = []
    for cmd in cmds:
        root = len(spans)
        spans.append(Span(f"command.{cmd.label}", cmd.start, cmd.end, -1))
        path = io_dir / f"{cmd.label}.trace.json"
        if not path.is_file():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        for name, start, end, parent in doc["spans"]:
            spans.append(Span(name, start, end, root if parent < 0 else root + 1 + parent))
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        delays.extend(doc["queue_delays"])
    return spans, counts, delays


def run_iteration(runner: Runner, wl: Workload, seed: int, work: Path, traced: bool) -> Iteration:
    began = time.perf_counter()
    run_dir, io_dir = work / "run", work / "io"
    for path in (run_dir, io_dir):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    steps = plan(wl, seed, run_dir, io_dir)
    cmds = [
        runner.launch(label, argv, io_dir, io_dir / f"{label}.trace.json" if traced else None)
        for label, argv in steps
    ]
    ops = check_outputs(wl, run_dir, cmds)
    outputs = digests(run_dir)
    outputs.update({f"{c.label}.stdout": sha256(c.stdout) for c in cmds})
    spans, layers = [], {}
    if traced:
        spans, counts, delays = load_trace(cmds, io_dir)
        layers = layer_metrics(spans, counts, delays)
    return Iteration(
        traced=traced,
        wall_s=cmds[-1].end - cmds[0].start,
        peak_rss_mb=max(c.maxrss_kb for c in cmds) / 1024.0,
        duration_s=time.perf_counter() - began,
        ops=ops,
        digests=outputs,
        layers=layers,
        spans=spans,
    )


def determinism(runner: Runner, seed: int, work: Path) -> list[str]:
    """A 7-day three-share sweep must give the same bytes serially and with
    --parallel (no wider than the CPUs this process may use)."""
    width = min(2, len(os.sched_getaffinity(0)))
    base = work / "determinism"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    doc = write_json(base / "sweep.json", sweep_doc(DETERMINISM_SHARES, seed, 48, 7))
    problems = []
    outputs = []
    for label, parallel in (("serial", 1), ("parallel", width)):
        out = base / label
        cmd = runner.launch(label, ["sweep", "--config", "default", "--scenario", str(doc),
                                    "--out", str(out), "--parallel", str(parallel)], base)
        problems += exit_problems(cmd)
        outputs.append(digests(out))
    if outputs[0] != outputs[1]:
        differ = sorted(k for k in outputs[0].keys() | outputs[1].keys()
                        if outputs[0].get(k) != outputs[1].get(k))
        problems.append(f"serial and --parallel {width} sweeps differ in {differ}")
    return problems


def load_golden() -> dict:
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {}


def golden_status(wl: Workload, seed: int, iterations: list[Iteration]) -> str:
    want = load_golden().get(wl.name, {}).get(str(seed))
    if want is None:
        return f"no golden digests recorded for seed {seed}"
    bad = sorted(
        {k for it in iterations for k in want.keys() | it.digests.keys()
         if want.get(k) != it.digests.get(k)}
    )
    if bad:
        return f"DIFFERENT from the golden digests in {bad}"
    return f"byte-identical to the golden digests ({len(want)} files)"


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter (a plain mean below four values)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4g} .. {q3:.4g}"


def run_workload(runner: Runner, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``, print its table and return the
    result object for the JSON line."""
    work = WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner.setup_seconds()  # untimed: writes the bytecode cache on a fresh checkout
    runner.reference_seconds()  # untimed, like the set-up sample above
    t0 = time.perf_counter()
    deadline = t0 + seconds
    # (set-up time, reference time) per round; before[i] is the reference
    # time of the round just before iteration i
    rounds: list[tuple[float, float]] = []
    before: list[float] = []

    def sample_host() -> float:
        rounds.append((runner.setup_seconds(), runner.reference_seconds()))
        return rounds[-1][1]

    if not trace:
        for _ in range(WARMUP_ROUNDS):
            sample_host()
    iterations: list[Iteration] = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        if not trace:
            before.append(sample_host())
        iterations.append(run_iteration(runner, wl, seed, work, traced))
        # stop when the next iteration would more likely end after the
        # deadline than before it
        typical = statistics.mean(it.duration_s for it in iterations)
        enough = not trace or len(iterations) >= 2
        if enough and time.perf_counter() + typical / 2 > deadline:
            break
    ops = [problems for it in iterations for problems in it.ops.values()]
    if wl.shares is None:
        ops.append(determinism(runner, seed, work))
    failed = [p for p in ops if p]
    for problem in (p for problems in failed for p in problems):
        print(f"FAILED: {problem}", file=sys.stderr)

    print(f"workload {wl.name}, seed {seed}, {seconds:g} s, trace {int(trace)}: "
          f"{len(iterations)} iterations, closed loop with 1 client")
    if trace:
        reported = report_layers(iterations)
        write_spans(work / "spans.csv", [it for it in iterations if it.traced], t0)
        print(f"  spans: {work / 'spans.csv'}")
    else:
        reported = report_end_to_end(iterations, before, rounds)
        write_json(work / "samples.json", {
            "wall_s": [it.wall_s for it in iterations],
            "reference_before_s": before,
            "rounds_setup_reference_s": rounds,
        })
        print(f"  samples: {work / 'samples.json'}")
    print(f"  {'failed_frac':<12} {len(failed) / len(ops):>12.6g} {'frac':<5} "
          f"{len(failed)} of {len(ops)} operations failed")
    print(f"  golden: {golden_status(wl, seed, iterations)}")
    if wl.shares is None:
        print(f"  determinism: {'FAILED' if ops[-1] else 'serial and parallel sweeps byte-identical'}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
    }


def report_end_to_end(iterations: list[Iteration], before: list[float],
                      rounds: list[tuple[float, float]]) -> dict:
    walls = [it.wall_s for it in iterations]
    setup = [s for s, _ in rounds]
    reference = [r for _, r in rounds]
    # With 5-11 iterations a run, the interquartile mean of the scaled samples
    # varies less from run to run than their median does, and still ignores
    # the odd stalled sample.
    metrics = {
        "wall_s": interquartile_mean([w * REFERENCE_S / r for w, r in zip(walls, before)]),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
        "setup_s": interquartile_mean([s * REFERENCE_S / r for s, r in rounds]),
    }
    notes = {
        "wall_s": f"scaled interquartile mean of {len(walls)} iterations; measured "
                  f"median {statistics.median(walls):.4g} s, {quartiles(walls)}",
        "peak_rss_mb": "largest child peak RSS, median over iterations",
        "setup_s": f"scaled interquartile mean of {len(setup)} fresh interpreters; "
                   f"measured median {statistics.median(setup):.4g} s, {quartiles(setup)}",
    }
    print(f"  host speed: reference kernel {statistics.median(reference):.4g} s "
          f"(median of {len(reference)}, {quartiles(reference)}) against "
          f"{REFERENCE_S:g} s nominal")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>12.6g} {unit:<5} {notes[name]}")
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def report_layers(iterations: list[Iteration]) -> dict:
    traced = [it for it in iterations if it.traced]
    plain_wall = statistics.median(it.wall_s for it in iterations if not it.traced)
    print(f"  per-layer metrics, median of {len(traced)} traced iterations")
    metrics = {}
    for layer, name, unit in LAYER_METRICS + (("-", "trace_overhead_frac", "frac"),):
        if name == "trace_overhead_frac":
            value = statistics.median(it.wall_s for it in traced) / plain_wall - 1.0
        else:
            value = statistics.median(it.layers[name] for it in traced)
        metrics[name] = value
        note = "  (table only)" if name in TABLE_ONLY else ""
        print(f"  {layer:<19} {name:<40} {value:>14.6g} {unit}{note}")
    return {name: (metrics[name], unit) for name, unit in PER_LAYER}


def write_spans(path: Path, iterations: list[Iteration], t0: float) -> None:
    """One row per span; trace_id numbers the traced iteration."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
        for trace_id, it in enumerate(iterations):
            for span_id, s in enumerate(it.spans):
                fh.write(f"{trace_id},{span_id},{s.parent},{s.name},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f}\n")


def record_golden(runner: Runner, wl: Workload, seed: int) -> int:
    work = WORK_DIR / wl.name
    it = run_iteration(runner, wl, seed, work, traced=False)
    failed = {op: p for op, p in it.ops.items() if p}
    if failed:
        print(f"not recording: {failed}", file=sys.stderr)
        return 1
    golden = load_golden()
    golden.setdefault(wl.name, {})[str(seed)] = it.digests
    write_json(GOLDEN_PATH, golden)
    print(f"recorded {len(it.digests)} digests for {wl.name} seed {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the output digests of one iteration in golden.json")
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so the command it is waiting on is
    # killed and reaped (Runner.launch, subprocess.run) before it exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "dcpowersim" / "__init__.py").is_file():
        print(f"bench: no package at {src / 'dcpowersim'}; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(src)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_golden:
        return max(record_golden(runner, WORKLOADS[n], args.seed) for n in names)

    results = {n: run_workload(runner, WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    bad = [name for name in metrics if not valid_metric_name(name)]
    if bad:
        raise ValueError(f"invalid metric names {bad}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
