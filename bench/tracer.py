"""Run one dcpowersim CLI command with a span around each layer call.

    python3 bench/tracer.py OUT.json -- simulate --config default ...

Wrappers are installed at the names the callers look up (``cli.*``,
``sweep.*``, ``cosim.*`` and ``ScheduleTrace.busy_minutes``), so the package
source is unchanged. Spans and counters stay in memory and are written to
OUT.json when the command returns. Times come from ``time.perf_counter``,
which is the system-wide monotonic clock on Linux, so the parent can place
these spans inside its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from dcpowersim import cli, cosim, sweep
from dcpowersim.scheduler import ScheduleTrace
from spans import CSV_WRITERS, METRIC_CALLS, SERVING_CALLS


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.queue_delays: list[int] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version; ``count`` runs after
        the span closes, so its cost lands in the parent span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self, result, args)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "queue_delays": self.queue_delays,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _count_requests(rec: Recorder, parts, _args) -> None:
    rec.counts["requests"] += sum(times.size for times, *_ in parts)


def _count_jobs(rec: Recorder, result, _args) -> None:
    rec.counts["jobs"] += len(result[0])


def _count_hybrid(rec: Recorder, result, _args) -> None:
    rec.counts["inf_offered_h"] += result.w_inf_offered_h
    rec.counts["inf_unmet_h"] += result.unmet_work_h


def _count_written(rec: Recorder, _result, args) -> None:
    data = Path(args[0]).read_bytes()
    rec.counts["rows"] += data.count(b"\n") - 1
    rec.counts["bytes"] += len(data)


def _count_schedule(rec: Recorder, trace, args) -> None:
    jobs, capacity = args[0], args[1]
    rec.counts["segment_runs"] += len(trace.runs)
    rec.counts["completed_runs"] += sum(r.completed for r in trace.runs)
    rec.counts["preemptions"] += len(trace.preemptions)
    rec.counts["backfills"] += len(trace.backfills)
    # arrivals + capacity changes + runs: the events the engine handles
    rec.counts["sched_events"] += (
        len(jobs) - len(trace.rejected_job_ids) + len(capacity.times) - 1 + len(trace.runs)
    )
    rec.queue_delays.extend(trace.queue_delays.values())


def install(rec: Recorder) -> None:
    for owner in (cli, sweep):
        rec.wrap(owner, "load_bundle", "config.load_bundle")
        rec.wrap(owner, "run_hybrid", "cosim.run_hybrid", _count_hybrid)
        rec.wrap(owner, "write_series_csv", "outputs.write_series_csv", _count_written)
    for name in METRIC_CALLS:
        # summarize (shared by simulate and sweep) calls cov and ramp_rate
        # through the sweep module; cmd_metrics and cmd_diagnose use cli's
        for owner in (cli, sweep):
            if hasattr(owner, name):
                rec.wrap(owner, name, f"metrics.{name}")
    for writer in CSV_WRITERS:
        if writer != "write_series_csv":
            rec.wrap(cli, writer, f"outputs.{writer}", _count_written)
    rec.wrap(cli, "write_manifest", "outputs.write_manifest")
    rec.wrap(cli, "read_series_csv", "outputs.read_series_csv")
    rec.wrap(cli, "run_sweep", "sweep.run_sweep")
    rec.wrap(cosim, "generate_requests", "inference_arrivals.generate_requests", _count_requests)
    rec.wrap(cosim, "flatten_requests", "cosim.flatten_requests")
    for name in SERVING_CALLS:
        rec.wrap(cosim, name, f"serving.{name}")
    rec.wrap(cosim, "generate_jobs", "batch_arrivals.generate_jobs", _count_jobs)
    rec.wrap(cosim, "schedule", "scheduler.schedule", _count_schedule)
    rec.wrap(ScheduleTrace, "busy_minutes", "scheduler.busy_minutes")
    rec.wrap(cosim, "job_power_trace", "batch_power.job_power_trace")
    rec.wrap(cosim, "accumulate_intervals", "batch_power.accumulate")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <dcpowersim arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    rec = Recorder()
    install(rec)
    try:
        return rec.call(f"cli.{cli_args[0]}", cli.main, (cli_args,), {})
    finally:
        rec.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
