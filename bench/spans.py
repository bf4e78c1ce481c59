"""Spans recorded by the traced run and the per-layer metrics built from them.

A span is one timed call at a layer boundary: a name, a start and end on the
shared monotonic clock, and the index of the span that was open when it
began (-1 for a root). Layers are named after the package module that owns
the wrapped function.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SERVING_CALLS = (
    "service_windows",
    "concurrency",
    "allocate_budgets",
    "cap_concurrency",
    "gpu_use",
    "inference_power",
)
METRIC_CALLS = ("cov", "ramp_rate", "transmission_diagnostic")
OTHER_WRITERS = ("write_busy_csv", "write_trace_csv", "write_jobs_csv", "write_sweep_csv")
CSV_WRITERS = ("write_requests_csv", "write_detail_csv", "write_series_csv") + OTHER_WRITERS

# (layer, metric, unit) in the order the per-layer table prints them
LAYER_METRICS = (
    ("config", "config.load_bundle.s", "s"),
    ("inference_arrivals", "inference_arrivals.generate_requests.s", "s"),
    ("inference_arrivals", "inference_arrivals.requests", "count"),
    ("cosim", "cosim.flatten_requests.s", "s"),
    ("cosim", "cosim.run_hybrid.s", "s"),
    ("cosim", "cosim.run_hybrid.self_s", "s"),
    ("cosim", "cosim.run_hybrid.calls", "count"),
    ("serving", "serving.s", "s"),
    ("serving", "serving.served_frac", "frac"),
    ("batch_arrivals", "batch_arrivals.generate_jobs.s", "s"),
    ("batch_arrivals", "batch_arrivals.jobs", "count"),
    ("scheduler", "scheduler.schedule.s", "s"),
    ("scheduler", "scheduler.busy_minutes.s", "s"),
    ("scheduler", "scheduler.segment_runs", "count"),
    ("scheduler", "scheduler.preemptions", "count"),
    ("scheduler", "scheduler.backfills", "count"),
    ("scheduler", "scheduler.completed_run_frac", "frac"),
    ("scheduler", "scheduler.queue_delay_p50_s", "sim_s"),
    ("scheduler", "scheduler.queue_delay_p95_s", "sim_s"),
    ("scheduler", "scheduler.us_per_event", "us"),
    ("batch_power", "batch_power.job_power_trace.s", "s"),
    ("batch_power", "batch_power.jobs_synthesized", "count"),
    ("batch_power", "batch_power.accumulate.s", "s"),
    ("batch_power", "batch_power.accumulate.calls", "count"),
    ("metrics", "metrics.s", "s"),
    ("outputs", "outputs.write_requests_csv.s", "s"),
    ("outputs", "outputs.write_detail_csv.s", "s"),
    ("outputs", "outputs.write_series_csv.s", "s"),
    ("outputs", "outputs.write_other.s", "s"),
    ("outputs", "outputs.write_manifest.s", "s"),
    ("outputs", "outputs.read_series_csv.s", "s"),
    ("outputs", "outputs.rows", "count"),
    ("outputs", "outputs.bytes", "count"),
    ("outputs", "outputs.mb_per_s", "MB/s"),
    ("sweep", "sweep.run_sweep.s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        for lo, hi in clipped:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(
    spans: list[Span], counts: dict[str, float], queue_delays: list[int]
) -> dict[str, float]:
    """Every metric of LAYER_METRICS for one iteration of a workload.

    ``counts`` holds the tracer's counters summed over the iteration's
    commands; ``queue_delays`` pools the first-start delays of every
    scheduled job in simulated seconds.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
    offered = counts.get("inf_offered_h", 0.0)
    runs = counts.get("segment_runs", 0)
    events = counts.get("sched_events", 0)
    csv_s = sum(total[f"outputs.{w}"] for w in CSV_WRITERS)
    delays = np.asarray(queue_delays, dtype=float)
    return {
        "config.load_bundle.s": total["config.load_bundle"],
        "inference_arrivals.generate_requests.s": total["inference_arrivals.generate_requests"],
        "inference_arrivals.requests": counts.get("requests", 0),
        "cosim.flatten_requests.s": total["cosim.flatten_requests"],
        "cosim.run_hybrid.s": total["cosim.run_hybrid"],
        "cosim.run_hybrid.self_s": own["cosim.run_hybrid"],
        "cosim.run_hybrid.calls": calls["cosim.run_hybrid"],
        "serving.s": sum(total[f"serving.{c}"] for c in SERVING_CALLS),
        "serving.served_frac": (
            1.0 - counts.get("inf_unmet_h", 0.0) / offered if offered > 0.0 else 1.0
        ),
        "batch_arrivals.generate_jobs.s": total["batch_arrivals.generate_jobs"],
        "batch_arrivals.jobs": counts.get("jobs", 0),
        "scheduler.schedule.s": total["scheduler.schedule"],
        "scheduler.busy_minutes.s": total["scheduler.busy_minutes"],
        "scheduler.segment_runs": runs,
        "scheduler.preemptions": counts.get("preemptions", 0),
        "scheduler.backfills": counts.get("backfills", 0),
        "scheduler.completed_run_frac": (
            counts.get("completed_runs", 0) / runs if runs else 1.0
        ),
        "scheduler.queue_delay_p50_s": float(np.percentile(delays, 50)) if delays.size else 0.0,
        "scheduler.queue_delay_p95_s": float(np.percentile(delays, 95)) if delays.size else 0.0,
        "scheduler.us_per_event": (
            total["scheduler.schedule"] / events * 1e6 if events else 0.0
        ),
        "batch_power.job_power_trace.s": total["batch_power.job_power_trace"],
        "batch_power.jobs_synthesized": calls["batch_power.job_power_trace"],
        "batch_power.accumulate.s": total["batch_power.accumulate"],
        "batch_power.accumulate.calls": calls["batch_power.accumulate"],
        "metrics.s": sum(total[f"metrics.{c}"] for c in METRIC_CALLS),
        "outputs.write_requests_csv.s": total["outputs.write_requests_csv"],
        "outputs.write_detail_csv.s": total["outputs.write_detail_csv"],
        "outputs.write_series_csv.s": total["outputs.write_series_csv"],
        "outputs.write_other.s": sum(total[f"outputs.{w}"] for w in OTHER_WRITERS),
        "outputs.write_manifest.s": total["outputs.write_manifest"],
        "outputs.read_series_csv.s": total["outputs.read_series_csv"],
        "outputs.rows": counts.get("rows", 0),
        "outputs.bytes": counts.get("bytes", 0),
        "outputs.mb_per_s": counts.get("bytes", 0) / 1e6 / csv_s if csv_s > 0.0 else 0.0,
        "sweep.run_sweep.s": total["sweep.run_sweep"],
    }
