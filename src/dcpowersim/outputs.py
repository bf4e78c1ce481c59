"""CSV and manifest serialization for scenario runs.

Every file format here is fixed: column orders are part of the package
contract, floats are written with nine significant digits, and manifests
contain no timestamps, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cosim import HybridResult
from .scheduler import Job, ScheduleTrace

FLOAT_FMT = "%.9g"

SERIES_COLUMNS = ("minute", "p_total_kw", "p_batch_kw", "p_inf_kw", "g_inf", "g_batch")
ARRIVALS_COLUMNS = ("timestamp_s", "group")
REQUESTS_COLUMNS = ("timestamp_s", "group", "template", "tokens")
JOBS_COLUMNS = ("job_id", "arrival_s", "gpu", "runtime_s", "time_limit_s", "group")
TRACE_COLUMNS = ("segment_id", "job_id", "start_s", "end_s", "gpu", "completed")
BUSY_COLUMNS = ("minute", "busy_gpus")
JOB_POWER_COLUMNS = ("job_id", "minute_index", "power_kw")
DETAIL_COLUMNS = ("minute", "template", "conc", "conc_cap", "gpus", "power_kw", "unmet")
SWEEP_COLUMNS = (
    "scenario_id",
    "share_target",
    "share_realized",
    "utilization_target",
    "utilization_realized",
    "policy",
    "ckpt_s",
    "cov",
    "ramp1_med",
    "ramp5_med",
    "ramp15_med",
    "unmet_frac",
    "cov_batch",
    "cov_inf",
    "mean_p_total_kw",
    "w_batch_h",
    "w_inf_h",
    "error",
)


def fmt(value) -> str:
    """Render one cell: floats at nine significant digits, rest verbatim."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_rows(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def write_series_csv(path: Path | str, result: HybridResult) -> None:
    rows = zip(
        range(result.scenario.horizon_minutes),
        result.p_total_kw,
        result.p_batch_kw,
        result.p_inf_kw,
        result.g_inf,
        result.busy_batch,
    )
    write_rows(path, SERIES_COLUMNS, rows)


def read_series_csv(path: Path | str) -> dict[str, np.ndarray]:
    """Load a series file back into float arrays keyed by column name."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: list[list[float]] = [[] for _ in header]
        for row in reader:
            for i, cell in enumerate(row):
                columns[i].append(float(cell))
    return {name: np.asarray(col) for name, col in zip(header, columns)}


def write_arrivals_csv(path: Path | str, times: np.ndarray, groups: Sequence[str]) -> None:
    write_rows(path, ARRIVALS_COLUMNS, zip(times, groups))


def write_requests_csv(
    path: Path | str,
    times: np.ndarray,
    groups: Sequence[str],
    templates: Sequence[str],
    tokens: np.ndarray,
) -> None:
    write_rows(path, REQUESTS_COLUMNS, zip(times, groups, templates, tokens))


def write_jobs_csv(path: Path | str, jobs: Sequence[Job]) -> None:
    rows = (
        (j.job_id, j.arrival_s, j.gpu, j.runtime_s, j.time_limit_s, j.group)
        for j in jobs
    )
    write_rows(path, JOBS_COLUMNS, rows)


def write_trace_csv(path: Path | str, trace: ScheduleTrace) -> None:
    rows = (
        (r.seg_index, r.job_id, r.start_s, r.end_s, r.gpu, r.completed)
        for r in trace.runs
    )
    write_rows(path, TRACE_COLUMNS, rows)


def write_job_power_csv(
    path: Path | str, traces: Iterable[tuple[int, np.ndarray]]
) -> None:
    rows = (
        (job_id, minute, float(kw))
        for job_id, series in traces
        for minute, kw in enumerate(series)
    )
    write_rows(path, JOB_POWER_COLUMNS, rows)


def write_busy_csv(path: Path | str, busy: np.ndarray) -> None:
    write_rows(path, BUSY_COLUMNS, zip(range(len(busy)), busy))


def write_detail_csv(
    path: Path | str, result: HybridResult, template_ids: Sequence[str]
) -> None:
    """Per-minute, per-template serving detail in minute-major order."""
    s = result.serving
    n_minutes = result.scenario.horizon_minutes
    rows = zip(
        np.repeat(np.arange(n_minutes), len(template_ids)),
        list(template_ids) * n_minutes,
        *(m.T.ravel() for m in (s.conc, s.conc_cap, s.gpus, s.power_kw, s.unmet)),
    )
    write_rows(path, DETAIL_COLUMNS, rows)


def write_sweep_csv(path: Path | str, rows: Sequence[Sequence]) -> None:
    write_rows(path, SWEEP_COLUMNS, rows)


def file_sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path | str,
    config_hash: str,
    scenario_doc: dict,
    files: Sequence[str],
) -> None:
    """Write manifest.json describing a finished run, with no timestamps."""
    from . import __version__

    out_dir = Path(out_dir)
    manifest = {
        "package_version": __version__,
        "config_hash": config_hash,
        "scenario": scenario_doc,
        "files": {name: file_sha256(out_dir / name) for name in sorted(files)},
    }
    write_json(out_dir / "manifest.json", manifest)


def _json_safe(value):
    """``value`` with every float JSON cannot hold (inf, nan) as its string."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def write_json(path: Path | str, doc: dict) -> None:
    """Write ``doc`` as strict JSON, keys sorted and indented; an infinite
    float becomes the string ``"inf"``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
