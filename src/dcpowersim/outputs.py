"""CSV and manifest serialization for scenario runs.

Every file format here is fixed: column orders are part of the package
contract, floats are written with nine significant digits, and manifests
contain no timestamps, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cosim import HybridResult
from .metrics import RAMP_HORIZONS
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
    *(f"ramp{delta}_med" for delta in RAMP_HORIZONS),
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


# rows rendered and written per chunk, so memory stays flat as files grow
_CHUNK_ROWS = 2048

# how fmt renders a cell of each type, for columns of one type
_RENDER_BY_TYPE = {bool: ("0", "1").__getitem__, int: str, float: FLOAT_FMT.__mod__}


def _quote(text: str) -> str:
    """``text`` as csv.writer writes it as one field of a row of several
    (a row of one lone empty field would be written ``""`` instead)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _render(column: Sequence) -> Iterable[str]:
    """Each cell of ``column`` as it appears in the file, rendered by ``fmt``."""
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    types = set(map(type, cells))
    render = _RENDER_BY_TYPE.get(next(iter(types))) if len(types) == 1 else None
    if render is not None:
        return map(render, cells)
    # labels and mixed cells: each distinct text is quoted once
    texts = cells if types == {str} else [fmt(cell) for cell in cells]
    quoted = {text: _quote(text) for text in set(texts)}
    return map(quoted.__getitem__, texts)


def _write_columns(
    path: Path | str, header: Sequence[str], columns: Sequence[Sequence]
) -> None:
    """Write a CSV of equal-length ``columns`` (arrays, ranges or lists;
    none for a file with no rows).

    Cells come out as ``fmt`` and csv.writer would write them row by row;
    every file here has at least two columns, so an empty cell is empty.
    """
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [_render(col[start : start + _CHUNK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def write_series_csv(path: Path | str, result: HybridResult) -> None:
    columns = (
        range(result.scenario.horizon_minutes),
        result.p_total_kw,
        result.p_batch_kw,
        result.p_inf_kw,
        result.g_inf,
        result.busy_batch,
    )
    _write_columns(path, SERIES_COLUMNS, columns)


def read_series_csv(path: Path | str) -> dict[str, np.ndarray]:
    """Load a series file back into float arrays keyed by column name; a
    torn row or a non-finite cell raises ValueError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: list[list[float]] = [[] for _ in header]
        line_of_row = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"line {reader.line_num} has {len(row)} cells, the header {len(header)}"
                )
            for i, cell in enumerate(row):
                columns[i].append(float(cell))
            line_of_row.append(reader.line_num)
    series = {name: np.asarray(col) for name, col in zip(header, columns)}
    bad_rows = [i for col in series.values() for i in np.flatnonzero(~np.isfinite(col))[:1]]
    if bad_rows:
        raise ValueError(f"line {line_of_row[min(bad_rows)]} has a non-finite cell")
    return series


def write_arrivals_csv(path: Path | str, times: np.ndarray, groups: Sequence[str]) -> None:
    _write_columns(path, ARRIVALS_COLUMNS, (times, groups))


def write_requests_csv(
    path: Path | str,
    times: np.ndarray,
    groups: Sequence[str],
    templates: Sequence[str],
    tokens: np.ndarray,
) -> None:
    _write_columns(path, REQUESTS_COLUMNS, (times, groups, templates, tokens))


def _attributes(items: Sequence, names: Sequence[str]) -> list[list]:
    """One column per attribute name, holding that attribute of every item."""
    return [[getattr(item, name) for item in items] for name in names]


def write_jobs_csv(path: Path | str, jobs: Sequence[Job]) -> None:
    _write_columns(path, JOBS_COLUMNS, _attributes(jobs, JOBS_COLUMNS))


def write_trace_csv(path: Path | str, trace: ScheduleTrace) -> None:
    runs = trace.run_columns()
    # segment_id is the run's segment index within its job
    names = ["seg_index", *TRACE_COLUMNS[1:]]
    _write_columns(path, TRACE_COLUMNS, [runs[name] for name in names])


def write_job_power_csv(
    path: Path | str, job_ids: Sequence[int], power: np.ndarray, lengths: np.ndarray
) -> None:
    """One row per job minute; job ``job_ids[i]``'s ``lengths[i]`` values
    follow those of the jobs before it in ``power``."""
    starts = np.cumsum(lengths) - lengths
    columns = (
        np.repeat(job_ids, lengths),
        np.arange(len(power)) - np.repeat(starts, lengths),
        power,
    )
    _write_columns(path, JOB_POWER_COLUMNS, columns)


def write_busy_csv(path: Path | str, busy: np.ndarray) -> None:
    _write_columns(path, BUSY_COLUMNS, (range(len(busy)), busy))


def write_detail_csv(
    path: Path | str, result: HybridResult, template_ids: Sequence[str]
) -> None:
    """Per-minute, per-template serving detail in minute-major order."""
    s = result.serving
    n_minutes = result.scenario.horizon_minutes
    columns = (
        np.repeat(np.arange(n_minutes), len(template_ids)),
        list(template_ids) * n_minutes,
        *(getattr(s, name).T.ravel() for name in DETAIL_COLUMNS[2:]),
    )
    _write_columns(path, DETAIL_COLUMNS, columns)


def write_sweep_csv(path: Path | str, rows: Sequence[Sequence]) -> None:
    _write_columns(path, SWEEP_COLUMNS, list(zip(*rows)))


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
