"""CSV and manifest serialization for scenario runs.

Every file format here is fixed: column orders are part of the package
contract, floats are written with nine significant digits, and manifests
contain no timestamps, so byte-identical reruns stay byte-identical.

Every CSV cell is exactly what ``fmt`` and csv.writer's quoting make of it.
A writer hands over its rows as blocks of columns: one block for most files,
and a block per run of minutes for the request log and the serving detail,
the two largest, so those never exist as whole-file columns. Each block is
rendered ``_CHUNK_ROWS`` rows at a time in numpy: each numeric column becomes
a ``uint8`` matrix with one row of byte slots per cell and a mask of the
slots the cell uses, label columns come from a table of their quoted names,
built once a file for each set of names, and one ``np.compress`` of the
chunk's masked slots gives its bytes.

A float takes this route only when its digits are provably those of
``'%.9g' %``. With ``X = floor(log10|v|)`` and ``p = |v| * 10**(8 - X)`` in
float64, where the power of ten is exact and so ``p`` is within 2**-24 of
the exact product, the cell is taken when ``-4 <= X <= 8``, ``p >= 1e8``,
``round(p) < 1e9`` and ``p``'s fraction is more than 1e-6 from one half;
then ``round(p)`` is the nine-digit significand ``'%.9g'`` rounds to.
Checking ``p`` rather than ``log10`` means a wrong ``X`` can only send a cell
to the fallback. Zeros are written directly. Every other float (exponent
form, a near-tie, a carry into the next decade, inf and nan) goes through
``'%.9g' %`` itself.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .metrics import RAMP_HORIZONS

if TYPE_CHECKING:  # annotations only: reading a series file needs no simulator
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
    """Render one cell: floats at nine significant digits, None empty, rest verbatim."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


class LabelColumn:
    """A column of text labels held as small integer codes: row i reads
    ``names[codes[i]]``. The writers render the codes through a table of
    the names, so no label text is built per row. (A plain class: a
    dataclass would cost the package import a code generation.)"""

    __slots__ = ("codes", "names")

    def __init__(self, codes: np.ndarray, names: tuple[str, ...]) -> None:
        self.codes = codes
        self.names = names


# rows rendered and written per chunk, so memory stays flat as files grow
_CHUNK_ROWS = 8192

# 10**k for k = 0..12, each exactly a double
_POW10 = np.array([float(10**k) for k in range(13)])
# the byte slots of a float cell: its sign, the "0.000" that starts a
# number below one, then nine digits, each with a decimal-point slot after
# it; a cell uses the slots its text needs
_FLOAT_SLOTS = b"-0.000" + b"0." * 9


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables of the numeric kernels, built on first use so that
    importing the package builds none. Indexed by a group of four decimal
    digits (0..9999): ``pointed`` (uint64), the digits each followed by a
    point slot; ``digits`` (uint32), the four ASCII digits; ``kept``, how
    many digits stay once trailing zeros go, and ``shown``, once leading
    zeros go (none of 0). ``lead`` (uint64, by digit) holds the first eight
    float slots, and row ``(sign * 13 + X + 4) * 10 + sig`` of
    ``float_used`` the slots a float cell uses with decimal exponent X in
    -4..8 and sig significant digits (none for 0)."""
    i = np.arange(10000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    digits = (digits + ord("0")).astype(np.uint8)
    pointed = np.full((10000, 8), ord("."), np.uint8)
    pointed[:, ::2] = digits
    lead = np.frombuffer(b"".join(_FLOAT_SLOTS[:6] + b"%d." % d for d in range(10)), np.uint64)

    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 9)[:, None, None]
    sig = np.arange(10)[:, None]
    slot = np.arange(len(_FLOAT_SLOTS))
    k = (slot - 6) // 2  # digit k sits in slot 6 + 2k, its point in 7 + 2k
    float_used = (
        ((slot == 0) & (neg == 1))
        | ((slot >= 1) & (slot <= 2) & (x < 0))
        | ((slot >= 3) & (slot <= 5) & (x <= 1 - slot))
        | ((slot >= 6) & (slot % 2 == 0) & (k < np.maximum(sig, x + 1)))
        | ((slot >= 6) & (slot % 2 == 1) & (k == x) & (sig > x + 1))
    )
    return SimpleNamespace(
        pointed=pointed.view(np.uint64).ravel(),
        digits=digits.view(np.uint32).ravel(),
        kept=4 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0) - (i == 0),
        shown=np.searchsorted([1, 10, 100, 1000], i, side="right"),
        lead=lead,
        float_used=float_used.reshape(-1, slot.size),
    )


def _quote(text: str) -> str:
    """``text`` as csv.writer writes it as one field of a row of several
    (a row of one lone empty field would be written ``""`` instead)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _put_text(cells: np.ndarray, used: np.ndarray, rows: np.ndarray, texts: list[str]) -> None:
    """Write each ASCII text over its row of a cell matrix, from the first slot."""
    width = cells.shape[1]
    cells[rows] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    used[rows] = np.arange(width) < np.array([len(t) for t in texts])[:, None]


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float as ``FLOAT_FMT`` renders it: one row of ``_FLOAT_SLOTS``
    per cell and the mask of the slots it uses (see the module docstring)."""
    t = _tables()
    v = values.astype(np.float64, copy=False)
    mag = np.abs(v)
    with np.errstate(divide="ignore"):
        x = np.floor(np.log10(mag))
    fixed = (x >= -4.0) & (x <= 8.0)
    x = np.where(fixed, x, 0.0).astype(np.intp)
    p = np.where(fixed, mag, 0.0) * _POW10[8 - x]
    q = np.rint(p)
    fixed &= (p >= 1e8) & (q < 1e9) & (np.abs(p - np.floor(p) - 0.5) > 1e-6)
    q = np.where(fixed, q, 0.0).astype(np.int64)

    # three words of slots: the sign, "0.000", the first digit and its
    # point; then digits two to five; then six to nine, each with its point
    first, rest = np.divmod(q, 10**8)
    mid, low = np.divmod(rest, 10**4)
    words = np.empty((len(v), 3), np.uint64)
    words[:, 0] = t.lead.take(first)
    words[:, 1] = t.pointed.take(mid)
    words[:, 2] = t.pointed.take(low)
    sig = np.where(low > 0, 5 + t.kept.take(low), np.where(mid > 0, 1 + t.kept.take(mid), first > 0))
    used = np.take(t.float_used, (np.signbit(v) * 13 + x + 4) * 10 + sig, axis=0)
    cells = words.view(np.uint8)

    rest_rows = np.flatnonzero(~fixed & (mag != 0.0))
    if rest_rows.size:
        texts = [FLOAT_FMT % value for value in v[rest_rows].tolist()]
        _put_text(cells, used, rest_rows, texts)
    return cells, used


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each integer (or bool, as 0 and 1) as ``fmt`` renders it: a sign slot
    and three unused ones, then four digit slots per group of four digits of
    the widest magnitude. Magnitudes are taken as uint64, which holds that of
    -2**63 exactly."""
    t = _tables()
    v = values.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)
    top = int(mag.max())
    groups = 1 + sum(top >= 10**k for k in (4, 8, 12, 16))
    words = np.zeros((len(v), 1 + groups), np.uint32)
    n_digits = np.ones(len(v), np.intp)
    for j in range(groups, 0, -1):
        mag, group = np.divmod(mag, 10000)
        words[:, j] = t.digits.take(group)
        n_digits = np.where(group > 0, 4 * (groups - j) + t.shown.take(group), n_digits)
    slot = np.arange(4 * words.shape[1])
    end = 4 + 4 * groups
    digit_used = (slot >= end - np.arange(end - 3)[:, None]) & (slot < end)
    table = np.concatenate([digit_used, digit_used | (slot == 0)])
    used = np.take(table, (v < 0) * (end - 3) + n_digits, axis=0)
    cells = words.view(np.uint8)
    cells[:, 0] = ord("-")
    return cells, used


def _label_kernel(names: tuple[str, ...]) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The kernel that renders codes into ``names`` as the names' bytes,
    csv-quoted and UTF-8 encoded, from one table built here."""
    quoted = [_quote(name).encode("utf-8") for name in names]
    width = max([1, *map(len, quoted)])
    table = np.array(quoted, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    used = np.arange(width) < np.array([len(q) for q in quoted], dtype=np.int64)[:, None]
    return lambda codes: (np.take(table, codes, axis=0), np.take(used, codes, axis=0))


_NUMERIC_KERNELS = {"b": _int_cells, "i": _int_cells, "f": _float_cells}


def _renderer(column: Sequence, label_kernel=_label_kernel) -> tuple[Callable, np.ndarray]:
    """A kernel for ``column`` and the array whose chunks it renders: a
    numeric array itself, a LabelColumn's codes, or for any other column
    codes into the distinct ``fmt`` texts of its cells; ``label_kernel``
    makes the kernel of a tuple of names."""
    if isinstance(column, LabelColumn):
        return label_kernel(column.names), column.codes
    if isinstance(column, np.ndarray) and column.dtype.kind in _NUMERIC_KERNELS:
        return _NUMERIC_KERNELS[column.dtype.kind], column
    index: dict[str, int] = {}
    codes = [index.setdefault(fmt(cell), len(index)) for cell in column]
    return label_kernel(tuple(index)), np.array(codes, dtype=np.int64)


def _write_columns(
    path: Path | str, header: Sequence[str], blocks: Iterable[Sequence[Sequence]]
) -> None:
    """Write a CSV of the rows of ``blocks``, block after block; a block is
    a sequence of equal-length columns (numeric arrays, LabelColumns or any
    other sequence of cells; none for a block with no rows).

    Cells come out as ``fmt`` and csv.writer would write them row by row;
    every file here has at least two columns, so a None or "" cell is empty.
    """
    # one table for each set of names in this file, however many blocks use it
    label_kernel = functools.cache(_label_kernel)
    with open(path, "wb") as fh:
        fh.write((",".join(map(_quote, header)) + "\n").encode("utf-8"))
        for columns in blocks:
            renderers = [_renderer(column, label_kernel) for column in columns]
            n_rows = min((len(data) for _, data in renderers), default=0)
            for start in range(0, n_rows, _CHUNK_ROWS):
                rows = slice(start, min(start + _CHUNK_ROWS, n_rows))
                n = rows.stop - rows.start
                pieces, masks = [], []
                for kernel, data in renderers:
                    cells, used = kernel(data[rows])
                    pieces += (cells, np.full((n, 1), ord(","), np.uint8))
                    masks += (used, np.ones((n, 1), bool))
                pieces[-1][:] = ord("\n")
                cells = np.concatenate(pieces, axis=1)
                fh.write(np.compress(np.concatenate(masks, axis=1).ravel(), cells).tobytes())


def write_series_csv(path: Path | str, result: HybridResult) -> None:
    columns = (
        np.arange(result.scenario.horizon_minutes),
        result.p_total_kw,
        result.p_batch_kw,
        result.p_inf_kw,
        result.g_inf,
        result.busy_batch,
    )
    _write_columns(path, SERIES_COLUMNS, [columns])


def read_series_csv(path: Path | str) -> dict[str, np.ndarray]:
    """Load a series file back into float arrays keyed by column name; a
    missing header, or a torn or blank row or a cell that is not a finite
    number (each named by its line), raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("no header row")
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last row
    for number, line in enumerate(lines, start=2):
        cells = line.count(",") + 1 if line else 0
        if cells != len(header):
            raise ValueError(f"line {number} has {cells} cells, the header {len(header)}")
    if not lines:
        return {name: np.empty(0) for name in header}
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # name the first line the parser rejects
        for number, line in enumerate(lines, start=2):
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                raise ValueError(f"line {number} has a cell that is not a number") from None
        raise
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"line {bad_rows[0] + 2} has a non-finite cell")
    return dict(zip(header, np.ascontiguousarray(values.T)))


def write_arrivals_csv(path: Path | str, times: np.ndarray, groups: Sequence[str]) -> None:
    _write_columns(path, ARRIVALS_COLUMNS, [(times, groups)])


def write_requests_csv(path: Path | str, blocks: Iterable[Sequence[Sequence]]) -> None:
    """The request log from its blocks of (times, groups, templates,
    tokens) columns, as ``cosim.flatten_requests`` yields them."""
    _write_columns(path, REQUESTS_COLUMNS, blocks)


def write_jobs_csv(path: Path | str, jobs: Sequence[Job]) -> None:
    # every column but the last, group, holds integers
    *ints, groups = ([getattr(job, name) for job in jobs] for name in JOBS_COLUMNS)
    _write_columns(path, JOBS_COLUMNS, [[*(np.array(c, np.int64) for c in ints), groups]])


def write_trace_csv(path: Path | str, trace: ScheduleTrace) -> None:
    runs = trace.run_columns()
    # segment_id is the run's segment index within its job
    names = ["seg_index", *TRACE_COLUMNS[1:]]
    _write_columns(path, TRACE_COLUMNS, [[runs[name] for name in names]])


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
    _write_columns(path, JOB_POWER_COLUMNS, [columns])


def write_busy_csv(path: Path | str, busy: np.ndarray) -> None:
    _write_columns(path, BUSY_COLUMNS, [(np.arange(len(busy)), busy)])


def write_detail_csv(
    path: Path | str, result: HybridResult, template_ids: Sequence[str]
) -> None:
    """Per-minute, per-template serving detail in minute-major order, built
    a block of at most ``_CHUNK_ROWS`` rows (one minute at the least) at a
    time."""
    names = tuple(template_ids)
    n_minutes = result.scenario.horizon_minutes
    step = max(1, _CHUNK_ROWS // len(names))
    matrices = [getattr(result.serving, name) for name in DETAIL_COLUMNS[2:]]

    def blocks():
        for lo in range(0, n_minutes, step):
            hi = min(lo + step, n_minutes)
            yield (
                np.repeat(np.arange(lo, hi), len(names)),
                LabelColumn(np.tile(np.arange(len(names)), hi - lo), names),
                *(m[:, lo:hi].T.ravel() for m in matrices),
            )

    _write_columns(path, DETAIL_COLUMNS, blocks())


def write_sweep_csv(path: Path | str, rows: Sequence[Sequence]) -> None:
    _write_columns(path, SWEEP_COLUMNS, [list(zip(*rows))])


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
