"""CSV and manifest serialization for scenario runs.

Every file format here is fixed: column orders are part of the package
contract, floats are written with nine significant digits, and manifests
contain no timestamps, so byte-identical reruns stay byte-identical.

Every CSV cell is exactly what ``fmt`` and csv.writer's quoting make of it.
A writer hands over its rows as blocks of columns: one block for most files,
and a block per run of minutes for the request log and the serving detail,
the two largest, so those never exist as whole-file columns. Each block is
rendered ``_CHUNK_ROWS`` rows at a time in numpy, into one workspace that
the whole file reuses: a ``uint8`` matrix with a row of byte slots per file
row, each cell's slots followed by one for its comma or the row's newline,
and a ``bool`` mask of the slots in use. Each column's kernel writes its
cells and their mask straight into its own span of the rows: numbers from
lookup tables of digit groups, labels from a table of their quoted names,
built once a file for each set of names. One ``np.compress`` of the masked
slots then gives the chunk's bytes. The separators are set again only when
the layout changes, as it does when a chunk's widest integer takes another
group of digits.

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


# rows rendered and written per chunk. The workspace (two bytes a slot,
# ~120 slots a row), a float column's temporaries and the index array
# np.compress builds (eight bytes a written byte) then take about 1.3 MiB
# together, whatever the file's length, so writing does not set a run's
# peak memory; more rows would, and fewer would pay numpy's per-call cost
# more often.
_CHUNK_ROWS = 2048

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
    point slot; ``digits`` (uint32), the four ASCII digits; ``low_sig`` and
    ``mid_sig``, the significant digits of a nine-digit significand whose
    last or middle four digits the group is (none for 0). ``lead`` (uint64,
    by digit) holds the first eight float slots, ``tens`` (uint64) is 10**k
    for k = 1..19, and row ``(sign * 13 + X + 4) * 10 + sig`` of
    ``float_used`` (by ``_FLOAT_SLOTS`` slots) the slots a float cell uses
    with decimal exponent X in -4..8 and sig significant digits (the same
    for 0 as for 1)."""
    i = np.arange(10000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    digits = (digits + ord("0")).astype(np.uint8)
    pointed = np.full((10000, 8), ord("."), np.uint8)
    pointed[:, ::2] = digits
    lead = np.frombuffer(b"".join(_FLOAT_SLOTS[:6] + b"%d." % d for d in range(10)), np.uint64)
    kept = 4 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0)

    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 9)[:, None, None]
    sig = np.maximum(np.arange(10), 1)[:, None]
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
        low_sig=np.where(i > 0, 5 + kept, 0),
        mid_sig=np.where(i > 0, 1 + kept, 0),
        lead=lead,
        tens=np.array([10**k for k in range(1, 20)], np.uint64),
        float_used=_slot_rows(float_used.reshape(-1, slot.size)),
    )


def _slot_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row of a slot matrix (``cells`` or ``used``, a column's slice of
    the workspace) as one item, so that a row is read or written at once."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


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


def _float_width(values: np.ndarray) -> int:
    return len(_FLOAT_SLOTS)


def _float_cells(values: np.ndarray, cells: np.ndarray, used: np.ndarray) -> None:
    """Write each float as ``FLOAT_FMT`` renders it into its row of
    ``cells``, one row of ``_FLOAT_SLOTS``, and the slots it uses into
    ``used`` (see the module docstring)."""
    t = _tables()
    v = values.astype(np.float64, copy=False)
    mag = np.abs(v)
    with np.errstate(divide="ignore"):
        x = np.floor(np.log10(mag))
    fixed = (x >= -4.0) & (x <= 8.0)
    x = np.where(fixed, x, 0.0).astype(np.intp)
    p = np.where(fixed, mag, 0.0) * _POW10.take(8 - x)
    q = np.rint(p)
    fixed &= (p >= 1e8) & (q < 1e9) & (np.abs(p - np.floor(p) - 0.5) > 1e-6)
    q = np.where(fixed, q, 0.0).astype(np.int64)

    # three words of slots: the sign, "0.000", the first digit and its
    # point; then digits two to five; then six to nine, each with its point
    upper = q // 10**4
    first = upper // 10**4
    mid = upper - first * 10**4
    low = q - upper * 10**4
    words = cells.view(np.uint64)
    words[:, 0] = t.lead.take(first)
    words[:, 1] = t.pointed.take(mid)
    words[:, 2] = t.pointed.take(low)
    # 0 for a significand d00000000 (and for a zero), whose row is that of 1
    sig = np.maximum(t.low_sig.take(low), t.mid_sig.take(mid))
    _slot_rows(used)[:] = t.float_used.take((np.signbit(v) * 13 + x + 4) * 10 + sig)

    rest_rows = np.flatnonzero(~fixed & (mag != 0.0))
    if rest_rows.size:
        texts = [FLOAT_FMT % value for value in v[rest_rows].tolist()]
        _put_text(cells, used, rest_rows, texts)


def _int_width(values: np.ndarray) -> int:
    """The slots of an integer cell of ``values``: a sign slot and three
    unused ones, then four digit slots per group of four digits of the
    widest magnitude."""
    top = max(int(values.max()), -int(values.min()))
    return 8 + 4 * sum(top >= 10**k for k in (4, 8, 12, 16))


@functools.cache
def _int_used(width: int) -> np.ndarray:
    """Row ``sign * (width - 4) + digits - 1`` holds the slots an integer
    cell of ``width`` slots uses with that sign and number of digits."""
    slot = np.arange(width)
    shown = np.arange(1, width - 3)[:, None]
    used = np.concatenate([slot >= width - shown, (slot >= width - shown) | (slot == 0)])
    return _slot_rows(used)


def _int_cells(values: np.ndarray, cells: np.ndarray, used: np.ndarray) -> None:
    """Write each integer (or bool, as 0 and 1) as ``fmt`` renders it into
    its row of ``cells``, laid out as ``_int_width`` says, and the slots it
    uses into ``used``. Magnitudes are taken as uint64, which holds that of
    -2**63 exactly."""
    t = _tables()
    v = values.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)
    width = cells.shape[1]
    words = cells.view(np.uint32)
    rest = mag
    for j in range(width // 4 - 1, 1, -1):
        upper = rest // 10000
        words[:, j] = t.digits.take(rest - upper * 10000)
        rest = upper
    words[:, 1] = t.digits.take(rest)
    cells[:, 0] = ord("-")
    shown = np.searchsorted(t.tens[: width - 5], mag, side="right")
    _slot_rows(used)[:] = _int_used(width).take((v < 0) * (width - 4) + shown)


def _label_kernel(names: tuple[str, ...]) -> tuple[Callable, Callable]:
    """The kernel that renders codes into ``names`` as the names' bytes,
    csv-quoted and UTF-8 encoded, from one table built here. A cell takes
    a power of two of slots, which numpy copies fastest."""
    quoted = [_quote(name).encode("utf-8") for name in names]
    width = 1 << (max([1, *map(len, quoted)]) - 1).bit_length()
    table = np.array(quoted, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    mask = np.arange(width) < np.array([len(q) for q in quoted], dtype=np.int64)[:, None]
    table, mask = _slot_rows(table), _slot_rows(mask)

    def fill(codes: np.ndarray, cells: np.ndarray, used: np.ndarray) -> None:
        _slot_rows(cells)[:] = table.take(codes)
        _slot_rows(used)[:] = mask.take(codes)

    return lambda codes: width, fill


# each kernel is a pair: the slots a cell of a chunk takes, and the
# function that renders the chunk into its cells and their mask
_NUMERIC_KERNELS = {
    "b": (_int_width, _int_cells),
    "i": (_int_width, _int_cells),
    "f": (_float_width, _float_cells),
}


def _renderer(
    column: Sequence, label_kernel=_label_kernel
) -> tuple[Callable, Callable, np.ndarray]:
    """A kernel for ``column``, as its width and fill functions, and the
    array whose chunks it renders: a numeric array itself, a LabelColumn's
    codes, or for any other column codes into the distinct ``fmt`` texts of
    its cells; ``label_kernel`` makes the kernel of a tuple of names."""
    if isinstance(column, LabelColumn):
        return *label_kernel(column.names), column.codes
    if isinstance(column, np.ndarray) and column.dtype.kind in _NUMERIC_KERNELS:
        return *_NUMERIC_KERNELS[column.dtype.kind], column
    index: dict[str, int] = {}
    codes = [index.setdefault(fmt(cell), len(index)) for cell in column]
    return *label_kernel(tuple(index)), np.array(codes, dtype=np.int64)


class _Workspace:
    """The byte slots of a chunk of rows and the mask of the slots its cells
    use, kept for a whole file. A row holds each cell's slots in column
    order, each followed by one separator slot: a comma, or the newline that
    ends the row. The buffers grow only when a chunk needs more than any
    chunk before it, and the separators are set only when the cell widths
    change or the chunk outgrows the rows laid out."""

    def __init__(self) -> None:
        self.slots = np.empty(0, np.uint8)
        self.mask = np.empty(0, bool)
        self.widths: tuple[int, ...] = ()
        self.spans: list[tuple[int, int]] = []
        self.rows = self.used = self.slots.reshape(0, 0)

    def lay_out(
        self, widths: tuple[int, ...], n: int
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """The slots and the mask of ``n`` rows whose cells take ``widths``
        slots, and the span of slots of each cell."""
        if widths != self.widths or n > len(self.rows):
            size = n * (sum(widths) + len(widths))
            if self.slots.size < size:
                self.slots = np.empty(size, np.uint8)
                self.mask = np.empty(size, bool)
            self.rows = self.slots[:size].reshape(n, -1)
            self.used = self.mask[:size].reshape(n, -1)
            ends = np.cumsum(np.add(widths, 1))
            self.rows[:, ends - 1] = ord(",")
            self.rows[:, -1] = ord("\n")
            self.used[:, ends - 1] = True
            self.widths = widths
            self.spans = [(end - 1 - width, end - 1) for end, width in zip(ends.tolist(), widths)]
        return self.rows[:n], self.used[:n], self.spans


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
    workspace = _Workspace()
    with open(path, "wb") as fh:
        fh.write((",".join(map(_quote, header)) + "\n").encode("utf-8"))
        for columns in blocks:
            renderers = [_renderer(column, label_kernel) for column in columns]
            n_rows = min((len(data) for *_, data in renderers), default=0)
            for start in range(0, n_rows, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, n_rows)
                chunks = [data[start:stop] for *_, data in renderers]
                widths = tuple(width(chunk) for (width, *_), chunk in zip(renderers, chunks))
                rows, used, spans = workspace.lay_out(widths, stop - start)
                for (_, fill, _), chunk, (lo, hi) in zip(renderers, chunks, spans):
                    fill(chunk, rows[:, lo:hi], used[:, lo:hi])
                fh.write(np.compress(used.ravel(), rows))


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
    # imported here: the commands that write no manifest load no OpenSSL
    import hashlib

    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
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
