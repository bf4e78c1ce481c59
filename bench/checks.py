"""Output checks and digests for the files a benchmark workload leaves behind.

Each check returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

MINUTES_PER_DAY = 1440
# series files hold %.9g-rounded floats, so a GPU count read back may exceed
# its exact value by a few parts in 1e9
GPU_TOLERANCE = 1e-6


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        path.relative_to(root).as_posix(): sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def check_manifest(out_dir: Path) -> list[str]:
    """Every file the manifest lists exists and has the recorded SHA-256."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return [f"{path}: missing"]
    files = json.loads(path.read_text(encoding="utf-8")).get("files", {})
    if not files:
        return [f"{path}: lists no files"]
    problems = []
    for name, recorded in sorted(files.items()):
        target = out_dir / name
        if not target.is_file():
            problems.append(f"{target}: listed in the manifest but missing")
        elif sha256(target) != recorded:
            problems.append(f"{target}: SHA-256 differs from the manifest")
    return problems


def check_series(path: Path, horizon_days: int, total_gpus: int) -> list[str]:
    """horizon x 1440 rows, and g_inf + g_batch <= total_gpus every minute."""
    if not path.is_file():
        return [f"{path}: missing"]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if "g_inf" not in header or "g_batch" not in header:
        return [f"{path}: no g_inf/g_batch columns in {header}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    want = horizon_days * MINUTES_PER_DAY
    if table.shape[0] != want:
        problems.append(f"{path}: {table.shape[0]} rows, expected {want}")
    used = table[:, header.index("g_inf")] + table[:, header.index("g_batch")]
    over = int(np.count_nonzero(used > total_gpus + GPU_TOLERANCE))
    if over:
        problems.append(
            f"{path}: {over} minutes use more than {total_gpus} GPUs "
            f"(max {used.max():.9g})"
        )
    return problems


def read_sweep(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_cov(metrics_stdout: str, metrics_json: Path) -> list[str]:
    """The cov printed by ``metrics`` equals the one in metrics.json.

    ``metrics`` recomputes cov from the %.9g-rounded series file, so the
    two may differ by one unit in the ninth significant digit.
    """
    printed = dict(
        line.split("=", 1) for line in metrics_stdout.splitlines() if "=" in line
    )
    if "cov" not in printed:
        return ["metrics printed no cov"]
    if not metrics_json.is_file():
        return [f"{metrics_json}: missing"]
    stored = json.loads(metrics_json.read_text(encoding="utf-8")).get("cov")
    if stored is None:
        return [f"{metrics_json}: no cov"]
    if not math.isclose(float(printed["cov"]), stored, rel_tol=2e-8):
        return [f"metrics printed cov={printed['cov']}, metrics.json has {stored!r}"]
    return []
