"""Workload-composition sweeps over (share, utilization, seed) grids.

Each grid point runs as an independent scenario. Runs may execute in a
process pool; every run derives all randomness from its own scenario id,
so the results table and per-run series files are identical whatever the
worker count.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from pathlib import Path

from .config import load_bundle
from .cosim import HybridResult, Scenario, run_hybrid, scenario_from_dict
from .errors import ConfigurationError
from .metrics import RAMP_HORIZONS, cov, ramp_rate
from .outputs import SWEEP_COLUMNS, write_series_csv

_GRID_AXES = ("shares", "utilizations", "seeds")


def scenario_label(share: float, util: float, seed: int) -> str:
    return f"sh{share:g}_ut{util:g}_seed{seed}"


def expand_grid(sweep_doc: dict, defaults: dict) -> list[Scenario]:
    """All grid points as scenarios, in scenario_id order."""
    base = sweep_doc.get("scenario", {})
    if not isinstance(base, dict):
        raise ConfigurationError("sweep scenario must be a JSON object")
    axes = []
    for key, field in zip(_GRID_AXES, ("share_target", "utilization_target", "seed")):
        values = sweep_doc.get(key)
        if values is None:
            continue  # the scenario or the defaults supply this field
        if not isinstance(values, list):
            raise ConfigurationError(f"sweep {key} must be a list, got {values!r}")
        axes.append([(field, v) for v in values])
    scenarios = []
    for point in product(*axes):
        # Scenario checks the values before scenario_label formats them
        scenario = scenario_from_dict({**base, **dict(point)}, defaults)
        share, util = scenario.share_target, scenario.utilization_target
        scenarios.append(
            replace(
                scenario,
                scenario_id=scenario_label(share, util, scenario.seed),
                share_target=float(share),
                utilization_target=float(util),
            )
        )
    scenarios.sort(key=lambda s: s.scenario_id)
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("sweep grid produces duplicate scenario ids")
    return scenarios


def _scenario_cells(scenario: Scenario) -> dict[str, object]:
    """The cells of a results-table row that restate its scenario."""
    return {
        "scenario_id": scenario.scenario_id,
        "share_target": scenario.share_target,
        "utilization_target": scenario.utilization_target,
        "policy": scenario.policy,
        "ckpt_s": scenario.ckpt_seconds,
    }


def _metric(metric, series, *args) -> float | None:
    """``metric(series, *args)``, or None (an empty ``sweep.csv`` cell, null in
    ``metrics.json``) where it raises ValueError: no minutes, no offered work,
    a mean at or below 0, or a series no longer than the ramp horizon."""
    try:
        return metric(series, *args)
    except ValueError:
        return None


def summarize(result: HybridResult) -> dict[str, object]:
    """One results-table row worth of metrics for a finished run; a metric it
    cannot give (the series metrics and ``utilization_realized`` with no
    minutes, ``share_realized`` with no offered work, ``cov_batch`` at share
    1) is None."""
    total = result.p_total_kw
    row: dict[str, object] = {
        **_scenario_cells(result.scenario),
        "share_realized": _metric(lambda r: r.share_realized, result),
        "utilization_realized": _metric(lambda r: r.utilization_realized, result),
        # cov and ramp_rate are read here at call time: bench/tracer.py wraps them
        "cov": _metric(cov, total),
        "unmet_frac": result.unmet_work_frac,
        # np.mean of no minutes warns rather than raising
        "mean_p_total_kw": float(total.mean()) if total.size else None,
        "w_batch_h": result.w_batch_offered_h,
        "w_inf_h": result.w_inf_offered_h,
        "cov_batch": _metric(cov, result.p_batch_kw),
        "cov_inf": _metric(cov, result.p_inf_kw),
    }
    for delta in RAMP_HORIZONS:
        row[f"ramp{delta}_med"] = _metric(ramp_rate, total, delta)
    return row


def _run_one(args: tuple) -> tuple[dict, str]:
    """Worker body: returns (results-table row, series filename or "").

    A failed run gives a row with its scenario's targets, an error cell and
    no series file.
    """
    bundle, scenario, out_dir = args
    try:
        result = run_hybrid(bundle, scenario)
        row = summarize(result)
        series_name = f"series_{scenario.scenario_id}.csv"
        write_series_csv(Path(out_dir) / series_name, result)
        return row, series_name
    except Exception as exc:  # per-row failure must not kill the sweep
        return {**_scenario_cells(scenario), "error": f"{type(exc).__name__}: {exc}"}, ""


def run_sweep(
    raw_doc: dict,
    sweep_doc: dict,
    out_dir: str | Path,
    parallel: int = 1,
) -> tuple[list[list], list[str], int, str]:
    """Run every grid point; returns (rows, series files, failure count,
    bundle config hash).

    The bundle is loaded once and handed to every run. Rows come back in
    scenario_id order, one cell per column of ``SWEEP_COLUMNS``; a cell a
    row lacks (a failed run's metrics, a finished run's error) is None.
    """
    bundle = load_bundle(raw_doc)
    scenarios = expand_grid(sweep_doc, dict(bundle.scenario_defaults))
    tasks = [(bundle, s, str(out_dir)) for s in scenarios]
    # a fork-based pool starts every worker at the first submit
    workers = min(parallel, len(tasks))
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial sweep never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]
    rows = [[row.get(c) for c in SWEEP_COLUMNS] for row, _ in outcomes]
    series_files = [name for _, name in outcomes if name]
    failures = sum(1 for row, _ in outcomes if "error" in row)
    return rows, series_files, failures, bundle.config_hash
