"""Workload-composition sweeps over (share, utilization, seed) grids.

Each grid point runs as an independent scenario. Runs may execute in a
process pool; every run derives all randomness from its own scenario id,
so the results table and per-run series files are identical whatever the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import load_bundle
from .cosim import HybridResult, Scenario, run_hybrid, scenario_from_dict
from .errors import ConfigurationError
from .metrics import cov, ramp_rate
from .outputs import sweep_header, write_series_csv

EXTRA_COLUMNS = ("cov_batch", "cov_inf", "mean_p_total_kw", "w_batch_h", "w_inf_h")

RAMP_HORIZONS = (1, 5, 15)


def scenario_label(share: float, util: float, seed: int) -> str:
    return f"sh{share:g}_ut{util:g}_seed{seed}"


def expand_grid(sweep_doc: dict, defaults: dict) -> list[Scenario]:
    """All grid points as scenarios, in scenario_id order."""
    base = dict(sweep_doc.get("scenario", {}))
    shares = sweep_doc.get("shares")
    utils = sweep_doc.get("utilizations")
    seeds = sweep_doc.get("seeds")
    merged_defaults = dict(defaults)
    merged_defaults.update(base)
    if shares is None:
        shares = [merged_defaults.get("share_target", Scenario.share_target)]
    if utils is None:
        utils = [merged_defaults.get("utilization_target", Scenario.utilization_target)]
    if seeds is None:
        seeds = [merged_defaults.get("seed", Scenario.seed)]
    scenarios = []
    for share in shares:
        for util in utils:
            for seed in seeds:
                doc = dict(base)
                doc.update(
                    {
                        "scenario_id": scenario_label(share, util, seed),
                        "share_target": float(share),
                        "utilization_target": float(util),
                        "seed": int(seed),
                    }
                )
                scenarios.append(scenario_from_dict(doc, defaults))
    scenarios.sort(key=lambda s: s.scenario_id)
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("sweep grid produces duplicate scenario ids")
    return scenarios


def summarize(result: HybridResult) -> dict[str, object]:
    """One results-table row worth of metrics for a finished run."""
    scenario = result.scenario
    total = result.p_total_kw
    # metric cells stay empty when the series is degenerate (no minutes,
    # or zero power throughout); the run itself still counts as finished
    live = total.size > 0 and float(total.mean()) > 0.0
    row: dict[str, object] = {
        "scenario_id": scenario.scenario_id,
        "share_target": scenario.share_target,
        "share_realized": result.share_realized,
        "utilization_target": scenario.utilization_target,
        "utilization_realized": result.utilization_realized,
        "policy": scenario.policy,
        "ckpt_s": scenario.ckpt_seconds,
        "cov": cov(total) if live else "",
        "unmet_frac": result.unmet_work_frac,
        "mean_p_total_kw": float(total.mean()) if total.size else "",
        "w_batch_h": result.w_batch_offered_h,
        "w_inf_h": result.w_inf_offered_h,
    }
    for delta in RAMP_HORIZONS:
        ok = live and total.size > delta
        row[f"ramp{delta}_med"] = ramp_rate(total, delta) if ok else ""
    for name, series in (("cov_batch", result.p_batch_kw), ("cov_inf", result.p_inf_kw)):
        row[name] = cov(series) if series.size and float(series.mean()) > 0.0 else ""
    return row


def _run_one(args: tuple) -> tuple[dict, str]:
    """Worker body: returns (results-table row, series filename or "").

    A failed run gives a row with its scenario's targets, an error cell and
    no series file.
    """
    raw_doc, scenario, out_dir = args
    try:
        bundle = load_bundle(raw_doc)
        result = run_hybrid(bundle, scenario)
        row = summarize(result)
        series_name = f"series_{scenario.scenario_id}.csv"
        write_series_csv(Path(out_dir) / series_name, result)
        return row, series_name
    except Exception as exc:  # per-row failure must not kill the sweep
        row = {
            "scenario_id": scenario.scenario_id,
            "share_target": scenario.share_target,
            "utilization_target": scenario.utilization_target,
            "policy": scenario.policy,
            "ckpt_s": scenario.ckpt_seconds,
            "error": f"{type(exc).__name__}: {exc}",
        }
        return row, ""


def run_sweep(
    raw_doc: dict,
    sweep_doc: dict,
    out_dir: str | Path,
    parallel: int = 1,
) -> tuple[list[list], list[str], int]:
    """Run every grid point; returns (rows, series files, failure count).

    Rows come back in scenario_id order, one cell per column of
    ``sweep_header(EXTRA_COLUMNS)``; cells a row lacks stay empty.
    """
    defaults = dict(load_bundle(raw_doc).scenario_defaults)
    scenarios = expand_grid(sweep_doc, defaults)
    tasks = [(raw_doc, s, str(out_dir)) for s in scenarios]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]
    header = sweep_header(EXTRA_COLUMNS)
    rows = [[row.get(c, "") for c in header] for row, _ in outcomes]
    series_files = [name for _, name in outcomes if name]
    failures = sum(1 for row, _ in outcomes if "error" in row)
    return rows, series_files, failures
