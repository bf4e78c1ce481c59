"""Command-line interface.

Subcommands: ``generate`` (arrival/characteristics streams), ``simulate``
(one hybrid scenario), ``sweep`` (a share/utilization/seed grid),
``metrics`` (recompute summary metrics from a stored series file), and
``diagnose`` (transmission diagnostics between two stored series).

Exit codes: 0 on success, 1 on configuration errors, 2 when a sweep
finished but some grid points failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import load_bundle
from .cosim import (
    Scenario,
    flatten_requests,
    generate_jobs,
    generate_requests,
    job_power_trace,
    run_hybrid,
    scenario_from_dict,
)
from .defaults import default_bundle_doc
from .errors import ConfigurationError
from .metrics import cov, ramp_rate, transmission_diagnostic
from .outputs import (
    fmt,
    read_series_csv,
    scenario_doc,
    write_arrivals_csv,
    write_busy_csv,
    write_detail_csv,
    write_job_power_csv,
    write_jobs_csv,
    write_manifest,
    write_requests_csv,
    write_series_csv,
    write_sweep_csv,
    write_trace_csv,
)
from .seeds import derive_seed
from .serving import SPEED_CLASSES
from .sweep import EXTRA_COLUMNS, run_sweep, summarize

OUT_ENV_VAR = "DCPOWERSIM_OUT"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        help="model bundle JSON path, or 'default' for the built-in bundle",
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default=None, help="scenario JSON path")
    parser.add_argument("--policy", choices=("FCFS_BACKFILL", "SWF"), default=None)
    parser.add_argument("--ckpt-seconds", type=float, default=None)
    parser.add_argument("--share", type=float, default=None, help="inference share target")
    parser.add_argument("--utilization", type=float, default=None)
    parser.add_argument("--speed-class", choices=SPEED_CLASSES, default=None)
    parser.add_argument("--verbosity-scale", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpowersim",
        description="Shared-GPU batch/inference co-simulation and power metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic workload streams")
    p_gen.add_argument("kind", choices=("batch", "inference"))
    _add_config_flags(p_gen)
    _add_scenario_flags(p_gen)

    p_sim = sub.add_parser("simulate", help="run one hybrid scenario")
    _add_config_flags(p_sim)
    _add_scenario_flags(p_sim)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--scenario", default=None, help="sweep JSON path")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")

    p_met = sub.add_parser("metrics", help="recompute metrics from a series file")
    p_met.add_argument("series", help="series CSV path")
    p_met.add_argument(
        "--ramp-horizons",
        default="1,5,15",
        help="comma-separated ramp horizons in minutes",
    )
    p_met.add_argument(
        "--daily-median",
        action="store_true",
        help="summarize ramps as the median of per-day medians",
    )

    p_diag = sub.add_parser("diagnose", help="transmission diagnostic on a series file")
    p_diag.add_argument("series", help="series CSV path")
    p_diag.add_argument("--x-column", default="p_inf_kw")
    p_diag.add_argument("--y-column", default="p_batch_kw")
    p_diag.add_argument("--delta-minutes", type=int, default=240)
    return parser


def _load_raw_config(arg: str | None) -> dict:
    if arg is None or arg == "default":
        return default_bundle_doc()
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_json(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "./out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _flag_overrides(args) -> dict:
    mapping = {
        "policy": "policy",
        "ckpt_seconds": "ckpt_seconds",
        "share": "share_target",
        "utilization": "utilization_target",
        "speed_class": "speed_class",
        "verbosity_scale": "verbosity_scale",
        "seed": "seed",
    }
    overrides = {}
    for attr, field in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field] = value
    return overrides


def _build_scenario(bundle, args, default_id: str) -> Scenario:
    doc = _load_json(getattr(args, "scenario", None))
    doc.update(_flag_overrides(args))
    doc.setdefault("scenario_id", default_id)
    return scenario_from_dict(doc, bundle.scenario_defaults)


def _manifest_scenario(scenario: Scenario) -> dict:
    doc = scenario_doc(scenario)
    doc["derived_seed"] = derive_seed(scenario.seed, "run", scenario.scenario_id)
    return doc


def cmd_generate(args) -> int:
    raw = _load_raw_config(args.config)
    bundle = load_bundle(raw)
    scenario = _build_scenario(bundle, args, "generate")
    out = _out_dir(args)
    root_seed = derive_seed(scenario.seed, "run", scenario.scenario_id)
    if args.kind == "batch":
        jobs, times = generate_jobs(bundle, scenario, root_seed, 1.0)
        write_arrivals_csv(out / "arrivals.csv", times, [j.group for j in jobs])
        write_jobs_csv(out / "jobs.csv", jobs)
        write_job_power_csv(
            out / "job_power.csv",
            ((j.job_id, job_power_trace(bundle, j, root_seed)) for j in jobs),
        )
        files = ["arrivals.csv", "jobs.csv", "job_power.csv"]
    else:
        parts = generate_requests(bundle, scenario, root_seed, 1.0)
        write_requests_csv(out / "requests.csv", *flatten_requests(bundle, parts))
        files = ["requests.csv"]
    write_manifest(out, bundle.config_hash, _manifest_scenario(scenario), files)
    return 0


def cmd_simulate(args) -> int:
    raw = _load_raw_config(args.config)
    bundle = load_bundle(raw)
    scenario = _build_scenario(bundle, args, "run")
    out = _out_dir(args)
    result = run_hybrid(bundle, scenario)
    write_series_csv(out / "series.csv", result)
    write_busy_csv(out / "busy.csv", result.busy_batch)
    write_trace_csv(out / "trace.csv", result.trace)
    write_jobs_csv(out / "jobs.csv", result.jobs)
    write_requests_csv(
        out / "requests.csv",
        result.request_times,
        result.request_groups,
        result.request_templates,
        result.request_tokens,
    )
    write_detail_csv(
        out / "detail.csv", result, [t.template_id for t in bundle.llm_templates]
    )
    summary = {k: (v if v != "" else None) for k, v in summarize(result).items()}
    summary["rejected_job_ids"] = list(result.trace.rejected_job_ids)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files = [
        "series.csv",
        "busy.csv",
        "trace.csv",
        "jobs.csv",
        "requests.csv",
        "detail.csv",
        "metrics.json",
    ]
    write_manifest(out, bundle.config_hash, _manifest_scenario(scenario), files)
    return 0


def cmd_sweep(args) -> int:
    raw = _load_raw_config(args.config)
    bundle = load_bundle(raw)
    sweep_doc = _load_json(args.scenario)
    if args.seed is not None and "seeds" not in sweep_doc:
        sweep_doc["seeds"] = [args.seed]
    out = _out_dir(args)
    rows, series_files, failures = run_sweep(
        raw, sweep_doc, out, parallel=max(1, args.parallel)
    )
    write_sweep_csv(out / "sweep.csv", rows, EXTRA_COLUMNS)
    write_manifest(
        out,
        bundle.config_hash,
        {"sweep": sweep_doc},
        ["sweep.csv"] + series_files,
    )
    return 2 if failures else 0


def cmd_metrics(args) -> int:
    series = read_series_csv(args.series)
    total = series["p_total_kw"]
    horizons = [int(h) for h in str(args.ramp_horizons).split(",") if h.strip()]
    print(f"n_minutes={len(total)}")
    print(f"mean_p_total_kw={fmt(float(total.mean()))}")
    print(f"cov={fmt(cov(total))}")
    for delta in horizons:
        med = ramp_rate(total, delta, daily_median=args.daily_median)
        print(f"ramp{delta}_med={fmt(med)}")
    return 0


def cmd_diagnose(args) -> int:
    series = read_series_csv(args.series)
    for column in (args.x_column, args.y_column):
        if column not in series:
            raise ConfigurationError(
                f"column {column!r} not in {sorted(series)}"
            )
    result = transmission_diagnostic(
        series[args.x_column], series[args.y_column], args.delta_minutes
    )
    print(f"slope={fmt(result.slope)}")
    print(f"intercept={fmt(result.intercept)}")
    print(f"n_pairs={result.n_pairs}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
    "diagnose": cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
