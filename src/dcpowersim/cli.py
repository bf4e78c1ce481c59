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
import os
import sys
from dataclasses import asdict
from pathlib import Path

# flatten_requests is looked up on cosim at call time, so a wrapper installed
# there (bench/tracer.py) sees every call
from . import cosim
from .config import load_bundle, load_json
from .cosim import (
    Scenario,
    generate_jobs,
    generate_requests,
    job_power_trace,
    run_hybrid,
    scenario_from_dict,
)
from .defaults import default_bundle_doc
from .errors import ConfigurationError
from .metrics import RAMP_HORIZONS, cov, ramp_rate, transmission_diagnostic
from .outputs import (
    fmt,
    read_series_csv,
    write_arrivals_csv,
    write_busy_csv,
    write_detail_csv,
    write_job_power_csv,
    write_jobs_csv,
    write_json,
    write_manifest,
    write_requests_csv,
    write_series_csv,
    write_sweep_csv,
    write_trace_csv,
)
from .scheduler import POLICIES
from .serving import SPEED_CLASSES
from .sweep import run_sweep, summarize

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
    """The scenario inputs the workload generators read."""
    parser.add_argument("--scenario", default=None, help="scenario JSON path")
    parser.add_argument("--verbosity-scale", type=float, default=None)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Scenario overrides that only a co-simulation run reads."""
    parser.add_argument("--policy", choices=POLICIES, default=None)
    parser.add_argument("--ckpt-seconds", type=float, default=None)
    # dest is the Scenario field each flag overrides; metavar keeps --help
    parser.add_argument(
        "--share", type=float, dest="share_target", metavar="SHARE",
        help="inference share target",
    )
    parser.add_argument(
        "--utilization", type=float, dest="utilization_target", metavar="UTILIZATION"
    )
    parser.add_argument("--speed-class", choices=SPEED_CLASSES, default=None)


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
    _add_run_flags(p_sim)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--scenario", default=None, help="sweep JSON path")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")

    p_met = sub.add_parser("metrics", help="recompute metrics from a series file")
    p_met.add_argument("series", help="series CSV path")
    p_met.add_argument(
        "--ramp-horizons",
        default=",".join(map(str, RAMP_HORIZONS)),
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
    return load_json(arg)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "./out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_scenario(bundle, args, default_id: str) -> Scenario:
    doc = load_json(args.scenario)
    # every flag whose dest names a Scenario field overrides the document
    fields = Scenario.__dataclass_fields__
    doc.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    doc.setdefault("scenario_id", default_id)
    return scenario_from_dict(doc, bundle.scenario_defaults)


def _manifest_scenario(scenario: Scenario) -> dict:
    return {**asdict(scenario), "derived_seed": scenario.root_seed}


def cmd_generate(args) -> int:
    raw = _load_raw_config(args.config)
    bundle = load_bundle(raw)
    scenario = _build_scenario(bundle, args, "generate")
    out = _out_dir(args)
    if args.kind == "batch":
        jobs, times = generate_jobs(bundle, scenario, 1.0)
        write_arrivals_csv(out / "arrivals.csv", times, [j.group for j in jobs])
        write_jobs_csv(out / "jobs.csv", jobs)
        power, lengths = job_power_trace(bundle, jobs, scenario.root_seed)
        write_job_power_csv(
            out / "job_power.csv", [j.job_id for j in jobs], power, lengths
        )
        files = ["arrivals.csv", "jobs.csv", "job_power.csv"]
    else:
        parts = generate_requests(bundle, scenario, 1.0)
        write_requests_csv(out / "requests.csv", *cosim.flatten_requests(parts))
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
        out / "requests.csv", *cosim.flatten_requests(result.request_parts)
    )
    write_detail_csv(
        out / "detail.csv", result, [t.template_id for t in bundle.llm_templates]
    )
    summary = {k: (v if v != "" else None) for k, v in summarize(result).items()}
    summary["rejected_job_ids"] = list(result.trace.rejected_job_ids)
    write_json(out / "metrics.json", summary)
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
    sweep_doc = load_json(args.scenario)
    if args.seed is not None and "seeds" not in sweep_doc:
        sweep_doc["seeds"] = [args.seed]
    out = _out_dir(args)
    rows, series_files, failures, config_hash = run_sweep(
        raw, sweep_doc, out, parallel=max(1, args.parallel)
    )
    write_sweep_csv(out / "sweep.csv", rows)
    write_manifest(
        out, config_hash, {"sweep": sweep_doc}, ["sweep.csv"] + series_files
    )
    return 2 if failures else 0


def _series_columns(path: str, columns: list[str]) -> list:
    """The named columns of a series file, or a ConfigurationError naming it."""
    try:
        series = read_series_csv(path)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read: {exc}") from None
    except StopIteration:
        raise ConfigurationError(f"{path}: no header row") from None
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not a numeric CSV: {exc}") from None
    for column in columns:
        if column not in series:
            raise ConfigurationError(f"{path}: column {column!r} not in {sorted(series)}")
    return [series[c] for c in columns]


def cmd_metrics(args) -> int:
    try:
        horizons = [int(h) for h in str(args.ramp_horizons).split(",") if h.strip()]
        if min(horizons, default=1) < 1:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"--ramp-horizons needs positive integers, got {args.ramp_horizons!r}"
        ) from None
    (total,) = _series_columns(args.series, ["p_total_kw"])
    try:
        stats = [("cov", cov(total))] + [
            (f"ramp{delta}_med", ramp_rate(total, delta, daily_median=args.daily_median))
            for delta in horizons
        ]
    except ValueError as exc:
        raise ConfigurationError(f"{args.series}: {exc}") from None
    print(f"n_minutes={len(total)}")
    print(f"mean_p_total_kw={fmt(float(total.mean()))}")
    for name, value in stats:
        print(f"{name}={fmt(value)}")
    return 0


def cmd_diagnose(args) -> int:
    if args.delta_minutes < 1:
        raise ConfigurationError(
            f"--delta-minutes must be positive, got {args.delta_minutes}"
        )
    x, y = _series_columns(args.series, [args.x_column, args.y_column])
    try:
        result = transmission_diagnostic(x, y, args.delta_minutes)
    except ValueError as exc:
        raise ConfigurationError(f"{args.series}: {exc}") from None
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


if __name__ == "__main__":
    sys.exit(main())
