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

OUT_ENV_VAR = "DCPOWERSIM_OUT"


def _bind_simulation_names() -> None:
    """Make the simulation-layer names that generate, simulate and sweep call
    module globals.

    They are imported here rather than at the top so that metrics and
    diagnose, which only read a series file, never compile the simulator. A
    name already set stays: a wrapper installed on this module
    (bench/tracer.py wraps ``cli.load_bundle``, say) must be what the
    commands call.
    """
    # flatten_requests is looked up on cosim at call time, so a wrapper
    # installed there (bench/tracer.py) sees every call
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
    from .sweep import run_sweep, summarize

    for name, value in dict(locals()).items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    """Resolve a simulation-layer name looked up on this module before any
    command bound it; any other name raises AttributeError. A dunder name
    raises without importing: the import system asks this module for
    ``__path__`` on every ``from .cli import``."""
    if not name.startswith("__"):
        _bind_simulation_names()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Scenario overrides that only a co-simulation run reads. Scenario
    checks every value, so a bad one is a configuration error."""
    parser.add_argument("--policy", default=None)
    parser.add_argument("--ckpt-seconds", type=float, default=None)
    # dest is the Scenario field each flag overrides; metavar keeps --help
    parser.add_argument(
        "--share", type=float, dest="share_target", metavar="SHARE",
        help="inference share target",
    )
    parser.add_argument(
        "--utilization", type=float, dest="utilization_target", metavar="UTILIZATION"
    )
    parser.add_argument("--speed-class", default=None)


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
    p_gen.set_defaults(run=cmd_generate)

    p_sim = sub.add_parser("simulate", help="run one hybrid scenario")
    _add_config_flags(p_sim)
    _add_scenario_flags(p_sim)
    _add_run_flags(p_sim)
    p_sim.set_defaults(run=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--scenario", default=None, help="sweep JSON path")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(run=cmd_sweep)

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
    p_met.set_defaults(run=cmd_metrics)

    p_diag = sub.add_parser("diagnose", help="transmission diagnostic on a series file")
    p_diag.add_argument("series", help="series CSV path")
    p_diag.add_argument("--x-column", default="p_inf_kw")
    p_diag.add_argument("--y-column", default="p_batch_kw")
    p_diag.add_argument("--delta-minutes", type=int, default=240)
    p_diag.set_defaults(run=cmd_diagnose)
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


def _setup(args, default_id: str):
    """The bundle, the scenario and the output directory of a generate or
    simulate run."""
    _bind_simulation_names()
    bundle = load_bundle(_load_raw_config(args.config))
    doc = load_json(args.scenario)
    # every flag whose dest names a Scenario field overrides the document
    fields = Scenario.__dataclass_fields__
    doc.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    doc.setdefault("scenario_id", default_id)
    return bundle, scenario_from_dict(doc, bundle.scenario_defaults), _out_dir(args)


def _write_files(out: Path, bundle, scenario, files: dict) -> None:
    """Call each write of ``files``, a table of file name -> write(path), in
    order, then write the manifest that lists those files."""
    for name, write in files.items():
        write(out / name)
    scenario_doc = {**asdict(scenario), "derived_seed": scenario.root_seed}
    write_manifest(out, bundle.config_hash, scenario_doc, list(files))


def cmd_generate(args) -> int:
    bundle, scenario, out = _setup(args, "generate")
    if args.kind == "batch":
        jobs, times = generate_jobs(bundle, scenario, 1.0)
        files = {
            "arrivals.csv": lambda path: write_arrivals_csv(
                path, times, [j.group for j in jobs]
            ),
            "jobs.csv": lambda path: write_jobs_csv(path, jobs),
            "job_power.csv": lambda path: write_job_power_csv(
                path, [j.job_id for j in jobs],
                *job_power_trace(bundle, jobs, scenario.root_seed),
            ),
        }
    else:
        parts = generate_requests(bundle, scenario, 1.0)
        files = {
            "requests.csv": lambda path: write_requests_csv(
                path, *cosim.flatten_requests(parts)
            ),
        }
    _write_files(out, bundle, scenario, files)
    return 0


def cmd_simulate(args) -> int:
    bundle, scenario, out = _setup(args, "run")
    result = run_hybrid(bundle, scenario)
    template_ids = [t.template_id for t in bundle.llm_templates]
    _write_files(out, bundle, scenario, {
        "series.csv": lambda path: write_series_csv(path, result),
        "busy.csv": lambda path: write_busy_csv(path, result.busy_batch),
        "trace.csv": lambda path: write_trace_csv(path, result.trace),
        "jobs.csv": lambda path: write_jobs_csv(path, result.jobs),
        "requests.csv": lambda path: write_requests_csv(
            path, *cosim.flatten_requests(result.request_parts)
        ),
        "detail.csv": lambda path: write_detail_csv(path, result, template_ids),
        # the sweep row, empty cells as null, and the jobs the scheduler rejected
        "metrics.json": lambda path: write_json(path, {
            **{k: (v if v != "" else None) for k, v in summarize(result).items()},
            "rejected_job_ids": list(result.trace.rejected_job_ids),
        }),
    })
    return 0


def cmd_sweep(args) -> int:
    _bind_simulation_names()
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigurationError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
