"""Configuration documents: loading, validation, and the model bundle.

All calibrated model parameters arrive through one JSON bundle. The loader
builds typed model objects for every section, collects every violation it
finds (rather than stopping at the first), and stamps the bundle with a
canonical content hash used by output manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .batch_arrivals import (
    DailyCountModel,
    IntradayProfile,
    SimCalendar,
    TimezonePlan,
)
from .batch_power import (
    JobClassModel,
    PowerSynthesisConfig,
    PowerTemplate,
    TemplateStore,
    add_alpha_pmf,
)
from .errors import ConfigurationError
from .inference_arrivals import (
    MinuteRateModel,
    TokenDistribution,
    equal_shares,
    fit_group_pmf,
    smooth_histogram,
)
from .serving import SPEED_CLASSES, LLMTemplate

SCHEMA_VERSION = 1

_SECTIONS = (
    "batch_arrivals",
    "batch_jobs",
    "power_templates",
    "inference_arrivals",
    "tokens",
    "llm_templates",
)


@dataclass
class ModelBundle:
    """Every calibrated model needed to run a scenario."""

    calendar: SimCalendar
    timezone_plan: TimezonePlan
    daily_models: dict[str, DailyCountModel]
    intraday_profiles: dict[str, IntradayProfile]
    job_models: dict[str, JobClassModel]
    template_store: TemplateStore
    power_cfg: PowerSynthesisConfig
    rate_models: dict[str, MinuteRateModel]
    token_dists: dict[str, TokenDistribution]
    llm_templates: list[LLMTemplate]
    split_shares: tuple[float, ...]
    grid_tick_s: int
    scenario_defaults: dict
    raw: dict = field(repr=False)
    config_hash: str = ""

    @property
    def batch_groups(self) -> list[str]:
        return sorted(self.daily_models)

    @property
    def request_groups(self) -> list[str]:
        return sorted(self.rate_models)


def canonical_hash(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _Collector:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def error(self, where: str, message: str) -> None:
        self.problems.append(f"{where}: {message}")

    def run(self, where: str, fn, *args, **kwargs):
        """Call a constructor, recording instead of raising its errors."""
        try:
            return fn(*args, **kwargs)
        except (ConfigurationError, ValueError, KeyError, TypeError) as exc:
            self.error(where, str(exc))
            return None

    def finish(self) -> None:
        if self.problems:
            raise ConfigurationError(
                "invalid configuration:\n" + "\n".join(self.problems)
            )


def _load_calendar(doc: dict, errs: _Collector) -> SimCalendar:
    section = doc.get("calendar", {})
    epoch_raw = section.get("epoch", "2024-01-01")
    try:
        return SimCalendar(date.fromisoformat(str(epoch_raw)))
    except ValueError as exc:
        errs.error("calendar", str(exc))
        return SimCalendar()


def _load_batch_arrivals(doc: dict, errs: _Collector):
    where = "batch_arrivals"
    tz_doc = doc.get("timezones", {"offsets_hours": [0.0]})
    plan = errs.run(
        where + ".timezones",
        TimezonePlan,
        tuple(tz_doc.get("offsets_hours", (0.0,))),
        tuple(tz_doc["shares"]) if tz_doc.get("shares") is not None else None,
    ) or TimezonePlan()
    daily: dict[str, DailyCountModel] = {}
    profiles: dict[str, IntradayProfile] = {}
    groups = doc.get("groups")
    if not groups:
        errs.error(where, "no batch groups configured")
        return plan, daily, profiles
    for group, g_doc in sorted(groups.items()):
        g_where = f"{where}.groups.{group}"
        wom = g_doc.get("week_of_month_log_effect", [0.0])
        model = errs.run(
            g_where,
            DailyCountModel,
            group,
            dict(g_doc.get("daytype_log_mean", {})),
            {i: float(v) for i, v in enumerate(wom)},
            float(g_doc.get("dispersion", 0.0)),
        )
        if model is not None:
            daily[group] = model
        intraday = g_doc.get("intraday")
        if intraday is None:
            errs.error(g_where, "missing intraday profile")
            continue
        profile = errs.run(
            g_where + ".intraday",
            IntradayProfile,
            intraday.get("alr_mean", ()),
            intraday.get("alr_var", ()),
            int(intraday.get("reference_hour", 0)),
            float(intraday.get("shrinkage", 0.0)),
        )
        if profile is not None:
            profiles[group] = profile
    return plan, daily, profiles


def _load_batch_jobs(doc: dict, errs: _Collector) -> dict[str, JobClassModel]:
    where = "batch_jobs"
    add_alpha = float(doc.get("add_alpha", 1.0))
    grid = np.asarray(
        doc.get("quantile_grid", (np.arange(1, 100) / 100.0).tolist()), dtype=float
    )
    out: dict[str, JobClassModel] = {}
    for group, g_doc in sorted(doc.get("groups", {}).items()):
        g_where = f"{where}.groups.{group}"
        limits = g_doc.get("time_limits", [])
        if not limits:
            errs.error(g_where, "no time limits configured")
            continue
        tl_support = []
        tl_counts = []
        gpu_tables: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
        for entry in limits:
            tl = int(entry["limit_s"])
            tl_support.append(tl)
            tl_counts.append(float(entry.get("count", 0)))
            gpu_rows = entry.get("gpus", [])
            if not gpu_rows:
                errs.error(g_where, f"time limit {tl}: no GPU counts")
                continue
            support = tuple(int(r["gpus"]) for r in gpu_rows)
            counts = np.array([float(r.get("count", 0)) for r in gpu_rows])
            pmf = errs.run(g_where, add_alpha_pmf, counts, add_alpha)
            if pmf is not None:
                gpu_tables[tl] = (support, pmf)
        tl_pmf = errs.run(g_where, add_alpha_pmf, np.array(tl_counts), add_alpha)
        q_doc = g_doc.get("runtime_log_quantiles", {})
        leaf = {}
        for key, curve in q_doc.get("by_limit_gpus", {}).items():
            tl_s, gpus_s = key.split("|")
            leaf[(int(tl_s), int(gpus_s))] = np.asarray(curve, dtype=float)
        by_tl = {
            int(k): np.asarray(v, dtype=float)
            for k, v in q_doc.get("by_limit", {}).items()
        }
        group_curve = q_doc.get("group")
        model = errs.run(
            g_where,
            JobClassModel,
            group,
            tuple(tl_support),
            tl_pmf if tl_pmf is not None else np.array([]),
            gpu_tables,
            grid,
            leaf,
            by_tl,
            np.asarray(group_curve, dtype=float) if group_curve is not None else None,
        )
        if model is not None:
            out[group] = model
    if not out:
        errs.error(where, "no batch job models configured")
    return out


def _node_key(node: dict, errs: _Collector, where: str) -> tuple | None:
    parts = []
    for name in ("group", "limit_s", "gpus", "runtime_bin"):
        value = node.get(name)
        if value is None:
            break
        parts.append(value if name == "group" else int(value))
    if not parts:
        errs.error(where, "template node needs at least a group")
        return None
    return tuple(parts)


def _load_power_templates(doc: dict, errs: _Collector):
    where = "power_templates"
    cfg = errs.run(
        where,
        PowerSynthesisConfig,
        float(doc.get("noise_factor", 1.0)),
        float(doc.get("hw_factor", 1.0)),
        int(doc.get("template_gate", 194)),
    ) or PowerSynthesisConfig()
    nodes: dict[tuple, PowerTemplate] = {}
    for i, node in enumerate(doc.get("nodes", [])):
        n_where = f"{where}.nodes[{i}]"
        key = _node_key(node, errs, n_where)
        if key is None:
            continue
        template = errs.run(
            n_where,
            PowerTemplate,
            key,
            node.get("minute_mean", ()),
            node.get("minute_std", ()),
            node.get("minute_p5", ()),
            node.get("minute_p95", ()),
            float(node.get("ar1_phi", 0.0)),
            int(node.get("support_count", 0)),
        )
        if template is None:
            continue
        if key in nodes:
            errs.error(n_where, f"duplicate template key {key!r}")
        nodes[key] = template
    edges: dict[tuple, np.ndarray] = {}
    for i, row in enumerate(doc.get("runtime_bin_edges_log", [])):
        e_where = f"{where}.runtime_bin_edges_log[{i}]"
        try:
            key = (str(row["group"]), int(row["limit_s"]), int(row["gpus"]))
            arr = np.asarray(row["edges"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            errs.error(e_where, str(exc))
            continue
        if len(arr) < 2 or np.any(np.diff(arr) <= 0):
            errs.error(e_where, "edges must be ascending with 2+ points")
            continue
        edges[key] = arr
    if not nodes:
        errs.error(where, "no power template nodes configured")
    return TemplateStore(nodes, edges), cfg


def _load_inference_arrivals(doc: dict, errs: _Collector):
    where = "inference_arrivals"
    kappa = float(doc.get("calibration_factor", 1.0))
    out: dict[str, MinuteRateModel] = {}
    for group, g_doc in sorted(doc.get("groups", {}).items()):
        g_where = f"{where}.groups.{group}"
        weekday = g_doc.get("log_rate_weekday", ())
        weekend = g_doc.get("log_rate_weekend", ())
        table = np.column_stack(
            [np.asarray(weekday, dtype=float), np.asarray(weekend, dtype=float)]
        ) if len(weekday) == len(weekend) else np.empty((0, 2))
        model = errs.run(
            g_where,
            MinuteRateModel,
            group,
            table,
            float(g_doc.get("dispersion", 0.0)),
            kappa,
        )
        if model is not None:
            out[group] = model
    if not out:
        errs.error(where, "no inference request groups configured")
    return out


def _dense_histogram(spec, support_max: int, errs: _Collector, where: str):
    """Accept a dense list or a sparse {token: count} mapping."""
    if isinstance(spec, dict):
        dense = np.zeros(support_max)
        for token_s, count in spec.items():
            token = int(token_s)
            if not 1 <= token <= support_max:
                errs.error(where, f"token {token} outside support 1..{support_max}")
                continue
            dense[token - 1] = float(count)
        return dense
    dense = np.asarray(spec, dtype=float)
    if dense.shape != (support_max,):
        errs.error(where, "dense histogram length must equal support_max")
        return None
    return dense


def _load_tokens(doc: dict, errs: _Collector) -> dict[str, TokenDistribution]:
    where = "tokens"
    pools = doc.get("pools", {})
    groups = doc.get("groups", {})
    if not groups:
        errs.error(where, "no token groups configured")
        return {}
    hist_by_group: dict[str, np.ndarray] = {}
    support_by_group: dict[str, int] = {}
    out: dict[str, TokenDistribution] = {}
    for group, g_doc in sorted(groups.items()):
        g_where = f"{where}.groups.{group}"
        support_max = int(g_doc.get("support_max", 0))
        if support_max < 1:
            errs.error(g_where, "support_max must be at least 1")
            continue
        support_by_group[group] = support_max
        if "pmf" in g_doc:
            pmf = np.asarray(g_doc["pmf"], dtype=float)
            dist = errs.run(g_where, TokenDistribution, support_max, pmf)
            if dist is not None:
                out[group] = dist
        elif "histogram" in g_doc:
            hist = _dense_histogram(g_doc["histogram"], support_max, errs, g_where)
            if hist is not None:
                hist_by_group[group] = hist
        else:
            errs.error(g_where, "needs either a pmf or a histogram")
    by_pool: dict[str, list[str]] = {}
    for group in hist_by_group:
        pool = groups[group].get("pool", group)
        by_pool.setdefault(pool, []).append(group)
    for pool, members in sorted(by_pool.items()):
        p_where = f"{where}.pools.{pool}"
        supports = {support_by_group[g] for g in members}
        if len(supports) > 1:
            errs.error(p_where, "pool members must share one support_max")
            continue
        p_doc = pools.get(pool, {})
        bandwidth = int(p_doc.get("bandwidth", 0))
        tau = float(p_doc.get("tau", 0.0))
        pooled_hist = np.sum([hist_by_group[g] for g in members], axis=0)
        pooled = errs.run(p_where, smooth_histogram, pooled_hist, bandwidth)
        if pooled is None:
            continue
        for group in members:
            pmf = errs.run(
                p_where, fit_group_pmf, hist_by_group[group], pooled, tau
            )
            if pmf is None:
                continue
            dist = errs.run(
                f"{where}.groups.{group}",
                TokenDistribution,
                support_by_group[group],
                pmf,
                pooled,
                tau,
            )
            if dist is not None:
                out[group] = dist
    return out


def _load_llm_templates(doc: dict, errs: _Collector):
    where = "llm_templates"
    tick = int(doc.get("grid_tick_s", 10))
    if tick <= 0 or 60 % tick != 0:
        errs.error(where, "grid_tick_s must be a positive divisor of 60")
        tick = 10
    templates: list[LLMTemplate] = []
    seen: set[str] = set()
    for i, t_doc in enumerate(doc.get("templates", [])):
        t_where = f"{where}.templates[{i}]"
        tpot = t_doc.get("tpot_s", {})
        if not isinstance(tpot, dict):
            tpot = {cls: float(tpot) for cls in SPEED_CLASSES}
        template = errs.run(
            t_where,
            LLMTemplate,
            str(t_doc.get("template_id", f"T{i}")),
            int(t_doc.get("gpus_per_instance", 0)),
            int(t_doc.get("max_batch", 0)),
            {k: float(v) for k, v in tpot.items()},
            float(t_doc.get("rho_kw", 0.0)),
            str(t_doc.get("speed_class", "M")),
        )
        if template is None:
            continue
        if template.template_id in seen:
            errs.error(t_where, f"duplicate template_id {template.template_id!r}")
        seen.add(template.template_id)
        templates.append(template)
    if not templates:
        errs.error(where, "no serving templates configured")
        shares: tuple[float, ...] = ()
    else:
        raw_shares = doc.get("split_shares")
        if raw_shares is None:
            shares = equal_shares(len(templates))
        else:
            shares = tuple(float(s) for s in raw_shares)
            if len(shares) != len(templates):
                errs.error(where, "split_shares length must match templates")
                shares = equal_shares(len(templates))
            elif any(s < 0 for s in shares) or abs(sum(shares) - 1.0) > 1e-9:
                errs.error(where, "split_shares must be nonnegative and sum to 1")
                shares = equal_shares(len(templates))
    return templates, shares, tick


def load_bundle(source: dict | str | Path) -> ModelBundle:
    """Build a validated :class:`ModelBundle` from a JSON document or path.

    Every problem found anywhere in the document is reported in one
    :class:`ConfigurationError`, one line per violation.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = source
    errs = _Collector()
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        errs.error("bundle", f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    for section in _SECTIONS:
        if section not in raw:
            errs.error("bundle", f"missing section {section!r}")
        else:
            sec_version = raw[section].get("schema_version", version)
            if sec_version != SCHEMA_VERSION:
                errs.error(
                    section, f"schema_version {sec_version!r} does not match bundle"
                )
    calendar = _load_calendar(raw, errs)
    plan, daily, profiles = _load_batch_arrivals(raw.get("batch_arrivals", {}), errs)
    job_models = _load_batch_jobs(raw.get("batch_jobs", {}), errs)
    store, power_cfg = _load_power_templates(raw.get("power_templates", {}), errs)
    rate_models = _load_inference_arrivals(raw.get("inference_arrivals", {}), errs)
    token_dists = _load_tokens(raw.get("tokens", {}), errs)
    templates, shares, tick = _load_llm_templates(raw.get("llm_templates", {}), errs)

    # cross references: every model family must agree on its group universe
    if daily and job_models and set(daily) != set(job_models):
        errs.error(
            "bundle",
            f"batch arrival groups {sorted(daily)} != job model groups "
            f"{sorted(job_models)}",
        )
    if daily and profiles and set(daily) != set(profiles):
        errs.error("bundle", "every batch group needs an intraday profile")
    if job_models:
        for group in sorted(job_models):
            if (group,) not in store.nodes:
                errs.error(
                    "power_templates", f"no group-level template for {group!r}"
                )
    if rate_models and token_dists and set(rate_models) != set(token_dists):
        errs.error(
            "bundle",
            f"request groups {sorted(rate_models)} != token groups "
            f"{sorted(token_dists)}",
        )
    errs.finish()
    return ModelBundle(
        calendar=calendar,
        timezone_plan=plan,
        daily_models=daily,
        intraday_profiles=profiles,
        job_models=job_models,
        template_store=store,
        power_cfg=power_cfg,
        rate_models=rate_models,
        token_dists=token_dists,
        llm_templates=templates,
        split_shares=shares,
        grid_tick_s=tick,
        scenario_defaults=dict(raw.get("scenario_defaults", {})),
        raw=raw,
        config_hash=canonical_hash(raw),
    )
