"""Configuration documents: loading, validation, and the model bundle.

All calibrated model parameters arrive through one JSON bundle. The loader
builds typed model objects for every section, collects every violation it
finds (rather than stopping at the first), and stamps the bundle with a
canonical content hash used by output manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
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
    DEFAULT_TEMPLATE_GATE,
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


def load_json(path: str | Path | None) -> dict:
    """The JSON object in the file at ``path``, or ``{}`` for no path."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


# what a loader or model constructor raises on a malformed document
_INPUT_ERRORS = (ConfigurationError, ValueError, KeyError, TypeError, AttributeError)


class _Collector:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def error(self, where: str, message: str) -> None:
        self.problems.append(f"{where}: {message}")

    def run(self, where: str, fn, *args):
        """Call ``fn``; on a bad input record the error and return None.

        Nothing loaded after an error is used, since ``finish`` raises."""
        try:
            return fn(*args)
        except _INPUT_ERRORS as exc:
            self.error(where, str(exc))

    def finish(self) -> None:
        if self.problems:
            raise ConfigurationError(
                "invalid configuration:\n" + "\n".join(self.problems)
            )


def _load_calendar(doc: dict) -> SimCalendar:
    epoch = doc.get("calendar", {}).get("epoch", SimCalendar.epoch)
    return SimCalendar(date.fromisoformat(str(epoch)))


def _load_batch_arrivals(doc: dict, errs: _Collector):
    where = "batch_arrivals"
    plan = errs.run(where + ".timezones", TimezonePlan.from_doc, doc.get("timezones", {}))
    daily: dict[str, DailyCountModel] = {}
    profiles: dict[str, IntradayProfile] = {}
    groups = doc.get("groups")
    if not groups:
        raise ConfigurationError("no batch groups configured")
    for group, g_doc in sorted(groups.items()):
        g_where = f"{where}.groups.{group}"
        wom = g_doc.get("week_of_month_log_effect", [0.0])
        daily[group] = errs.run(
            g_where,
            DailyCountModel,
            group,
            dict(g_doc.get("daytype_log_mean", {})),
            {i: float(v) for i, v in enumerate(wom)},
            float(g_doc.get("dispersion", 0.0)),
        )
        intraday = g_doc.get("intraday")
        if intraday is None:
            errs.error(g_where, "missing intraday profile")
            continue
        profiles[group] = errs.run(
            g_where + ".intraday",
            IntradayProfile,
            intraday.get("alr_mean", ()),
            intraday.get("alr_var", ()),
            int(intraday.get("reference_hour", 0)),
        )
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
        reported = len(errs.problems)
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
        if len(errs.problems) > reported:
            continue  # the model's checks would restate what failed to load
        out[group] = errs.run(
            g_where,
            JobClassModel,
            group,
            tuple(tl_support),
            tl_pmf,
            gpu_tables,
            grid,
            leaf,
            by_tl,
            np.asarray(group_curve, dtype=float) if group_curve is not None else None,
        )
    if not doc.get("groups"):
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
        float(doc.get("noise_factor", PowerSynthesisConfig.noise_factor)),
        float(doc.get("hw_factor", PowerSynthesisConfig.hw_factor)),
        int(doc.get("template_gate", DEFAULT_TEMPLATE_GATE)),
    )
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
    if not doc.get("nodes"):
        errs.error(where, "no power template nodes configured")
    return TemplateStore(nodes, edges), cfg


def _load_inference_arrivals(doc: dict, errs: _Collector):
    where = "inference_arrivals"
    kappa = float(doc.get("calibration_factor", MinuteRateModel.calibration))
    out: dict[str, MinuteRateModel] = {}
    for group, g_doc in sorted(doc.get("groups", {}).items()):
        g_where = f"{where}.groups.{group}"
        weekday = g_doc.get("log_rate_weekday", ())
        weekend = g_doc.get("log_rate_weekend", ())
        table = np.column_stack(
            [np.asarray(weekday, dtype=float), np.asarray(weekend, dtype=float)]
        ) if len(weekday) == len(weekend) else np.empty((0, 2))
        out[group] = errs.run(
            g_where,
            MinuteRateModel,
            group,
            table,
            float(g_doc.get("dispersion", 0.0)),
            kappa,
        )
    if not doc.get("groups"):
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
        raise ConfigurationError("no token groups configured")
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
            out[group] = errs.run(g_where, TokenDistribution, support_max, pmf)
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
            out[group] = errs.run(
                f"{where}.groups.{group}", TokenDistribution, support_by_group[group], pmf
            )
    return out


def _load_llm_templates(doc: dict, errs: _Collector):
    where = "llm_templates"
    tick = int(doc.get("grid_tick_s", 10))
    if tick <= 0 or 60 % tick != 0:
        errs.error(where, "grid_tick_s must be a positive divisor of 60")
    t_docs = doc.get("templates")
    if not t_docs:
        raise ConfigurationError("no serving templates configured")
    templates: list[LLMTemplate] = []
    seen: set[str] = set()
    for i, t_doc in enumerate(t_docs):
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
            str(t_doc.get("speed_class", LLMTemplate.speed_class)),
        )
        if template is None:
            continue
        if template.template_id in seen:
            errs.error(t_where, f"duplicate template_id {template.template_id!r}")
        seen.add(template.template_id)
        templates.append(template)
    shares = doc.get("split_shares")
    shares = equal_shares(len(t_docs)) if shares is None else tuple(map(float, shares))
    if len(shares) != len(t_docs):
        errs.error(where, "split_shares length must match templates")
    elif any(s < 0 for s in shares) or abs(sum(shares) - 1.0) > 1e-9:
        errs.error(where, "split_shares must be nonnegative and sum to 1")
    return templates, shares, tick


def _declared(section: dict) -> set:
    """The group names a section declares; none if its groups are not an object."""
    groups = section.get("groups")
    return set(groups) if isinstance(groups, dict) else set()


def load_bundle(source: dict | str | Path) -> ModelBundle:
    """Build a validated :class:`ModelBundle` from a JSON document or path.

    Every problem found anywhere in the document is reported in one
    :class:`ConfigurationError`, one line per violation.
    """
    raw = load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(raw, dict):
        raise ConfigurationError("bundle: expected a JSON object")
    errs = _Collector()
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        errs.error("bundle", f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    sections: dict[str, dict] = {}
    for name in _SECTIONS:
        section = sections[name] = raw.get(name, {})
        if name not in raw:
            errs.error("bundle", f"missing section {name!r}")
        elif not isinstance(section, dict):
            errs.error("bundle", f"section {name!r} must be a JSON object")
            sections[name] = {}
        elif (sec_version := section.get("schema_version", version)) != SCHEMA_VERSION:
            errs.error(name, f"schema_version {sec_version!r} does not match bundle")

    def load(name, loader):
        # a bad value anywhere in a section becomes one line naming it
        return errs.run(name, loader, sections[name], errs)

    calendar = errs.run("calendar", _load_calendar, raw)
    batch_arrivals = load("batch_arrivals", _load_batch_arrivals)
    job_models = load("batch_jobs", _load_batch_jobs)
    power_templates = load("power_templates", _load_power_templates)
    rate_models = load("inference_arrivals", _load_inference_arrivals)
    token_dists = load("tokens", _load_tokens)
    llm_templates = load("llm_templates", _load_llm_templates)
    scenario_defaults = raw.get("scenario_defaults", {})
    if not isinstance(scenario_defaults, dict):
        errs.error("scenario_defaults", "must be a JSON object")
    # cross references compare the group names each section declares, not the
    # models that loaded, so a group failing its own checks is reported once
    arrivals, jobs, requests, tokens = (
        _declared(sections[name])
        for name in ("batch_arrivals", "batch_jobs", "inference_arrivals", "tokens")
    )
    if arrivals and jobs and arrivals != jobs:
        errs.error(
            "bundle",
            f"batch arrival groups {sorted(arrivals)} != job model groups {sorted(jobs)}",
        )
    nodes = sections["power_templates"].get("nodes")
    if power_templates is not None and nodes:
        # a node without limit_s has a group-level key (see _node_key)
        group_level = [n.get("group") for n in nodes if n.get("limit_s") is None]
        for group in sorted(g for g in jobs if g not in group_level):
            errs.error("power_templates", f"no group-level template for {group!r}")
    if requests and tokens and requests != tokens:
        errs.error(
            "bundle", f"request groups {sorted(requests)} != token groups {sorted(tokens)}"
        )
    errs.finish()
    plan, daily, profiles = batch_arrivals
    store, power_cfg = power_templates
    templates, shares, tick = llm_templates
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
        scenario_defaults=dict(scenario_defaults),
        config_hash=canonical_hash(raw),
    )
