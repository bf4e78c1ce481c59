"""Configuration documents: loading, validation, and the model bundle.

All calibrated model parameters arrive through one JSON bundle. The loader
builds typed model objects for every section and checks every entry (a
group, a power template node, a bin-edges row, a serving template); each bad
entry reports its first problem under its location, as does each NaN, and
all of them are raised together. The bundle is stamped with a canonical
content hash used by output manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator

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
    config_hash: str = ""

    @property
    def batch_groups(self) -> list[str]:
        return sorted(self.daily_models)

    @property
    def request_groups(self) -> list[str]:
        return sorted(self.rate_models)


# json.dumps(doc, sort_keys=True, separators=(",", ":")) for one subtree
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_hash(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding,
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` as UTF-8.

    The same text is built by walking the document, so that each distinct
    list of floats is encoded once: a bundle's template nodes repeat their
    curves.
    """
    parts: list[str] = []
    _canonical_json(doc, parts, {})
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


def _canonical_json(node, parts: list[str], float_lists: dict[bytes, str]) -> None:
    """Append ``_ENCODE(node)`` to ``parts``. A list of plain floats is
    encoded once per bit pattern (keyed by its bytes: ``0.0 == -0.0``), a
    subtree that holds no container in one ``_ENCODE`` call. Only exact
    dicts with ``str`` keys and exact lists and tuples are walked."""
    kind = type(node)
    if kind is dict and {str}.issuperset(map(type, node)):
        children = node.values()
    elif kind is list or kind is tuple:
        children = node
    else:
        parts.append(_ENCODE(node))
        return
    types = set(map(type, children))
    if kind is not dict and types == {float}:
        key = array("d", node).tobytes()
        text = float_lists.get(key)
        if text is None:
            text = float_lists[key] = _ENCODE(node)
        parts.append(text)
    elif not any(issubclass(t, (dict, list, tuple)) for t in types):
        parts.append(_ENCODE(node))
    elif kind is dict:
        parts.append("{")
        for i, key in enumerate(sorted(node)):
            if i:
                parts.append(",")
            parts.append(_ENCODE(key) + ":")
            _canonical_json(node[key], parts, float_lists)
        parts.append("}")
    else:
        parts.append("[")
        for i, item in enumerate(node):
            if i:
                parts.append(",")
            _canonical_json(item, parts, float_lists)
        parts.append("]")


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
    def __init__(self, nan_paths: list[str]) -> None:
        self.nan_paths = nan_paths
        self.problems = [f"{where}: NaN is not allowed" for where in nan_paths]

    def error(self, where: str, message: str) -> None:
        self.problems.append(f"{where}: {message}")

    def run(self, where: str, fn, *args):
        """Call ``fn``; if a bad input makes it raise, record the problem under
        ``where`` and return None (never used, since ``finish`` then raises)."""
        try:
            return fn(*args)
        except KeyError as exc:
            message = f"missing key {exc.args[0]!r}"
        except _INPUT_ERRORS as exc:
            message = str(exc)
        # a NaN inside ``where`` (int(nan) raises) has its own line already
        if not any(p.startswith((f"{where}.", f"{where}[")) for p in self.nan_paths):
            self.error(where, message)

    def groups(self, section: str, doc: dict, fn, *args) -> dict:
        """``fn(name, group_doc, *args)`` for each of the section's groups in
        name order, keyed by name; a group that raises is left out."""
        if not doc.get("groups"):
            self.error(section, "no groups configured")
        loaded = {
            name: self.run(f"{section}.groups.{name}", fn, name, g_doc, *args)
            for name, g_doc in sorted(doc.get("groups", {}).items())
        }
        return {name: value for name, value in loaded.items() if value is not None}

    def finish(self) -> None:
        if self.problems:
            raise ConfigurationError(
                "invalid configuration:\n" + "\n".join(self.problems)
            )


def _load_calendar(doc: dict) -> SimCalendar:
    epoch = doc.get("calendar", {}).get("epoch", SimCalendar.epoch)
    return SimCalendar(date.fromisoformat(str(epoch)))


def _arrival_group(group: str, g_doc: dict):
    wom = g_doc.get("week_of_month_log_effect", [0.0])
    daily = DailyCountModel(
        group,
        dict(g_doc.get("daytype_log_mean", {})),
        {i: float(v) for i, v in enumerate(wom)},
        float(g_doc.get("dispersion", 0.0)),
    )
    intraday = g_doc["intraday"]
    try:
        profile = IntradayProfile(
            intraday.get("alr_mean", ()),
            intraday.get("alr_var", ()),
            int(intraday.get("reference_hour", 0)),
        )
    except _INPUT_ERRORS as exc:
        raise ConfigurationError(f"intraday: {exc}") from None
    return daily, profile


def _load_batch_arrivals(doc: dict, errs: _Collector):
    where = "batch_arrivals"
    plan = errs.run(where + ".timezones", TimezonePlan.from_doc, doc.get("timezones", {}))
    loaded = errs.groups(where, doc, _arrival_group)
    daily = {group: models[0] for group, models in loaded.items()}
    profiles = {group: models[1] for group, models in loaded.items()}
    return plan, daily, profiles


def _job_group(group: str, g_doc: dict, add_alpha: float, grid: np.ndarray):
    limits = g_doc.get("time_limits", [])
    if not limits:
        raise ConfigurationError("no time limits configured")
    tl_support = [int(entry["limit_s"]) for entry in limits]
    tl_counts = [float(entry.get("count", 0)) for entry in limits]
    gpu_tables: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    for tl, entry in zip(tl_support, limits):
        gpu_rows = entry.get("gpus", [])
        if not gpu_rows:
            raise ConfigurationError(f"time limit {tl}: no GPU counts")
        support = tuple(int(r["gpus"]) for r in gpu_rows)
        counts = [float(r.get("count", 0)) for r in gpu_rows]
        gpu_tables[tl] = (support, add_alpha_pmf(counts, add_alpha))
    q_doc = g_doc.get("runtime_log_quantiles", {})
    leaf = {}
    for key, curve in q_doc.get("by_limit_gpus", {}).items():
        tl_s, gpus_s = key.split("|")
        leaf[(int(tl_s), int(gpus_s))] = np.asarray(curve, dtype=float)
    by_tl = {
        int(k): np.asarray(v, dtype=float) for k, v in q_doc.get("by_limit", {}).items()
    }
    group_curve = q_doc.get("group")
    return JobClassModel(
        group,
        tuple(tl_support),
        add_alpha_pmf(tl_counts, add_alpha),
        gpu_tables,
        grid,
        leaf,
        by_tl,
        np.asarray(group_curve, dtype=float) if group_curve is not None else None,
    )


def _load_batch_jobs(doc: dict, errs: _Collector) -> dict[str, JobClassModel]:
    add_alpha = float(doc.get("add_alpha", 1.0))
    grid = np.array(doc.get("quantile_grid", np.arange(1, 100) / 100.0), float, ndmin=1)
    # every group shares the grid, so it is reported once; ndim comes first,
    # as the element tests of a grid of another shape give arrays
    if (
        grid.ndim != 1
        or len(grid) < 2
        or np.any(np.diff(grid) <= 0)
        or grid[0] <= 0
        or grid[-1] >= 1
    ):
        errs.error("batch_jobs.quantile_grid", "must be 2+ ascending points inside (0, 1)")
        # a grid of more than one dimension would also fail every group's
        # curve-length check; with any other bad grid each group is still
        # checked, so its own faults are reported too
        if grid.ndim != 1:
            return {}
    return errs.groups("batch_jobs", doc, _job_group, add_alpha, grid)


def _node_key(node: dict) -> tuple:
    parts = []
    for name in ("group", "limit_s", "gpus", "runtime_bin"):
        value = node.get(name)
        if value is None:
            break
        parts.append(value if name == "group" else int(value))
    if not parts:
        raise ConfigurationError("template node needs at least a group")
    return tuple(parts)


def _power_template(node: dict) -> PowerTemplate:
    return PowerTemplate(
        _node_key(node),
        node.get("minute_mean", ()),
        node.get("minute_std", ()),
        node.get("minute_p5", ()),
        node.get("minute_p95", ()),
        float(node.get("ar1_phi", 0.0)),
        int(node.get("support_count", 0)),
    )


def _bin_edges(row: dict) -> dict[tuple, np.ndarray]:
    key = (str(row["group"]), int(row["limit_s"]), int(row["gpus"]))
    edges = np.asarray(row["edges"], dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ConfigurationError("edges must be ascending with 2+ points")
    return {key: edges}


def _load_power_templates(doc: dict, errs: _Collector):
    where = "power_templates"
    nodes: dict[tuple, PowerTemplate] = {}
    for i, node in enumerate(doc.get("nodes", [])):
        n_where = f"{where}.nodes[{i}]"
        template = errs.run(n_where, _power_template, node)
        if template is None:
            continue
        if template.key in nodes:
            errs.error(n_where, f"duplicate template key {template.key!r}")
        nodes[template.key] = template
    edges: dict[tuple, np.ndarray] = {}
    for i, row in enumerate(doc.get("runtime_bin_edges_log", [])):
        e_where = f"{where}.runtime_bin_edges_log[{i}]"
        edges.update(errs.run(e_where, _bin_edges, row) or {})
    if not doc.get("nodes"):
        errs.error(where, "no power template nodes configured")
    # read after the entries, so a bad value here hides none of them
    cfg = PowerSynthesisConfig(
        float(doc.get("noise_factor", PowerSynthesisConfig.noise_factor)),
        float(doc.get("hw_factor", PowerSynthesisConfig.hw_factor)),
        int(doc.get("template_gate", PowerSynthesisConfig.template_gate)),
    )
    return TemplateStore(nodes, edges), cfg


def _rate_model(group: str, g_doc: dict, kappa: float) -> MinuteRateModel:
    weekday = np.asarray(g_doc.get("log_rate_weekday", ()), dtype=float)
    weekend = np.asarray(g_doc.get("log_rate_weekend", ()), dtype=float)
    same = weekday.shape == weekend.shape
    table = np.column_stack([weekday, weekend]) if same else np.empty((0, 2))
    return MinuteRateModel(group, table, float(g_doc.get("dispersion", 0.0)), kappa)


def _load_inference_arrivals(doc: dict, errs: _Collector):
    kappa = float(doc.get("calibration_factor", MinuteRateModel.calibration))
    if kappa < 0:  # every group shares it, so it is reported once
        errs.error("inference_arrivals.calibration_factor", "must be nonnegative")
    return errs.groups("inference_arrivals", doc, _rate_model, kappa)


def _dense_histogram(spec, support_max: int) -> np.ndarray:
    """Accept a dense list or a sparse {token: count} mapping."""
    if isinstance(spec, dict):
        dense = np.zeros(support_max)
        for token_s, count in spec.items():
            token = int(token_s)
            if not 1 <= token <= support_max:
                raise ConfigurationError(
                    f"token {token} outside support 1..{support_max}"
                )
            dense[token - 1] = float(count)
    else:
        dense = np.asarray(spec, dtype=float)
        if dense.shape != (support_max,):
            raise ConfigurationError("dense histogram length must equal support_max")
    if not np.all(dense >= 0):  # NaN fails too: no pool fit may see it
        raise ConfigurationError("histogram counts must be nonnegative")
    return dense


def _token_group(group: str, g_doc: dict):
    """The group's token distribution if it gives a pmf, else its dense
    histogram, which becomes a distribution once its pool is fitted."""
    support_max = int(g_doc.get("support_max", 0))
    if support_max < 1:
        raise ConfigurationError("support_max must be at least 1")
    if "pmf" in g_doc:
        return TokenDistribution(support_max, np.asarray(g_doc["pmf"], dtype=float))
    if "histogram" in g_doc:
        return _dense_histogram(g_doc["histogram"], support_max)
    raise ConfigurationError("needs either a pmf or a histogram")


def _pool_tokens(p_doc: dict, hists: dict[str, np.ndarray]):
    """Member distributions: each histogram blended toward the smoothed pool sum."""
    if len({len(h) for h in hists.values()}) > 1:
        raise ConfigurationError("pool members must share one support_max")
    bandwidth = int(p_doc.get("bandwidth", 0))
    tau = float(p_doc.get("tau", 0.0))
    pooled = smooth_histogram(np.sum(list(hists.values()), axis=0), bandwidth)
    return {
        group: TokenDistribution(len(h), fit_group_pmf(h, pooled, tau))
        for group, h in hists.items()
    }


def _load_tokens(doc: dict, errs: _Collector) -> dict[str, TokenDistribution]:
    out: dict[str, TokenDistribution] = {}
    by_pool: dict[str, dict[str, np.ndarray]] = {}
    for group, loaded in errs.groups("tokens", doc, _token_group).items():
        if isinstance(loaded, TokenDistribution):
            out[group] = loaded
        else:
            pool = doc["groups"][group].get("pool", group)
            by_pool.setdefault(pool, {})[group] = loaded
    pools = doc.get("pools", {})
    for pool, hists in sorted(by_pool.items()):
        p_doc = pools.get(pool, {})
        out.update(errs.run(f"tokens.pools.{pool}", _pool_tokens, p_doc, hists) or {})
    return out


def _llm_template(i: int, t_doc: dict) -> LLMTemplate:
    tpot = t_doc.get("tpot_s", {})
    if not isinstance(tpot, dict):
        tpot = dict.fromkeys(SPEED_CLASSES, tpot)
    return LLMTemplate(
        str(t_doc.get("template_id", f"T{i}")),
        int(t_doc.get("gpus_per_instance", 0)),
        int(t_doc.get("max_batch", 0)),
        {k: float(v) for k, v in tpot.items()},
        float(t_doc.get("rho_kw", 0.0)),
        str(t_doc.get("speed_class", LLMTemplate.speed_class)),
    )


def _load_llm_templates(doc: dict, errs: _Collector):
    where = "llm_templates"
    tick = int(doc.get("grid_tick_s", 10))
    if tick <= 0 or 60 % tick != 0:
        errs.error(where, "grid_tick_s must be a positive divisor of 60")
    t_docs = doc.get("templates")
    if not t_docs:
        raise ConfigurationError("no serving templates configured")
    templates: list[LLMTemplate] = []
    for i, t_doc in enumerate(t_docs):
        t_where = f"{where}.templates[{i}]"
        template = errs.run(t_where, _llm_template, i, t_doc)
        if template is None:
            continue
        if template.template_id in {t.template_id for t in templates}:
            errs.error(t_where, f"duplicate template_id {template.template_id!r}")
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


def _nan_paths(doc: dict | list, where: str = "") -> Iterator[str]:
    """The location of each NaN in ``doc``: json.load reads one from a bare
    ``NaN``, and every range check would let it through."""
    values = doc.values() if isinstance(doc, dict) else doc
    try:
        if not any(map(math.isnan, values)):
            return  # all numbers, none NaN: the common case, checked in C
    except (TypeError, OverflowError):
        pass  # holds strings, containers or huge ints: look at each entry
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in entries:
        if isinstance(doc, list):
            at = f"{where}[{key}]"
        else:
            at = f"{where}.{key}" if where else str(key)
        if isinstance(value, (dict, list)):
            yield from _nan_paths(value, at)
        elif isinstance(value, float) and math.isnan(value):
            yield at


def load_bundle(source: dict | str | Path) -> ModelBundle:
    """Build a validated :class:`ModelBundle` from a JSON document or path.

    Every entry is checked, and each bad entry reports its first problem
    on one line under its location; each NaN in the document is reported
    under its own path. All of them go in one :class:`ConfigurationError`.
    """
    raw = load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(raw, dict):
        raise ConfigurationError("bundle: expected a JSON object")
    errs = _Collector(list(_nan_paths(raw)))
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
        # a bad section-level value becomes one line naming the section
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
    if isinstance(nodes, list) and nodes:
        # a node without limit_s has a group-level key (see _node_key)
        declared = [n for n in nodes if isinstance(n, dict)]
        group_level = [n.get("group") for n in declared if n.get("limit_s") is None]
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
