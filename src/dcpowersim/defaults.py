"""Built-in parameter bundle for desk-scale experiments.

The numbers here describe a small shared cluster: three batch resource
groups with office-hours submission patterns, five request groups with
day/night demand swings, and seven serving templates spanning one to
eight GPUs per instance. They are chosen to be plausible at a 48-GPU
scale, not to reproduce any measured facility.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .config import ModelBundle, load_bundle

_NORMAL = NormalDist()

_QUANTILE_GRID = [q / 100.0 for q in range(1, 100)]

# batch groups: (weekday daily mean, weekend daily mean, NB2 dispersion)
_BATCH_COUNTS = {
    "low": (80.0, 56.0, 0.015),
    "med": (40.0, 26.0, 0.020),
    "high": (18.0, 11.0, 0.025),
}

# per group: {time_limit_s: (tl count, {gpus: count})}
_BATCH_CLASSES = {
    "low": {
        3600: (1100, {1: 300, 2: 500, 4: 300}),
        14400: (900, {2: 450, 4: 350, 8: 100}),
    },
    "med": {
        14400: (600, {2: 150, 4: 300, 8: 150}),
        43200: (400, {4: 250, 8: 150}),
    },
    "high": {
        43200: (260, {4: 120, 8: 140}),
        86400: (140, {8: 140}),
    },
}

# runtime model per group: (median as fraction of tl, log-runtime sigma)
_RUNTIME_SHAPE = {
    "low": (0.35, 0.90),
    "med": (0.35, 0.80),
    "high": (0.35, 0.60),
}

_WEEK_OF_MONTH = [0.03, 0.01, 0.0, -0.01, -0.03]

# request groups: (daily requests at unit scale, NB2 dispersion,
#                  diurnal amplitude, weekend level multiplier)
_REQUEST_GROUPS = {
    "Code": (40000.0, 0.020, 0.90, 0.45),
    "ConvQ1": (30000.0, 0.015, 0.70, 0.62),
    "ConvQ2": (24000.0, 0.018, 0.70, 0.62),
    "ConvQ3": (18000.0, 0.020, 0.70, 0.62),
    "ConvQ4": (12000.0, 0.022, 0.70, 0.62),
}

# token models: (support_max, lognormal median, sigma, pool)
_TOKEN_MODELS = {
    "Code": (5000, 800.0, 0.85, "code"),
    "ConvQ1": (1200, 130.0, 0.70, "conversation"),
    "ConvQ2": (1200, 260.0, 0.72, "conversation"),
    "ConvQ3": (1200, 430.0, 0.75, "conversation"),
    "ConvQ4": (1200, 660.0, 0.78, "conversation"),
}

_TOKEN_POOLS = {
    "conversation": {"bandwidth": 7, "tau": 400.0},
    "code": {"bandwidth": 9, "tau": 250.0},
}

# (template_id, gpus_per_instance, max_batch, medium tpot_s, rho_kw)
_LLM_TEMPLATES = [
    ("T1", 1, 8, 0.145, 0.085),
    ("T2", 1, 4, 0.130, 0.170),
    ("T3", 2, 8, 0.160, 0.170),
    ("T4", 2, 4, 0.180, 0.345),
    ("T5", 4, 16, 0.160, 0.172),
    ("T6", 4, 8, 0.190, 0.340),
    ("T7", 8, 32, 0.150, 0.170),
]


def _office_hours_weights() -> list[float]:
    """Hourly submission weights peaking mid-afternoon."""
    return [
        0.40 + 2.20 * math.exp(-((h - 14.0) ** 2) / (2.0 * 3.5**2))
        for h in range(24)
    ]


def _intraday_doc() -> dict:
    weights = _office_hours_weights()
    ref = weights[0]
    return {
        "reference_hour": 0,
        "alr_mean": [math.log(weights[h] / ref) for h in range(1, 24)],
        "alr_var": [0.08] * 23,
        "shrinkage": 1e-4,
    }


def _quantile_curve(median_s: float, sigma: float) -> list[float]:
    mu = math.log(median_s)
    return [mu + sigma * _NORMAL.inv_cdf(q) for q in _QUANTILE_GRID]


def _batch_jobs_doc() -> dict:
    groups = {}
    for group, classes in _BATCH_CLASSES.items():
        frac, sigma = _RUNTIME_SHAPE[group]
        limits = []
        leaf_curves = {}
        tl_curves = {}
        for tl, (count, gpu_counts) in sorted(classes.items()):
            limits.append(
                {
                    "limit_s": tl,
                    "count": count,
                    "gpus": [
                        {"gpus": g, "count": c}
                        for g, c in sorted(gpu_counts.items())
                    ],
                }
            )
            tl_curves[str(tl)] = _quantile_curve(frac * tl, sigma + 0.05)
            for g in gpu_counts:
                # larger allocations finish a little sooner at equal limits
                median = frac * tl * (1.0 - 0.02 * math.log2(g))
                leaf_curves[f"{tl}|{g}"] = _quantile_curve(median, sigma)
        groups[group] = {
            "time_limits": limits,
            "runtime_log_quantiles": {
                "group": _quantile_curve(
                    frac * min(classes) * 1.5, sigma + 0.10
                ),
                "by_limit": tl_curves,
                "by_limit_gpus": leaf_curves,
            },
        }
    return {
        "schema_version": 1,
        "add_alpha": 1.0,
        "quantile_grid": list(_QUANTILE_GRID),
        "groups": groups,
    }


def _power_curves(length_min: int) -> tuple[list[float], ...]:
    """Per-GPU kW mean/std/p5/p95 with a warmup ramp and hourly texture."""
    mean = []
    for t in range(length_min):
        ramp = min(1.0, 0.55 + 0.45 * t / 8.0)
        texture = 0.010 * math.sin(2.0 * math.pi * t / 60.0)
        mean.append(0.27 * ramp + texture)
    std = [0.035] * length_min
    p5 = [max(0.02, m - 0.050) for m in mean]
    p95 = [m + 0.045 for m in mean]
    return mean, std, p5, p95


def _power_node(
    key: dict, curves: tuple[list[float], ...], support: int, phi: float = 0.85
) -> dict:
    """A template node with its own copies of ``curves``, so editing one
    node's lists leaves every other node as it is."""
    mean, std, p5, p95 = (list(c) for c in curves)
    node = dict(key)
    node.update(
        {
            "support_count": support,
            "ar1_phi": phi,
            "minute_mean": mean,
            "minute_std": std,
            "minute_p5": p5,
            "minute_p95": p95,
        }
    )
    return node


def _power_templates_doc() -> dict:
    lengths = {"low": 120, "med": 480, "high": 1440}
    curves = {length: _power_curves(length) for length in set(lengths.values())}
    nodes = []
    for group, classes in _BATCH_CLASSES.items():
        group_curves = curves[lengths[group]]
        nodes.append(_power_node({"group": group}, group_curves, 5000))
        for tl, (_count, gpu_counts) in sorted(classes.items()):
            nodes.append(
                _power_node({"group": group, "limit_s": tl}, group_curves, 800)
            )
            for i, g in enumerate(sorted(gpu_counts)):
                # leave some leaves under the gate to exercise backoff
                support = 300 if i == 0 else 150
                nodes.append(
                    _power_node(
                        {"group": group, "limit_s": tl, "gpus": g},
                        group_curves,
                        support,
                    )
                )
    bin_edges = [
        {
            "group": "high",
            "limit_s": 86400,
            "gpus": 8,
            "edges": [math.log(3600.0), math.log(28800.0), math.log(86400.0)],
        }
    ]
    for b, support in enumerate((250, 80)):
        nodes.append(
            _power_node(
                {"group": "high", "limit_s": 86400, "gpus": 8, "runtime_bin": b},
                curves[lengths["high"]],
                support,
            )
        )
    return {
        "schema_version": 1,
        "noise_factor": 1.0,
        "hw_factor": 2.33,
        "template_gate": 194,
        "nodes": nodes,
        "runtime_bin_edges_log": bin_edges,
    }


def _rate_tables(daily_total: float, amplitude: float, weekend_mult: float):
    base = math.log(daily_total / 1440.0)
    weekday = []
    weekend = []
    for slot in range(96):
        hour = slot / 4.0
        shape = math.cos(2.0 * math.pi * (hour - 15.0) / 24.0)
        weekday.append(base + amplitude * shape)
        weekend.append(base + math.log(weekend_mult) + 0.9 * amplitude * shape)
    return weekday, weekend


def _inference_arrivals_doc() -> dict:
    groups = {}
    for group, (daily, dispersion, amp, wk_mult) in _REQUEST_GROUPS.items():
        weekday, weekend = _rate_tables(daily, amp, wk_mult)
        groups[group] = {
            "dispersion": dispersion,
            "log_rate_weekday": weekday,
            "log_rate_weekend": weekend,
        }
    return {"schema_version": 1, "calibration_factor": 1.25, "groups": groups}


def _lognormal_histogram(
    support_max: int, median: float, sigma: float, total: int = 25000
) -> dict[str, int]:
    """Counts from a discretized lognormal, sparse {token: count} form."""
    mu = math.log(median)
    dist = NormalDist(mu, sigma)
    counts: dict[str, int] = {}
    # bin k spans [k - 0.5, k + 0.5]; its upper edge is bin k + 1's lower one
    lo = 0.0
    for k in range(1, support_max + 1):
        hi = dist.cdf(math.log(k + 0.5))
        c = round(total * (hi - lo))
        if c > 0:
            counts[str(k)] = c
        lo = hi
    return counts


def _tokens_doc() -> dict:
    groups = {}
    for group, (support, median, sigma, pool) in _TOKEN_MODELS.items():
        groups[group] = {
            "support_max": support,
            "histogram": _lognormal_histogram(support, median, sigma),
            "pool": pool,
        }
    pools = {name: dict(pool) for name, pool in _TOKEN_POOLS.items()}
    return {"schema_version": 1, "groups": groups, "pools": pools}


def _llm_templates_doc() -> dict:
    templates = []
    for template_id, g, batch, tpot_m, rho in _LLM_TEMPLATES:
        templates.append(
            {
                "template_id": template_id,
                "gpus_per_instance": g,
                "max_batch": batch,
                "tpot_s": {
                    "F": round(0.75 * tpot_m, 6),
                    "M": tpot_m,
                    "S": round(1.30 * tpot_m, 6),
                },
                "rho_kw": rho,
                "speed_class": "M",
            }
        )
    return {
        "schema_version": 1,
        "grid_tick_s": 10,
        "split_shares": None,
        "templates": templates,
    }


def default_bundle_doc() -> dict:
    """The full default configuration document, JSON-serializable."""
    batch_groups = {}
    for group, (weekday, weekend, dispersion) in _BATCH_COUNTS.items():
        batch_groups[group] = {
            "daytype_log_mean": {
                "weekday": math.log(weekday),
                "weekend": math.log(weekend),
            },
            "week_of_month_log_effect": list(_WEEK_OF_MONTH),
            "dispersion": dispersion,
            "intraday": _intraday_doc(),
        }
    return {
        "schema_version": 1,
        "calendar": {"epoch": "2024-01-01"},
        "batch_arrivals": {
            "schema_version": 1,
            "timezones": {"offsets_hours": [0.0]},
            "groups": batch_groups,
        },
        "batch_jobs": _batch_jobs_doc(),
        "power_templates": _power_templates_doc(),
        "inference_arrivals": _inference_arrivals_doc(),
        "tokens": _tokens_doc(),
        "llm_templates": _llm_templates_doc(),
        "scenario_defaults": {
            "total_gpus": 48,
            "horizon_days": 7,
            "share_target": 0.5,
            "utilization_target": 0.75,
            "policy": "FCFS_BACKFILL",
            "ckpt_seconds": 3600.0,
            "cap_mode": "capped",
            "cap_fraction": 1.0,
            "verbosity_scale": 1.0,
            "seed": 1,
        },
    }


def default_bundle() -> ModelBundle:
    return load_bundle(default_bundle_doc())
