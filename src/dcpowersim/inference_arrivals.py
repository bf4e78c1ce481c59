"""Minute-level inference request arrivals and generated-token models.

Request counts per 15-minute slot follow NB2 models with weekday/weekend
rate tables; a single calibration factor widens the dispersion to absorb
burstiness the rate model misses. Arrivals for a request group are split
across serving templates so that the superposed stream keeps the group-level
mean and variance. Generated-token counts come from per-group pmfs built by
kernel smoothing plus a Dirichlet-style posterior blend against a pooled
distribution, with an optional verbosity rescaling of the token CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch_arrivals import SimCalendar
from .distributions import CategoricalSampler
from .errors import ConfigurationError
from .metrics import MINUTES_PER_DAY

SLOT_MINUTES = 15
SLOTS_PER_DAY = MINUTES_PER_DAY // SLOT_MINUTES  # 96


@dataclass(frozen=True)
class MinuteRateModel:
    """Log-rate table for one request group.

    ``log_rate_table`` has shape (96, 2): one row per 15-minute slot of the
    day, column 0 for weekdays and column 1 for weekend days. ``dispersion``
    is the NB2 alpha fitted for the group; ``calibration`` is the
    nonnegative factor applied to it at generation time, shared by every
    group and checked by the bundle loader.
    """

    group: str
    log_rate_table: np.ndarray
    dispersion: float
    calibration: float = 1.0

    def __post_init__(self) -> None:
        table = np.asarray(self.log_rate_table, dtype=float)
        object.__setattr__(self, "log_rate_table", table)
        problems = []
        if table.shape != (SLOTS_PER_DAY, 2):
            problems.append("log_rate_table must have shape (96, 2)")
        if self.dispersion < 0:
            problems.append("dispersion must be nonnegative")
        if problems:
            raise ConfigurationError(
                f"group {self.group!r}: " + "; ".join(problems)
            )

    @property
    def effective_dispersion(self) -> float:
        return self.calibration * self.dispersion


def minute_mean_series(
    model: MinuteRateModel,
    horizon_days: int,
    calendar: SimCalendar,
) -> np.ndarray:
    """Per-minute expected arrivals over the whole horizon."""
    # one day of minutes per column of the table: weekday, then weekend
    day_types = np.array(
        [np.repeat(np.exp(model.log_rate_table[:, col]), SLOT_MINUTES) for col in (0, 1)]
    )
    return day_types[[int(calendar.is_weekend(day)) for day in range(horizon_days)]].ravel()


def place_in_minutes(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform timestamps inside each minute, sorted ascending (seconds)."""
    counts = np.asarray(counts)
    total = int(counts.sum())
    starts = np.repeat(np.arange(len(counts), dtype=float) * 60.0, counts)
    u = rng.random(total)
    u *= 60.0
    u += starts
    u.sort()
    return u


def split_across_templates(
    mu: float, alpha: float, shares: tuple[float, ...]
) -> list[tuple[float, float]]:
    """Per-template NB2 parameters whose superposition matches the group.

    Each template m receives mean ``share_m * mu`` and dispersion
    ``alpha / share_m``; summing the per-template means and variances then
    recovers ``mu`` and ``mu + alpha * mu**2`` exactly. Equal shares over M
    templates give the familiar (mu / M, M * alpha) rescaling.
    """
    if abs(sum(shares) - 1.0) > 1e-9 or any(s < 0 for s in shares):
        raise ValueError("template shares must be nonnegative and sum to 1")
    return [(mu * s, alpha / s) if s else (0.0, 0.0) for s in shares]


def equal_shares(n_templates: int) -> tuple[float, ...]:
    return tuple(1.0 / n_templates for _ in range(n_templates))


@dataclass(frozen=True)
class TokenDistribution:
    """Output-token pmf for one request group on support {1..support_max}.

    ``pmf[i]`` is the probability of ``i + 1`` tokens.
    """

    support_max: int
    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        problems = []
        if self.support_max < 1:
            problems.append("support_max must be at least 1")
        if pmf.shape != (self.support_max,):
            problems.append("pmf length must equal support_max")
        else:
            if np.any(pmf < 0):
                problems.append("pmf entries must be nonnegative")
            # written so that a NaN sum fails too
            if not abs(pmf.sum() - 1.0) <= 1e-9:
                problems.append("pmf must be finite and sum to 1")
        if problems:
            raise ConfigurationError("; ".join(problems))


def smooth_histogram(counts: np.ndarray, bandwidth: int) -> np.ndarray:
    """Kernel-smooth a token histogram into a pmf.

    The kernel is a symmetric moving average with integer half-width
    ``bandwidth``; windows shrink at the support boundaries and the result
    is renormalized. Bandwidth 0 is plain normalization. A uniform
    histogram is a fixed point for any bandwidth.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram has no mass")
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    if bandwidth == 0:
        return counts / total
    k = len(counts)
    idx = np.arange(k)
    lo = np.maximum(idx - bandwidth, 0)
    hi = np.minimum(idx + bandwidth, k - 1)
    csum = np.concatenate(([0.0], np.cumsum(counts)))
    window_sums = csum[hi + 1] - csum[lo]
    smoothed = window_sums / (hi - lo + 1)
    if smoothed.sum() == 0.0:
        # the window means of a subnormal histogram can underflow to zero;
        # its normalized form has the same pmf and cannot
        return smooth_histogram(counts / total, bandwidth)
    return smoothed / smoothed.sum()


def fit_group_pmf(
    counts: np.ndarray, pooled: np.ndarray, tau: float
) -> np.ndarray:
    """Posterior-mean pmf blending group counts with a pooled distribution.

    pmf(y) = (count(y) + tau * pooled(y)) / (N + tau), the posterior mean
    under a Dirichlet prior proportional to the pooled pmf with weight tau.
    """
    counts = np.asarray(counts, dtype=float)
    pooled = np.asarray(pooled, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    n = counts.sum()
    if n + tau <= 0:
        raise ValueError("no observations and no prior mass")
    return (counts + tau * pooled) / (n + tau)


def apply_verbosity(dist: TokenDistribution, scale: float) -> TokenDistribution:
    """Rescale a token distribution by a verbosity factor.

    The new CDF satisfies F_new(y) = F_old(floor(y / scale)) at the image of
    each old support point; mass lands uniformly on each old point's integer
    preimage {y : floor(y / scale) = y0}, which is the piecewise-linear
    completion of that CDF relation differenced on the integer grid. Scale 1
    returns the distribution unchanged, bit for bit.
    """
    if scale == 1.0:
        return dist
    k = dist.support_max
    # top of the new support: the largest y with floor(y / scale) <= k
    new_max = max(1, int(math.ceil(scale * (k + 1))) - 1)
    y0 = np.arange(1, k + 1, dtype=float)
    lo = np.ceil(scale * y0).astype(np.int64)
    hi = np.ceil(scale * (y0 + 1)).astype(np.int64) - 1
    lo = np.clip(lo, 1, new_max)
    hi = np.clip(hi, 1, new_max)
    hi = np.maximum(hi, lo)  # empty preimages collapse onto ceil(scale * y0)
    weights = dist.pmf / (hi - lo + 1)
    diff = np.zeros(new_max + 1)
    np.add.at(diff, lo - 1, weights)
    np.add.at(diff, hi, -weights)
    pmf = np.cumsum(diff)[:new_max]
    pmf = np.maximum(pmf, 0.0)
    pmf /= pmf.sum()
    return TokenDistribution(new_max, pmf)


def sample_tokens(
    sampler: CategoricalSampler, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Token counts drawn through a token pmf's sampler; values start at 1.

    Build the sampler once per ``TokenDistribution`` with
    ``CategoricalSampler(dist.pmf)`` and reuse it for every draw.
    """
    tokens = sampler.sample(rng, size)
    tokens += 1
    return tokens
