"""Synthetic batch-job arrival streams.

Daily arrival counts per resource group follow an overdispersed NB2 count
model whose log mean carries weekday/weekend and week-of-month effects.
Within-day timing is compositional: each day draws a 24-hour profile from a
logistic-normal model in additive-log-ratio (ALR) space and arrivals fall
uniformly inside their assigned hour. A multi-time-zone variant superposes
clock-shifted, mean-scaled copies of the single-zone process so that the
expected daily total is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .distributions import sample_nb2
from .errors import ConfigurationError

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600
HOURS_PER_DAY = 24

WEEKDAY = "weekday"
WEEKEND = "weekend"

# exp() saturates silently past the float64 range; this keeps ratios finite
_ALR_CLAMP = 700.0


@dataclass(frozen=True)
class SimCalendar:
    """Maps simulation day indices onto calendar covariates.

    Day 0 corresponds to ``epoch``; the default epoch (2024-01-01) is a
    Monday, so weekday/weekend structure starts mid-week-free. Week-of-month
    is the zero-based index ``(day_of_month - 1) // 7`` of the real date.
    """

    epoch: date = date(2024, 1, 1)

    def date_of(self, day: int) -> date:
        return self.epoch + timedelta(days=int(day))

    def daytype(self, day: int) -> str:
        return WEEKEND if self.is_weekend(day) else WEEKDAY

    def is_weekend(self, day: int) -> bool:
        return self.date_of(day).weekday() >= 5

    def week_of_month(self, day: int) -> int:
        return (self.date_of(day).day - 1) // 7


@dataclass(frozen=True)
class DailyCountModel:
    """NB2 daily-count model for one resource group.

    ``daytype_effects`` maps "weekday"/"weekend" to log-mean levels;
    ``week_of_month_effects`` maps zero-based week-of-month indices to
    additive log-mean adjustments. ``dispersion`` is the NB2 alpha.
    """

    group: str
    daytype_effects: dict[str, float]
    week_of_month_effects: dict[int, float]
    dispersion: float

    def __post_init__(self) -> None:
        if self.dispersion < 0:
            raise ConfigurationError(
                f"group {self.group!r}: dispersion must be nonnegative"
            )


@dataclass(frozen=True)
class IntradayProfile:
    """Logistic-normal hourly composition in ALR coordinates.

    ``alr_mean`` and ``alr_var`` hold the 23 non-reference coordinates in
    hour order (the reference hour is skipped).
    """

    alr_mean: np.ndarray
    alr_var: np.ndarray
    reference_hour: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alr_mean", np.asarray(self.alr_mean, dtype=float))
        object.__setattr__(self, "alr_var", np.asarray(self.alr_var, dtype=float))
        problems = []
        if self.alr_mean.shape != (HOURS_PER_DAY - 1,):
            problems.append("alr_mean must have 23 entries")
        if self.alr_var.shape != (HOURS_PER_DAY - 1,):
            problems.append("alr_var must have 23 entries")
        elif np.any(self.alr_var < 0):
            problems.append("alr_var entries must be nonnegative")
        if not 0 <= self.reference_hour < HOURS_PER_DAY:
            problems.append("reference_hour must lie in [0, 24)")
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass(frozen=True)
class TimezonePlan:
    """Clock offsets and mean shares for multi-zone superposition."""

    offsets_hours: tuple[float, ...] = (0.0,)
    shares: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        offsets = tuple(float(o) for o in self.offsets_hours)
        object.__setattr__(self, "offsets_hours", offsets)
        if not offsets:
            raise ConfigurationError("timezone plan needs at least one zone")
        if len(set(offsets)) != len(offsets):
            raise ConfigurationError("timezone offsets must be distinct")
        if self.shares is None:
            object.__setattr__(
                self, "shares", tuple(1.0 / len(offsets) for _ in offsets)
            )
        else:
            shares = tuple(float(s) for s in self.shares)
            object.__setattr__(self, "shares", shares)
            if len(shares) != len(offsets):
                raise ConfigurationError("shares and offsets differ in length")
            if any(s < 0 for s in shares):
                raise ConfigurationError("zone shares must be nonnegative")
            if abs(sum(shares) - 1.0) > 1e-9:
                raise ConfigurationError("zone shares must sum to 1")

    @classmethod
    def from_doc(cls, doc: dict) -> TimezonePlan:
        """Plan from ``{"offsets_hours": [...], "shares": [...]}``; both keys
        are optional and default to one zone at offset 0 and equal shares."""
        shares = doc.get("shares")
        return cls(
            tuple(doc.get("offsets_hours", (0.0,))),
            None if shares is None else tuple(shares),
        )


def daily_mean(model: DailyCountModel, day: int, calendar: SimCalendar) -> float:
    """Expected arrivals for one simulation day: exp(daytype + week-of-month)."""
    daytype = calendar.daytype(day)
    if daytype not in model.daytype_effects:
        raise ConfigurationError(
            f"group {model.group!r}: no daytype effect for {daytype!r}"
        )
    wom = calendar.week_of_month(day)
    if wom not in model.week_of_month_effects:
        raise ConfigurationError(
            f"group {model.group!r}: no week-of-month effect for index {wom}"
        )
    return float(
        np.exp(model.daytype_effects[daytype] + model.week_of_month_effects[wom])
    )


def sample_hourly_profile(
    profile: IntradayProfile, rng: np.random.Generator
) -> np.ndarray:
    """Draw one day's 24-hour share vector from the logistic-normal model.

    The 23 ALR coordinates are sampled independently with the configured
    means and variances, the reference hour is pinned at 0, exponent
    arguments are clamped to +-700, and the exponentials are renormalized.
    The result is a simplex vector (nonnegative, sums to 1).
    """
    z = profile.alr_mean + np.sqrt(profile.alr_var) * rng.standard_normal(
        HOURS_PER_DAY - 1
    )
    logw = np.insert(z, profile.reference_hour, 0.0)
    logw = np.clip(logw, -_ALR_CLAMP, _ALR_CLAMP)
    w = np.exp(logw)
    return w / w.sum()


def place_arrivals(
    count: int,
    hourly_profile: np.ndarray,
    day_start_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Place ``count`` arrivals within one day.

    Hours are assigned multinomially by the profile and each arrival gets a
    uniform offset inside its hour. Returns sorted timestamps in seconds.
    """
    p = np.asarray(hourly_profile, dtype=float)
    per_hour = rng.multinomial(count, p / p.sum())
    hours = np.repeat(np.arange(HOURS_PER_DAY), per_hour)
    ts = day_start_s + hours * SECONDS_PER_HOUR + rng.random(count) * SECONDS_PER_HOUR
    return np.sort(ts)


def generate_zone_arrivals(
    model: DailyCountModel,
    profile: IntradayProfile,
    horizon_days: int,
    rng: np.random.Generator,
    calendar: SimCalendar,
    mean_scale: float = 1.0,
    offset_hours: float = 0.0,
) -> np.ndarray:
    """Arrival timestamps for one group in one zone over the horizon.

    ``mean_scale`` multiplies the daily mean (a log-mean shift), which is how
    zone shares and workload-intensity targets are applied. ``offset_hours``
    shifts the clock of the intraday pattern; shifted arrivals wrap within
    their day so per-day totals are untouched.
    """
    if mean_scale == 0.0:  # reads no day, so share 1 needs no day effect
        return np.empty(0, dtype=float)
    offset_s = offset_hours * SECONDS_PER_HOUR
    chunks = []
    for day in range(horizon_days):
        mu = daily_mean(model, day, calendar) * mean_scale
        n = sample_nb2(mu, model.dispersion, rng)
        if n == 0:
            continue
        hourly = sample_hourly_profile(profile, rng)
        start = day * float(SECONDS_PER_DAY)
        ts = place_arrivals(n, hourly, start, rng)
        if offset_s:
            ts = start + (ts - start - offset_s) % SECONDS_PER_DAY
            ts.sort()
        chunks.append(ts)
    if not chunks:
        return np.empty(0, dtype=float)
    return np.concatenate(chunks)


def superpose_timezones(
    plan: TimezonePlan,
    model: DailyCountModel,
    profile: IntradayProfile,
    horizon_days: int,
    rng: np.random.Generator,
    calendar: SimCalendar,
    mean_scale: float = 1.0,
) -> np.ndarray:
    """Merge per-zone arrival streams into one sorted stream.

    Each zone runs the single-zone generator with its mean scaled by the
    zone share and its intraday profile shifted by the zone clock offset.
    Zones draw sequentially from ``rng`` in plan order, so a one-zone plan
    with offset 0 and share 1 reproduces the single-zone stream exactly.
    """
    streams = []
    for offset, share in zip(plan.offsets_hours, plan.shares):
        ts = generate_zone_arrivals(
            model,
            profile,
            horizon_days,
            rng,
            calendar=calendar,
            mean_scale=mean_scale * share,
            offset_hours=offset,
        )
        streams.append(ts)
    return np.sort(np.concatenate(streams), kind="stable")
