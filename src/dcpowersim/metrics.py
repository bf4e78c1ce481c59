"""Grid-facing summary metrics over minute-resolution power series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINUTES_PER_DAY = 1_440
MINUTES_PER_HOUR = 60

PROFILE_QUANTILES = (5, 25, 50, 75, 95)

# horizons in minutes at which runs and sweeps report the median ramp rate
RAMP_HORIZONS = (1, 5, 15)


def cov(series: np.ndarray) -> float:
    """Coefficient of variation: population standard deviation over mean."""
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        raise ValueError("series is empty")
    mean = series.mean()
    if mean <= 0:
        raise ValueError("series mean must be positive")
    return float(series.std() / mean)


def ramp_rates(series: np.ndarray, delta_minutes: int) -> np.ndarray:
    """Absolute mean-normalized changes over a fixed horizon.

    The series is divided by its mean, then |x(t + delta) - x(t)| is taken
    for every t; one value per overlapping window.
    """
    series = np.asarray(series, dtype=float)
    if delta_minutes <= 0:
        raise ValueError("delta must be positive")
    if len(series) <= delta_minutes:
        raise ValueError(
            f"series of {len(series)} minutes is not longer than the "
            f"{delta_minutes}-minute ramp horizon"
        )
    mean = series.mean()
    if mean <= 0:
        raise ValueError("series mean must be positive")
    norm = series / mean
    return np.abs(norm[delta_minutes:] - norm[:-delta_minutes])


def ramp_rate(
    series: np.ndarray, delta_minutes: int, daily_median: bool = False
) -> float:
    """Median ramp rate at one horizon.

    Pooled across the whole series by default; with ``daily_median`` the
    ramps are grouped by the day their window starts in, each day takes its
    own median, and the medians are then pooled by a final median.
    """
    ramps = ramp_rates(series, delta_minutes)
    if not daily_median:
        return float(np.median(ramps))
    day_of = np.arange(len(ramps)) // MINUTES_PER_DAY
    medians = [np.median(ramps[day_of == d]) for d in np.unique(day_of)]
    return float(np.median(medians))


def daily_profile(
    components: dict[str, np.ndarray], normalize_by: str = "total"
) -> dict[str, dict[str, np.ndarray]]:
    """Hour-of-day quantiles of normalized power for each component.

    Every (day, hour) pair contributes one observation: the hourly mean
    power, normalized by the overall mean of ``components[normalize_by]``.
    For each hour of the day, the p5/p25/p50/p75/p95 quantiles across days
    are reported, so components stay comparable on one scale.
    """
    if normalize_by not in components:
        raise ValueError(f"no component named {normalize_by!r} to normalize by")
    base = np.asarray(components[normalize_by], dtype=float)
    n_days = len(base) // MINUTES_PER_DAY
    if n_days == 0:
        raise ValueError("need at least one complete day")
    scale = base[: n_days * MINUTES_PER_DAY].mean()
    if scale <= 0:
        raise ValueError("normalizing series mean must be positive")
    out: dict[str, dict[str, np.ndarray]] = {}
    for name, series in components.items():
        series = np.asarray(series, dtype=float)[: n_days * MINUTES_PER_DAY]
        hourly = series.reshape(n_days * 24, MINUTES_PER_HOUR).mean(axis=1)
        by_hour = hourly.reshape(n_days, 24) / scale
        out[name] = {
            f"p{q}": np.percentile(by_hour, q, axis=0) for q in PROFILE_QUANTILES
        }
    return out


@dataclass(frozen=True)
class TransmissionResult:
    """OLS summary of block-differenced co-movement between two series."""

    slope: float
    intercept: float
    n_pairs: int


def zscore(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        raise ValueError("series is empty")
    std = series.std()
    if std == 0:
        raise ValueError("series has zero variance")
    return (series - series.mean()) / std


def block_means(series: np.ndarray, block_minutes: int) -> np.ndarray:
    """Means of consecutive fixed-length blocks; a trailing partial block
    is dropped."""
    series = np.asarray(series, dtype=float)
    n_blocks = len(series) // block_minutes
    if n_blocks == 0:
        raise ValueError(
            f"series of {len(series)} minutes is shorter than one "
            f"{block_minutes}-minute block"
        )
    return series[: n_blocks * block_minutes].reshape(n_blocks, block_minutes).mean(
        axis=1
    )


def ols_fit(dx: np.ndarray, dy: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of dy on dx."""
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if len(dx) != len(dy) or len(dx) < 2:
        raise ValueError("need at least two aligned pairs")
    mx, my = dx.mean(), dy.mean()
    sxx = float(((dx - mx) ** 2).sum())
    if sxx == 0:
        raise ValueError("regressor has zero variance")
    slope = float(((dx - mx) * (dy - my)).sum()) / sxx
    return slope, my - slope * mx


def transmission_diagnostic(
    x: np.ndarray, y: np.ndarray, delta_minutes: int
) -> TransmissionResult:
    """How demand changes transmit into a co-moving series.

    Both series are z-scored over the run, averaged into consecutive
    delta-length blocks, and first-differenced; the result is the OLS fit
    of the y-differences on the x-differences (slope 1 means one-to-one
    transmission on the standardized scale).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("series must be aligned")
    dx = np.diff(block_means(zscore(x), delta_minutes))
    dy = np.diff(block_means(zscore(y), delta_minutes))
    slope, intercept = ols_fit(dx, dy)
    return TransmissionResult(slope, intercept, len(dx))

