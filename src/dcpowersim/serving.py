"""Capped continuous-batching approximation of LLM inference serving.

Each request occupies one concurrency slot of its template for a service
window that starts at the first grid tick at or after arrival and lasts
tokens * seconds-per-token, rounded up to whole ticks. Minute-averaged
concurrency is capped by the template's GPU budget, instances are
provisioned in whole template-sized GPU blocks, and power scales linearly
with capped concurrency. Demand above the cap is dropped, not carried over.
The cap, GPU and power rules broadcast: given a templates x minutes matrix,
each template constant may be a column with one row per template.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SPEED_CLASSES = ("F", "M", "S")

# guards ceil/floor against float representation error on exact multiples
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class LLMTemplate:
    """One deployable model template.

    ``gpus_per_instance`` GPUs serve up to ``max_batch`` concurrent
    requests; ``tpot_s`` maps each serving-speed class to its seconds per
    output token; ``rho_kw`` is the power per unit of served concurrency.
    """

    template_id: str
    gpus_per_instance: int
    max_batch: int
    tpot_s: dict[str, float]
    rho_kw: float
    speed_class: str = "M"

    def __post_init__(self) -> None:
        problems = []
        if self.gpus_per_instance <= 0:
            problems.append("gpus_per_instance must be positive")
        if self.max_batch <= 0:
            problems.append("max_batch must be positive")
        if self.rho_kw < 0:
            problems.append("rho_kw must be nonnegative")
        if self.speed_class not in SPEED_CLASSES:
            problems.append(f"speed_class must be one of {SPEED_CLASSES}")
        for cls, tpot in self.tpot_s.items():
            if cls not in SPEED_CLASSES:
                problems.append(f"unknown speed class {cls!r}")
            elif tpot <= 0:
                problems.append(f"tpot for class {cls!r} must be positive")
        if problems:
            raise ConfigurationError(
                f"template {self.template_id!r}: " + "; ".join(problems)
            )

    def tpot(self, speed_class: str | None = None) -> float:
        cls = speed_class or self.speed_class
        if cls not in self.tpot_s:
            raise ConfigurationError(
                f"template {self.template_id!r} has no tpot for class {cls!r}"
            )
        return self.tpot_s[cls]

    def gpu_hours(self, slot_seconds):
        """GPU-hours of ``slot_seconds`` concurrency-slot seconds: each of an
        instance's ``max_batch`` slots holds 1 / max_batch of its GPUs."""
        return slot_seconds * self.gpus_per_instance / (self.max_batch * 3600.0)


def _window_ticks(tokens: np.ndarray, tpot_s: float, grid_tick_s: int) -> np.ndarray:
    """Whole service ticks of each token count: ceil(tokens * tpot / tick),
    at least one; exact multiples stay unchanged."""
    ticks = tokens * tpot_s
    ticks /= grid_tick_s
    ticks -= _GRID_EPS
    np.ceil(ticks, out=ticks)
    return np.maximum(ticks, 1, out=ticks)


def service_windows(
    arrivals: np.ndarray, tokens: np.ndarray, tpot_s: float, grid_tick_s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized service windows in whole grid ticks; returns each
    request's (start tick, tick count) as int64 arrays."""
    starts = np.asarray(arrivals, dtype=float) / grid_tick_s
    starts -= _GRID_EPS
    np.ceil(starts, out=starts)
    ticks = _window_ticks(np.asarray(tokens), tpot_s, grid_tick_s)
    return starts.astype(np.int64), ticks.astype(np.int64)


def expected_window_seconds(
    token_pmf: np.ndarray, tpot_s: float, grid_tick_s: int
) -> float:
    """Mean service-window duration for token counts drawn from ``token_pmf``.

    Uses the same tick rounding as :func:`service_windows`, so offered-work
    expectations match realized durations exactly in the mean.
    """
    pmf = np.asarray(token_pmf, dtype=float)
    ticks = _window_ticks(np.arange(1, len(pmf) + 1), tpot_s, grid_tick_s)
    return float(np.dot(pmf, grid_tick_s * ticks))


def concurrency(
    start_ticks: np.ndarray,
    end_ticks: np.ndarray,
    horizon_minutes: int,
    grid_tick_s: int,
) -> np.ndarray:
    """Minute-averaged concurrency of windows given in grid ticks: request
    ``i`` is active over ticks [start_ticks[i], end_ticks[i]), every index
    in [0, n_ticks], n_ticks the horizon's ticks. The tick must divide 60.

    Counts in integer ticks: the window edges, the running count of active
    requests and its per-minute sum are all exact int64, so the minute mean
    is the exact count over ticks per minute, in any order of the windows.
    """
    if 60 % grid_tick_s != 0:
        raise ConfigurationError("grid tick must divide 60 seconds")
    per_minute = 60 // grid_tick_s
    active = np.zeros(horizon_minutes * per_minute + 1, dtype=np.int64)
    np.add.at(active, start_ticks, 1)
    np.subtract.at(active, end_ticks, 1)
    np.cumsum(active, out=active)
    return active[:-1].reshape(horizon_minutes, per_minute).sum(axis=1) / per_minute


def allocate_budgets(
    total_gpus: int, offered_gpu_hours: np.ndarray, gpus_per_instance: np.ndarray
) -> list[int]:
    """Split a GPU budget across templates proportionally to offered work.

    Each template's proportional share is floored to a whole number of its
    instances; leftover GPUs go out greedily, largest fractional remainder
    first (ties toward the earlier template), in instance-sized increments
    while they fit. Budgets of templates too large for the leftover stay
    unchanged; if no instance fits at all, remaining GPUs go unused. When
    the total budget is smaller than every instance size, every budget is
    zero and a warning is emitted.
    """
    offered = np.asarray(offered_gpu_hours, dtype=float)
    sizes = np.asarray(gpus_per_instance, dtype=np.int64)
    if total_gpus < 0:
        raise ValueError("total budget must be nonnegative")
    if np.any(offered < 0):
        raise ValueError("offered hours must be nonnegative")
    if np.any(sizes <= 0):
        raise ValueError("instance sizes must be positive")
    if offered.sum() <= 0:
        if total_gpus > 0:
            raise ValueError("no offered work to apportion the budget against")
        return [0] * len(sizes)
    shares = total_gpus * offered / offered.sum()
    budgets = (shares // sizes).astype(np.int64) * sizes
    remainders = (shares - budgets) / sizes
    leftover = total_gpus - int(budgets.sum())
    while leftover > 0:
        order = sorted(
            range(len(sizes)), key=lambda i: (-remainders[i], i)
        )
        for i in order:
            if sizes[i] <= leftover:
                budgets[i] += sizes[i]
                remainders[i] -= 1.0
                leftover -= int(sizes[i])
                break
        else:
            break
    if total_gpus > 0 and int(budgets.sum()) == 0:
        warnings.warn(
            "GPU budget is smaller than every template instance; all budgets zero",
            stacklevel=2,
        )
    return [int(b) for b in budgets]


def cap_concurrency(
    conc: np.ndarray, max_batch: int, budget_gpus: int | None, gpus_per_instance: int
) -> np.ndarray:
    """Cap concurrency at the budget's instance capacity:
    min(conc, max_batch * budget / gpus_per_instance)."""
    conc = np.asarray(conc, dtype=float)
    if budget_gpus is None:
        return conc.copy()
    limit = max_batch * budget_gpus / gpus_per_instance
    return np.minimum(conc, limit)


def gpu_use(
    conc_capped: np.ndarray, max_batch: int, gpus_per_instance: int
) -> np.ndarray:
    """GPUs provisioned per minute: whole instances covering the capped
    concurrency, gpus_per_instance * ceil(conc / max_batch)."""
    conc = np.asarray(conc_capped, dtype=float)
    instances = np.ceil(conc / max_batch - _GRID_EPS)
    return (gpus_per_instance * instances).astype(np.int64)


def inference_power(conc_capped: np.ndarray, rho_kw: float) -> np.ndarray:
    """Power per minute in kW, linear in served concurrency."""
    return rho_kw * np.asarray(conc_capped, dtype=float)
