"""Batch-job characteristics and per-job power-trace synthesis.

Job characteristics factorize as P(time limit | group) * P(gpus | group,
time limit) * P(log runtime | group, time limit, gpus): categorical tables
with additive smoothing for the discrete parts and hierarchical quantile
curves with linear interpolation for log runtime. Power traces come from
minute-indexed templates keyed by (group, time limit, gpus, runtime bin)
with a count-gated hard backoff chain; synthesis adds AR(1) noise around the
template mean, clips to the template's empirical band, then scales by GPU
count and a hardware adjustment factor.

The traces of all jobs are synthesized in one pass and returned as one
flat array. Each job still draws its shocks from its own generator, and
the AR(1) recursion steps through job minutes with one vector operation
per minute over the jobs running that long, so every value is computed by
the same floating-point operations as a loop over that job's minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError


def add_alpha_pmf(counts, alpha: float = 1.0) -> np.ndarray:
    """Categorical pmf from counts with additive (add-alpha) smoothing."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    total = counts.sum() + alpha * len(counts)
    if total <= 0:
        raise ValueError("no observations and no smoothing mass")
    return (counts + alpha) / total


@dataclass(frozen=True)
class JobClassModel:
    """Factorized job-characteristics model for one resource group.

    ``gpu_tables`` maps a time limit to its GPU-count support and pmf.
    Runtime quantile curves live on ``quantile_grid`` (probabilities in
    (0, 1), ascending; shared by every group and checked by the bundle
    loader) in log-runtime units, at up to three hierarchy levels: per
    (time limit, gpus) leaf, per time limit, and group-wide.
    """

    group: str
    tl_support: tuple[int, ...]
    tl_pmf: np.ndarray
    gpu_tables: dict[int, tuple[tuple[int, ...], np.ndarray]]
    quantile_grid: np.ndarray
    leaf_quantiles: dict[tuple[int, int], np.ndarray]
    tl_quantiles: dict[int, np.ndarray]
    group_quantiles: np.ndarray | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tl_pmf", np.asarray(self.tl_pmf, dtype=float))
        object.__setattr__(
            self, "quantile_grid", np.asarray(self.quantile_grid, dtype=float)
        )
        problems = []
        if len(self.tl_support) == 0:
            problems.append("needs at least one time limit")
        if len(self.tl_pmf) != len(self.tl_support):
            problems.append("tl_pmf length must match tl_support")
        for tl in self.tl_support:
            if tl <= 0:
                problems.append(f"time limit {tl} must be positive")
            if tl not in self.gpu_tables:
                problems.append(f"no GPU table for time limit {tl}")
            elif any(g < 1 for g in self.gpu_tables[tl][0]):
                problems.append(f"GPU counts for time limit {tl} must be at least 1")
        for curve in self._all_curves():
            if len(curve) != len(self.quantile_grid):
                problems.append("quantile curve length must match the grid")
            elif np.any(np.diff(curve) < 0):
                problems.append("quantile curves must be nondecreasing")
        if problems:
            raise ConfigurationError(f"group {self.group!r}: " + "; ".join(problems))

    def _all_curves(self):
        yield from self.leaf_quantiles.values()
        yield from self.tl_quantiles.values()
        if self.group_quantiles is not None:
            yield self.group_quantiles


def resolve_quantiles(model: JobClassModel, tl: int, gpus: int) -> np.ndarray:
    """Quantile curve for (tl, gpus), backing off leaf -> time limit -> group."""
    curve = model.leaf_quantiles.get((tl, gpus))
    if curve is None:
        curve = model.tl_quantiles.get(tl)
    if curve is None:
        curve = model.group_quantiles
    if curve is None:
        raise ConfigurationError(
            f"group {model.group!r}: no runtime quantiles reachable for "
            f"time limit {tl}, gpus {gpus}"
        )
    return curve


def sample_jobs(
    model: JobClassModel, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` jobs' time limits, GPU counts and runtimes in seconds.

    Job i reads row i of ``rng.random((n, 3))``: the first uniform picks
    its time limit, the second its GPU count and the third its runtime,
    exp of the linearly interpolated quantile of the resolved log-runtime
    curve (flat extrapolation beyond the grid ends), truncated at the time
    limit. Runtimes are always positive. ``math.exp`` takes each
    exponential, so every runtime has the bits of libm's exp, whatever
    numpy's vector exp would round to.
    """
    u = rng.random((n, 3))
    tl_idx = np.searchsorted(np.cumsum(model.tl_pmf), u[:, 0], side="right")
    np.minimum(tl_idx, len(model.tl_support) - 1, out=tl_idx)
    gpus = np.empty(n, dtype=np.int64)
    log_rt = np.empty(n)
    for k, tl in enumerate(model.tl_support):
        rows = np.flatnonzero(tl_idx == k)
        support, pmf = model.gpu_tables[tl]
        g_idx = np.searchsorted(np.cumsum(pmf), u[rows, 1], side="right")
        np.minimum(g_idx, len(support) - 1, out=g_idx)
        gpus[rows] = np.asarray(support)[g_idx]
        for j, g in enumerate(support):
            leaf = rows[g_idx == j]
            if leaf.size:
                curve = resolve_quantiles(model, tl, int(g))
                log_rt[leaf] = np.interp(u[leaf, 2], model.quantile_grid, curve)
    tls = np.asarray(model.tl_support, dtype=np.int64)[tl_idx]
    runtime = np.fromiter(
        map(min, map(math.exp, log_rt.tolist()), tls.astype(float).tolist()),
        dtype=float,
        count=n,
    )
    return tls, gpus, runtime


def expected_gpu_runtime_hours(model: JobClassModel) -> float:
    """Expected gpus * runtime per job in GPU-hours.

    The runtime expectation is approximated by averaging the truncated
    quantile curve over its probability grid; used only for sizing workload
    intensity, never inside the samplers.
    """
    total = 0.0
    for tl, p_tl in zip(model.tl_support, model.tl_pmf):
        support, pmf = model.gpu_tables[tl]
        for gpus, p_g in zip(support, pmf):
            curve = resolve_quantiles(model, tl, int(gpus))
            mean_rt = float(np.mean(np.minimum(np.exp(curve), float(tl))))
            total += p_tl * p_g * gpus * mean_rt
    return total / 3600.0


@dataclass(frozen=True)
class PowerTemplate:
    """Minute-indexed per-GPU power statistics for one template node.

    Arrays are aligned by minute since job start and hold kW per GPU in the
    hardware baseline the templates were measured on. ``support_count`` is
    the number of jobs behind the node; ``ar1_phi`` the fitted lag-1
    autocorrelation of minute residuals.
    """

    key: tuple
    minute_mean: np.ndarray
    minute_std: np.ndarray
    minute_p5: np.ndarray
    minute_p95: np.ndarray
    ar1_phi: float
    support_count: int

    def __post_init__(self) -> None:
        for name in ("minute_mean", "minute_std", "minute_p5", "minute_p95"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        problems = []
        n = len(self.minute_mean)
        if n == 0:
            problems.append("needs at least one minute of statistics")
        for name in ("minute_std", "minute_p5", "minute_p95"):
            if len(getattr(self, name)) != n:
                problems.append(f"{name} length must match minute_mean")
        if n and len(self.minute_std) == n and np.any(self.minute_std < 0):
            problems.append("minute_std must be nonnegative")
        if (
            n
            and len(self.minute_p5) == n
            and len(self.minute_p95) == n
            and (
                np.any(self.minute_p5 > self.minute_mean + 1e-9)
                or np.any(self.minute_mean > self.minute_p95 + 1e-9)
            )
        ):
            problems.append("band must satisfy p5 <= mean <= p95")
        if not -1.0 < self.ar1_phi < 1.0:
            problems.append("ar1_phi must lie strictly inside (-1, 1)")
        if self.support_count < 0:
            problems.append("support_count must be nonnegative")
        if problems:
            raise ConfigurationError(f"template {self.key!r}: " + "; ".join(problems))

    @property
    def n_minutes(self) -> int:
        return len(self.minute_mean)


@dataclass(frozen=True)
class TemplateStore:
    """Backoff hierarchy of power templates.

    Keys are tuples (group,), (group, tl), (group, tl, gpus) or
    (group, tl, gpus, runtime_bin). ``runtime_bin_edges_log`` optionally
    maps (group, tl, gpus) to ascending log-runtime bin edges.
    """

    nodes: dict[tuple, PowerTemplate]
    runtime_bin_edges_log: dict[tuple, np.ndarray]

    def runtime_bin(self, group: str, tl: int, gpus: int, runtime_s: float) -> int | None:
        edges = self.runtime_bin_edges_log.get((group, tl, gpus))
        if edges is None or len(edges) < 2:
            return None
        pos = int(np.searchsorted(edges, math.log(runtime_s), side="right")) - 1
        return min(max(pos, 0), len(edges) - 2)


def select_template(store: TemplateStore, key: tuple, gate: int) -> PowerTemplate:
    """Resolve a template by hard backoff with a support-count gate.

    ``key`` is (group, tl, gpus, runtime_bin) where runtime_bin may be None.
    The chain (group, tl, gpus, bin) -> (group, tl, gpus) -> (group, tl) ->
    (group,) is walked in order and the first node with support_count >=
    gate wins and is returned as stored.
    """
    group, tl, gpus, rbin = key
    chain = []
    if rbin is not None:
        chain.append((group, tl, gpus, rbin))
    chain.extend([(group, tl, gpus), (group, tl), (group,)])
    for node_key in chain:
        node = store.nodes.get(node_key)
        if node is not None and node.support_count >= gate:
            return node
    raise ConfigurationError(
        "no power template meets the support gate "
        f"{gate}; chain inspected: {chain}"
    )


@dataclass(frozen=True)
class PowerSynthesisConfig:
    """Global knobs for trace synthesis.

    ``noise_factor`` scales the residual amplitude, ``hw_factor`` rescales
    the measured per-GPU power to the simulated hardware generation.
    """

    noise_factor: float = 1.0
    hw_factor: float = 1.0
    template_gate: int = 194

    def __post_init__(self) -> None:
        if self.noise_factor < 0 or self.hw_factor <= 0 or self.template_gate < 0:
            raise ConfigurationError("invalid power synthesis configuration")


# job minutes handled per vector pass of the template step, so the
# transient arrays stay small at cluster scale
_CHUNK_MINUTES = 1 << 16


def synthesize_power(
    templates: Sequence[PowerTemplate],
    runtimes_s: Sequence[float],
    gpu_counts: Sequence[int],
    cfg: PowerSynthesisConfig,
    rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-job power traces in kW, one value per started job minute.

    Job i has ``templates[i]``, ``runtimes_s[i]``, ``gpu_counts[i]`` and
    the i-th generator of ``rngs``; its trace has ceil(runtime / 60)
    entries. Every draw of job i is made before the next generator is
    asked for, so ``rngs`` may yield one generator reseeded per job, as
    ``seeds.substreams`` does. Returns all traces as one flat array, job
    after job, and each trace's length. Integration over wall-clock
    windows weights a job's final minute by its fractional occupancy.

    raw(t) = mean(t) + noise_factor * std(t) * eps(t), clipped to
    [p5(t), p95(t)] before scaling, then multiplied by the GPU count and
    the hardware factor; minutes past the template's end use its last
    minute. eps is a stationary AR(1) path with unit marginal variance and
    lag-1 autocorrelation phi = ``ar1_phi``: eps[0] = z[0] and
    eps[t] = phi * eps[t-1] + sqrt(1 - phi^2) * z[t], where z holds the
    job's standard normal shocks, drawn by one call on its generator.
    """
    lengths = np.ceil(np.asarray(runtimes_s, dtype=float) / 60.0).astype(np.int64)
    offsets = np.cumsum(lengths) - lengths
    # each job's stretch of power holds its shocks, then its AR(1) path,
    # then its trace
    power = np.empty(int(lengths.sum()))
    if not templates:
        return power, lengths
    for rng, start, n in zip(rngs, offsets.tolist(), lengths.tolist()):
        rng.standard_normal(out=power[start : start + n])
    phi = np.array([t.ar1_phi for t in templates])
    _ar1_in_place(power, offsets, lengths, phi)

    # the distinct templates' minute statistics, one after another
    unique = list({id(t): t for t in templates}.values())
    tpl_len = np.array([t.n_minutes for t in unique])
    tpl_start = np.cumsum(tpl_len) - tpl_len
    row = {id(t): i for i, t in enumerate(unique)}
    tpl = np.array([row[id(t)] for t in templates])
    mean, std, p5, p95 = (
        np.concatenate([getattr(t, name) for t in unique])
        for name in ("minute_mean", "minute_std", "minute_p5", "minute_p95")
    )
    # flat position p of job j's minute t reads statistics row
    # min(p + first[j], last[j])
    first = tpl_start[tpl] - offsets
    last = tpl_start[tpl] + tpl_len[tpl] - 1
    scale = cfg.hw_factor * np.asarray(gpu_counts)
    for lo in range(0, len(power), _CHUNK_MINUTES):
        part = power[lo : lo + _CHUNK_MINUTES]
        pos = np.arange(lo, lo + len(part))
        job = np.searchsorted(offsets, pos, side="right") - 1
        stat = np.minimum(pos + first[job], last[job])
        raw = std[stat]
        raw *= cfg.noise_factor
        raw *= part
        raw += mean[stat]
        np.clip(raw, p5[stat], p95[stat], out=part)
        part *= scale[job]
    return power, lengths


def _ar1_in_place(
    eps: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, phi: np.ndarray
) -> None:
    """Turn each job's shocks in ``eps`` into its AR(1) path, in place.

    One vector step per job minute t >= 1 updates every job still running
    at t; ordered longest first, those jobs are a prefix of the order. Once
    only the longest job runs, a scalar loop finishes its path. Each value
    gets phi * previous and sqrt(1 - phi^2) * shock as two rounded products
    and then their rounded sum, as the per-minute recursion does (CPython
    rounds each float operation; it fuses none). Jobs with phi == 0 keep
    their shocks.
    """
    ar = np.flatnonzero(phi != 0.0)
    ar = ar[np.argsort(-lengths[ar], kind="stable")]
    if len(ar) == 0:  # n[0] below needs one AR(1) job
        return
    start, n = offsets[ar], lengths[ar]
    job_phi = phi[ar]
    c = np.sqrt(1.0 - job_phi * job_phi)
    # running[t - 1]: how many of the jobs last more than t minutes
    running = np.searchsorted(-n, -np.arange(1, n[0]), side="left")
    prev = eps[start]
    shared = running[running > 1].tolist()
    for t, k in enumerate(shared, start=1):
        pos = start[:k] + t
        cur = eps[pos]
        cur *= c[:k]
        prev = prev[:k]
        prev *= job_phi[:k]
        cur += prev
        eps[pos] = cur
        prev = cur
    lo, hi = int(start[0]) + len(shared) + 1, int(start[0] + n[0])
    if lo < hi:
        value, c0, phi0 = float(prev[0]), float(c[0]), float(job_phi[0])
        path = []
        for shock in eps[lo:hi].tolist():
            value = shock * c0 + value * phi0
            path.append(value)
        eps[lo:hi] = path
