"""Hybrid co-simulation of batch training and LLM serving on shared GPUs.

One scenario run proceeds in a fixed order: size the two workloads so their
expected GPU-hours hit the requested share/utilization targets, generate
inference requests and serve them under per-template GPU budgets, hand the
leftover capacity to the batch scheduler as a time-varying limit, then
synthesize per-job power and assemble the minute-level facility series.

Randomness is partitioned by named substreams, so the batch side of a run
is bit-identical whether or not inference is generated at all.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .batch_arrivals import TimezonePlan, daily_mean, superpose_timezones
from .batch_power import (
    expected_gpu_runtime_hours,
    sample_job,
    select_template,
    synthesize_power,
)
from .config import ModelBundle
from .distributions import CategoricalSampler, sample_nb2
from .errors import ConfigurationError
from .inference_arrivals import (
    apply_verbosity,
    minute_mean_series,
    place_in_minutes,
    sample_tokens,
    split_across_templates,
)
from .metrics import MINUTES_PER_DAY
from .outputs import LabelColumn
from .scheduler import (
    POLICIES,
    CapacityTimeline,
    Job,
    ScheduleTrace,
    accumulate_intervals,
    checkpoint_step,
    schedule,
)
from .seeds import derive_seed, substream
from .serving import (
    SPEED_CLASSES,
    allocate_budgets,
    cap_concurrency,
    concurrency,
    expected_window_seconds,
    gpu_use,
    inference_power,
    service_windows,
)

CAP_MODES = ("capped", "uncapped")

# (field, required type, range test, rule stated when the test fails);
# bools are rejected even though they are integers
_NUMBER_RULES = (
    ("total_gpus", numbers.Integral, lambda v: v >= 1, "must be positive"),
    ("horizon_days", numbers.Integral, lambda v: v >= 0, "must be nonnegative"),
    ("share_target", numbers.Real, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("utilization_target", numbers.Real, lambda v: 0 < v < math.inf,
     "must be positive and finite"),
    ("ckpt_seconds", numbers.Real, lambda v: v >= 1, "must be at least 1 second"),
    ("cap_fraction", numbers.Real, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    ("verbosity_scale", numbers.Real, lambda v: 0 < v < math.inf,
     "must be positive and finite"),
    ("seed", numbers.Integral, lambda v: True, ""),
)


@dataclass(frozen=True)
class Scenario:
    """One point in the operating space of the shared cluster."""

    scenario_id: str = "run"
    total_gpus: int = 64
    horizon_days: int = 7
    share_target: float = 0.5
    utilization_target: float = 0.7
    policy: str = "FCFS_BACKFILL"
    ckpt_seconds: float = 3600.0
    cap_mode: str = "capped"
    cap_fraction: float = 1.0
    verbosity_scale: float = 1.0
    speed_class: str | None = None
    timezones: dict | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        for name, kind, ok, rule in _NUMBER_RULES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a number"
                problems.append(f"{name} must be {noun}, got {value!r}")
            elif not ok(value):
                problems.append(f"{name} {rule}, got {value}")
        if self.policy not in POLICIES:
            problems.append(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.cap_mode not in CAP_MODES:
            problems.append(f"cap_mode must be one of {CAP_MODES}, got {self.cap_mode!r}")
        if self.speed_class is not None and self.speed_class not in SPEED_CLASSES:
            problems.append(
                f"speed_class must be one of {SPEED_CLASSES}, got {self.speed_class!r}"
            )
        if self.timezones is not None:
            try:
                TimezonePlan.from_doc(self.timezones)
            except (ConfigurationError, ValueError, TypeError, AttributeError) as exc:
                problems.append(f"timezones is not a valid timezone plan: {exc}")
        if problems:
            raise ConfigurationError("\n".join(problems))

    @property
    def horizon_minutes(self) -> int:
        return self.horizon_days * MINUTES_PER_DAY

    @property
    def root_seed(self) -> int:
        """The seed every random substream of this scenario derives from."""
        return derive_seed(self.seed, "run", self.scenario_id)


def scenario_from_dict(doc: dict, defaults: dict | None = None) -> Scenario:
    """Merge a scenario document over bundle defaults into a Scenario."""
    merged = {**(defaults or {}), **doc}
    unknown = sorted(set(merged) - set(Scenario.__dataclass_fields__))
    if unknown:
        raise ConfigurationError(f"unknown scenario keys: {', '.join(unknown)}")
    return Scenario(**merged)


@dataclass(frozen=True)
class Serving:
    """Per-template serving state, one row per template, one column per minute,
    and the offered and the unmet inference GPU-hours; ``budgets`` is None
    when serving runs uncapped or has no work."""

    conc: np.ndarray
    conc_cap: np.ndarray
    gpus: np.ndarray
    power_kw: np.ndarray
    unmet: np.ndarray
    budgets: list[int] | None
    offered_h: float
    unmet_h: float


class RequestPart(NamedTuple):
    """The requests of one (group, template) pair: arrival times in seconds
    and token counts, one entry per request, in arrival order."""

    times: np.ndarray
    tokens: np.ndarray
    group: str
    template_id: str


@dataclass
class HybridResult:
    """The stage outputs of one scenario run, on the minute grid, and the
    totals and ratios read from them."""

    scenario: Scenario
    serving: Serving
    busy_batch: np.ndarray
    p_batch_kw: np.ndarray
    jobs: list[Job] = field(repr=False)
    trace: ScheduleTrace = field(repr=False)
    request_parts: list[RequestPart] = field(repr=False)

    @property
    def g_inf(self) -> np.ndarray:
        return self.serving.gpus.sum(axis=0)

    @property
    def p_inf_kw(self) -> np.ndarray:
        return self.serving.power_kw.sum(axis=0)

    @property
    def p_total_kw(self) -> np.ndarray:
        return self.p_batch_kw + self.p_inf_kw

    @property
    def w_inf_offered_h(self) -> float:
        return self.serving.offered_h

    @property
    def unmet_work_h(self) -> float:
        return self.serving.unmet_h

    @property
    def w_batch_offered_h(self) -> float:
        """GPU-hours of the jobs the scheduler admitted."""
        rejected = set(self.trace.rejected_job_ids)
        admitted = (job for job in self.jobs if job.job_id not in rejected)
        return sum((job.gpu * job.runtime_s / 3600.0 for job in admitted), 0.0)

    @property
    def share_realized(self) -> float:
        w_inf, w_batch = self.w_inf_offered_h, self.w_batch_offered_h
        return inference_share(w_inf, w_batch) if w_inf + w_batch > 0.0 else 0.0

    @property
    def utilization_realized(self) -> float:
        s = self.scenario
        work = self.w_inf_offered_h + self.w_batch_offered_h
        return utilization(work, s.total_gpus, s.horizon_days) if s.horizon_days > 0 else 0.0

    @property
    def unmet_work_frac(self) -> float:
        if self.w_inf_offered_h <= 0.0:
            return 0.0
        return self.unmet_work_h / self.w_inf_offered_h


def inference_share(w_inf_h: float, w_batch_h: float) -> float:
    """Fraction of total offered GPU work that is inference."""
    total = w_inf_h + w_batch_h
    if total <= 0.0:
        raise ValueError("no offered work on either side")
    return w_inf_h / total


def utilization(work_gpu_hours: float, total_gpus: int, horizon_days: int) -> float:
    """Offered GPU-hours relative to the full-capacity GPU-hours available."""
    return work_gpu_hours / (total_gpus * horizon_days * 24.0)


def expected_batch_work_gpu_hours(bundle: ModelBundle, scenario: Scenario) -> float:
    """Mean offered batch GPU-hours at unit scale over the horizon."""
    total = 0.0
    for group in bundle.batch_groups:
        per_job = expected_gpu_runtime_hours(bundle.job_models[group])
        model = bundle.daily_models[group]
        mu_days = sum(
            daily_mean(model, day, bundle.calendar)
            for day in range(scenario.horizon_days)
        )
        total += mu_days * per_job
    return total


def expected_inference_work_gpu_hours(bundle: ModelBundle, scenario: Scenario) -> float:
    """Mean offered inference GPU-hours at unit scale over the horizon.

    Window durations include the service-grid tick rounding, so this is
    the exact expectation of the realized offered work per request.
    """
    total = 0.0
    for group in bundle.request_groups:
        dist = apply_verbosity(bundle.token_dists[group], scenario.verbosity_scale)
        per_request = 0.0
        for share, template in zip(bundle.split_shares, bundle.llm_templates):
            mean_dur = expected_window_seconds(
                dist.pmf, template.tpot(scenario.speed_class), bundle.grid_tick_s
            )
            per_request += template.gpu_hours(share * mean_dur)
        mu = minute_mean_series(
            bundle.rate_models[group], scenario.horizon_days, bundle.calendar
        )
        total += float(mu.sum()) * per_request
    return total


def _work_scales(bundle: ModelBundle, scenario: Scenario) -> tuple[float, float]:
    """Mean-scale factors (batch, inference) that hit the share and
    utilization targets: each side's target GPU-hours over its expected
    GPU-hours at unit scale."""
    target_total = (
        scenario.utilization_target
        * scenario.total_gpus
        * scenario.horizon_days
        * 24.0
    )
    scales = []
    problems = []
    for side, share, expected in (
        ("batch", 1.0 - scenario.share_target, expected_batch_work_gpu_hours),
        ("inference", scenario.share_target, expected_inference_work_gpu_hours),
    ):
        target = share * target_total
        scale = 0.0
        if target > 0.0:
            base = expected(bundle, scenario)
            if base <= 0.0:
                problems.append(f"{side} work targeted but expected base work is zero")
            else:
                scale = target / base
        scales.append(scale)
    if problems:
        raise ConfigurationError("\n".join(problems))
    return scales[0], scales[1]


def generate_requests(
    bundle: ModelBundle, scenario: Scenario, fi: float
) -> list[RequestPart]:
    """Per (group, template) arrival times and token counts.

    Returns one part per pair in deterministic (group, template) order,
    even when a pair produced no requests. ``fi`` scales every group's
    mean arrival rate.
    """
    root_seed = scenario.root_seed
    out: list[RequestPart] = []
    samplers = {
        group: CategoricalSampler(
            apply_verbosity(bundle.token_dists[group], scenario.verbosity_scale).pmf
        )
        for group in bundle.request_groups
    }
    for group in bundle.request_groups:
        model = bundle.rate_models[group]
        base_mu = minute_mean_series(model, scenario.horizon_days, bundle.calendar)
        parts = split_across_templates(
            base_mu * fi, model.effective_dispersion, bundle.split_shares
        )
        for template, (mu_m, alpha_m) in zip(bundle.llm_templates, parts):
            template_id = template.template_id
            times, tokens = np.empty(0), np.empty(0, dtype=np.int64)
            if np.any(mu_m > 0.0):
                rng = substream(root_seed, "inference-arrivals", group, template_id)
                counts = sample_nb2(mu_m, alpha_m, rng)
                times = place_in_minutes(counts, rng)
                tokens_rng = substream(root_seed, "inference-tokens", group, template_id)
                tokens = sample_tokens(samplers[group], tokens_rng, times.size)
            out.append(RequestPart(times, tokens, group, template_id))
    return out


def flatten_requests(
    parts: list[RequestPart],
) -> tuple[np.ndarray, LabelColumn, LabelColumn, np.ndarray]:
    """Merge request parts into one time-ordered log of times, group
    labels, template labels and token counts; both label columns are coded
    by each request's part."""
    times = np.concatenate([p.times for p in parts])
    order = np.argsort(times, kind="stable")
    part = np.repeat(np.arange(len(parts)), [p.times.size for p in parts])[order]
    groups = LabelColumn(part, tuple(p.group for p in parts))
    templates = LabelColumn(part, tuple(p.template_id for p in parts))
    tokens = np.concatenate([p.tokens for p in parts])
    return times[order], groups, templates, tokens[order]


def generate_jobs(
    bundle: ModelBundle, scenario: Scenario, fb: float
) -> tuple[list[Job], np.ndarray]:
    """Batch jobs over the horizon with their raw arrival timestamps.

    Job ids are assigned in arrival order; ``fb`` scales every group's
    mean daily count.
    """
    tz_doc = scenario.timezones
    plan = bundle.timezone_plan if tz_doc is None else TimezonePlan.from_doc(tz_doc)
    root_seed = scenario.root_seed
    rows: list[tuple[float, int, int, int, str]] = []
    for group in bundle.batch_groups:
        arrivals = superpose_timezones(
            plan,
            bundle.daily_models[group],
            bundle.intraday_profiles[group],
            scenario.horizon_days,
            substream(root_seed, "batch-arrivals", group),
            bundle.calendar,
            mean_scale=fb,
        )
        job_rng = substream(root_seed, "batch-jobs", group)
        model = bundle.job_models[group]
        for ts in arrivals:
            tl, gpus, runtime = sample_job(model, job_rng)
            runtime_s = max(1, min(int(round(runtime)), int(tl)))
            rows.append((float(ts), runtime_s, int(tl), gpus, group))
    rows.sort(key=lambda r: r[0])  # stable, so ties keep group, then arrival, order
    jobs = []
    for job_id, (ts, runtime_s, tl, gpus, group) in enumerate(rows):
        jobs.append(
            Job(
                job_id=job_id,
                arrival_s=int(math.floor(ts)),
                gpu=gpus,
                runtime_s=runtime_s,
                time_limit_s=tl,
                group=group,
            )
        )
    return jobs, np.array([r[0] for r in rows])


def job_power_trace(
    bundle: ModelBundle, jobs: list[Job], root_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The power traces of ``jobs`` in kW, one entry per started job minute,
    as one flat array, job after job, and each trace's length.

    A job's template and noise depend on that job alone: its shocks come
    from its own substream, so a job's trace is the same in any job list.
    """
    store = bundle.template_store
    gate = bundle.power_cfg.template_gate
    templates = []
    for job in jobs:
        key_bin = store.runtime_bin(job.group, job.time_limit_s, job.gpu, job.runtime_s)
        key = (job.group, job.time_limit_s, job.gpu, key_bin)
        templates.append(select_template(store, key, gate))
    return synthesize_power(
        templates,
        np.array([job.runtime_s for job in jobs]),
        np.array([job.gpu for job in jobs]),
        bundle.power_cfg,
        (substream(root_seed, "job-power", str(job.job_id)) for job in jobs),
    )


# job-minute pieces added up per accumulate_intervals call, so the
# transient arrays stay small at cluster scale
_CHUNK_PIECES = 8192


def _batch_power_series(
    bundle: ModelBundle,
    scenario: Scenario,
    jobs: list[Job],
    trace: ScheduleTrace,
) -> np.ndarray:
    """Facility-level batch power per minute, summed over segment runs.

    A job's power trajectory is indexed by job time. A segment run at
    index k resumes the trajectory at k full checkpoint intervals, so a
    preempted and rerun segment replays its own stretch of the curve.

    Runs are added up in the order of their job in ``jobs``, then in their
    order in ``trace.runs``, and every minute receives its additions in that
    order; floating-point sums depend on it.
    """
    out = np.zeros(scenario.horizon_minutes)
    if not trace.runs:
        return out
    position = {job.job_id: i for i, job in enumerate(jobs)}
    run_pos = np.array([position[run.job_id] for run in trace.runs], dtype=np.int64)
    order = np.argsort(run_pos, kind="stable")
    with_runs = np.unique(run_pos)
    power, lengths = job_power_trace(
        bundle, [jobs[i] for i in with_runs], scenario.root_seed
    )
    runs = trace.run_columns()[order]
    return _add_run_power(
        power,
        np.cumsum(lengths) - lengths,
        lengths,
        np.searchsorted(with_runs, run_pos[order]),
        runs["seg_index"],
        runs["start_s"],
        runs["end_s"],
        checkpoint_step(scenario.ckpt_seconds),
        out,
    )


def _add_run_power(
    power: np.ndarray,
    job_offset: np.ndarray,
    job_len: np.ndarray,
    run_job: np.ndarray,
    run_seg: np.ndarray,
    run_start: np.ndarray,
    run_end: np.ndarray,
    step: int,
    out: np.ndarray,
) -> np.ndarray:
    """Add each run's stretch of its job's power trace into ``out``.

    Job ``j``'s trace is ``power[job_offset[j]:][:job_len[j]]``, one value
    per started job minute. Run ``r`` plays job ``run_job[r]`` from job time
    ``run_seg[r] * step`` over the wall seconds [run_start, run_end), with
    ``run_start >= 0``; what lies past the end of ``out`` is dropped. Each
    run is cut at job-minute edges into pieces of at most 60 s, and a piece
    crossing a wall-minute edge is split into its two one-minute parts.
    Per run, single-minute pieces come first, then first parts, then last
    parts, runs in the given order: the order in which one multi-minute
    ``accumulate_intervals`` call per run adds them.
    """
    n_minutes = len(out)
    run_end = np.minimum(run_end, n_minutes * 60)
    keep = run_end > run_start
    run_job, run_seg, run_start, run_end = (
        a[keep] for a in (run_job, run_seg, run_start, run_end)
    )
    jt0 = run_seg * step
    jt1 = jt0 + (run_end - run_start)
    first_edge = (jt0 // 60 + 1) * 60
    n_pieces = np.maximum((jt1 - first_edge + 59) // 60, 0) + 1
    first_piece = np.cumsum(n_pieces) - n_pieces
    # a run larger than a chunk is a chunk of its own
    starts = np.flatnonzero(np.diff(first_piece // _CHUNK_PIECES, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], len(first_piece)]):
        run = np.repeat(np.arange(lo, hi), n_pieces[lo:hi])
        piece = np.arange(len(run)) + first_piece[lo] - first_piece[run]
        edge = first_edge[run] + 60 * (piece - 1)
        edge0 = np.where(piece == 0, jt0[run], edge)
        edge1 = np.where(piece == n_pieces[run] - 1, jt1[run], edge + 60)
        job = run_job[run]
        minute = np.minimum(jt0[run] // 60 + piece, job_len[job] - 1)
        values = power[job_offset[job] + minute]
        s = run_start[run] + (edge0 - jt0[run])
        e = run_start[run] + (edge1 - jt0[run])
        ms, me = s // 60, (e - 1) // 60
        single = ms == me
        multi = ~single
        cut = me[multi] * 60
        part_order = np.argsort(
            np.concatenate((3 * run[single], 3 * run[multi] + 1, 3 * run[multi] + 2)),
            kind="stable",
        )
        accumulate_intervals(
            np.concatenate((s[single], s[multi], cut))[part_order],
            np.concatenate((e[single], cut, e[multi]))[part_order],
            np.concatenate((values[single], values[multi], values[multi]))[part_order],
            n_minutes,
            out=out,
        )
    return out


def serve_inference(
    bundle: ModelBundle,
    scenario: Scenario,
    request_parts: list[RequestPart],
) -> Serving:
    """Serve the requests under per-template budgets.

    Each request part is windowed on its own, so its float temporaries live
    for that part only; a template keeps two int32 tick edges per request
    and counts them once. Offered work is the integer sum of the windows'
    ticks, exact in any order.
    """
    n_minutes = scenario.horizon_minutes
    tick = bundle.grid_tick_s
    n_ticks = n_minutes * (60 // tick)
    templates = bundle.llm_templates
    conc = np.zeros((len(templates), n_minutes))
    offered = np.zeros(len(templates))
    for t_index, template in enumerate(templates):
        parts = [p for p in request_parts if p.template_id == template.template_id]
        tpot_s = template.tpot(scenario.speed_class)
        edges = np.empty((2, sum(p.times.size for p in parts)), dtype=np.int32)
        work_ticks = 0
        lo = 0
        for part in parts:
            starts, ticks = service_windows(part.times, part.tokens, tpot_s, tick)
            work_ticks += int(ticks.sum())
            hi = lo + starts.size
            np.clip(starts, 0, n_ticks, out=edges[0, lo:hi])
            np.clip(starts + ticks, 0, n_ticks, out=edges[1, lo:hi])
            lo = hi
        offered[t_index] = template.gpu_hours(work_ticks * tick)
        if edges.size:  # a template without requests keeps its zero row
            conc[t_index] = concurrency(edges[0], edges[1], n_minutes, tick)
    w_inf_offered = float(offered.sum())
    # template constants as columns, so each serving rule runs once on conc
    max_batch = np.array([[t.max_batch] for t in templates])
    per_instance = np.array([[t.gpus_per_instance] for t in templates])
    budgets = budget_col = None
    if scenario.cap_mode == "capped" and w_inf_offered > 0.0:
        pool = int(math.floor(scenario.cap_fraction * scenario.total_gpus))
        budgets = allocate_budgets(pool, offered, per_instance[:, 0])
        budget_col = np.array(budgets)[:, None]
    conc_cap = cap_concurrency(conc, max_batch, budget_col, per_instance)
    gpus = gpu_use(conc_cap, max_batch, per_instance)
    power_kw = inference_power(conc_cap, np.array([[t.rho_kw] for t in templates]))
    unmet = conc - conc_cap
    unmet_slot_s = unmet.sum(axis=1) * 60.0
    unmet_h = float(sum(t.gpu_hours(s) for t, s in zip(templates, unmet_slot_s)))
    return Serving(conc, conc_cap, gpus, power_kw, unmet, budgets, w_inf_offered, unmet_h)


def run_batch(
    bundle: ModelBundle, scenario: Scenario, fb: float, g_inf: np.ndarray
) -> tuple[list[Job], ScheduleTrace]:
    """Generate the batch jobs and schedule them on the GPUs serving left."""
    # only uncapped serving can outgrow the cluster: budgets fit the pool
    excess = g_inf - scenario.total_gpus
    if np.max(excess, initial=0) > 0:
        minute = int(excess.argmax())
        raise ConfigurationError(
            f"cap_mode 'uncapped': inference alone needs {g_inf[minute]} GPUs in "
            f"minute {minute}: {excess[minute]} over total_gpus "
            f"{scenario.total_gpus}"
        )
    capacity = CapacityTimeline.from_minute_series(
        np.concatenate([scenario.total_gpus - g_inf, [scenario.total_gpus]])
    )
    jobs, _ = generate_jobs(bundle, scenario, fb)
    trace = schedule(jobs, capacity, scenario.policy, ckpt_s=scenario.ckpt_seconds)
    return jobs, trace


def run_hybrid(bundle: ModelBundle, scenario: Scenario) -> HybridResult:
    """Run one scenario end to end and return the minute-level result."""
    fb, fi = _work_scales(bundle, scenario)
    request_parts = generate_requests(bundle, scenario, fi)
    serving = serve_inference(bundle, scenario, request_parts)
    g_inf = serving.gpus.sum(axis=0)
    jobs, trace = run_batch(bundle, scenario, fb, g_inf)
    busy_batch = trace.busy_minutes(scenario.horizon_minutes)
    p_batch = _batch_power_series(bundle, scenario, jobs, trace)

    # the residual-capacity construction makes this hold by arithmetic;
    # fail loudly if scheduling ever breaks it
    overrun = float(np.max(g_inf + busy_batch - scenario.total_gpus, initial=0.0))
    if overrun > 1e-9:
        raise RuntimeError(
            f"capacity conservation violated by {overrun} GPUs in a minute"
        )
    return HybridResult(scenario, serving, busy_batch, p_batch, jobs, trace, request_parts)
