"""Independent reference implementations used to check the real modules.

Everything in this file is deliberately written from the rule statements,
not from the package source: plain event replays, exhaustive enumeration,
and closed-form arithmetic. Slow is fine here; these run on tiny inputs.
No command of the package runs any of it.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import warnings
from bisect import insort
from dataclasses import dataclass

import numpy as np

from dcpowersim.batch_power import (
    PowerSynthesisConfig,
    PowerTemplate,
    select_template,
    synthesize_power,
)
from dcpowersim.cosim import Serving
from dcpowersim.outputs import (
    ARRIVALS_COLUMNS,
    BUSY_COLUMNS,
    DETAIL_COLUMNS,
    JOB_POWER_COLUMNS,
    JOBS_COLUMNS,
    REQUESTS_COLUMNS,
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    fmt,
)
from dcpowersim.scheduler import (
    BackfillRecord,
    CapacityTimeline,
    ScheduleTrace,
    SegmentRun,
    accumulate_intervals,
)
from dcpowersim.seeds import substream
from dcpowersim.serving import allocate_budgets, cap_concurrency, gpu_use, inference_power

MINUTES_PER_DAY = 1_440

# guards ceil against float representation error on exact multiples
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class TinyJob:
    job_id: int
    arrival: int
    gpu: int
    runtime: int


def _policy_key(policy: str, job: TinyJob):
    if policy == "FCFS_BACKFILL":
        return (job.arrival, job.job_id)
    return (job.gpu, job.runtime, job.arrival, job.job_id)


def plain_fcfs_starts(jobs: list[TinyJob], capacity: int) -> dict[int, int]:
    """Start times under first-come first-served with no backfilling.

    Jobs start strictly in (arrival, job_id) order; a job that does not
    fit blocks everything behind it until enough running jobs finish.
    """
    order = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    running: list[tuple[int, int]] = []  # (end, gpu)
    starts: dict[int, int] = {}
    prev_start = 0
    for job in order:
        t = max(job.arrival, prev_start)
        while True:
            used = sum(g for end, g in running if end > t)
            if used + job.gpu <= capacity:
                break
            t = min(end for end, g in running if end > t)
        starts[job.job_id] = t
        prev_start = t
        running.append((t + job.runtime, job.gpu))
    return starts


def replay_is_admissible(
    jobs: list[TinyJob], capacity: int, policy: str, assignment: dict[int, int]
) -> bool:
    """Check a start-time assignment against the declarative queue rules.

    At every event time, with the waiting queue in policy-key order: the
    head must start the moment it fits; while the head does not fit, its
    earliest feasible reservation is computed once and each later queued
    job must start exactly when it both fits now and completes by that
    reservation. Any deviation, a job starting when the rules forbid it
    or idling when they force it, makes the assignment inadmissible.
    """
    ids = {j.job_id for j in jobs}
    if set(assignment) != ids:
        return False
    by_id = {j.job_id: j for j in jobs}
    arrivals = {j.arrival for j in jobs}
    ends = {assignment[j.job_id] + j.runtime for j in jobs}
    for jid, start in assignment.items():
        if start < by_id[jid].arrival:
            return False
        if start not in arrivals and start not in ends:
            return False  # not aligned to any event

    times = sorted(arrivals | ends)
    for t in times:
        # segments whose run strictly covers t; completions at t have freed
        running = [
            j for j in jobs
            if assignment[j.job_id] < t < assignment[j.job_id] + j.runtime
        ] + [j for j in jobs if assignment[j.job_id] == t]
        # capacity must hold the instant the starters are admitted
        if sum(j.gpu for j in running) > capacity:
            return False

    for t in times:
        active = [
            j for j in jobs
            if assignment[j.job_id] < t < assignment[j.job_id] + j.runtime
        ]
        used = sum(j.gpu for j in active)
        queue = sorted(
            (j for j in jobs if j.arrival <= t and assignment[j.job_id] >= t),
            key=lambda j: _policy_key(policy, j),
        )
        pending_starters = {j.job_id for j in queue if assignment[j.job_id] == t}
        while queue:
            head = queue[0]
            if head.gpu <= capacity - used:
                if head.job_id not in pending_starters:
                    return False  # head fits but idles
                pending_starters.discard(head.job_id)
                active.append(head)
                used += head.gpu
                queue.pop(0)
                continue
            # head blocked: one reservation, one scan over the rest
            free = capacity - used
            reservation = math.inf
            for end, g in sorted(
                (assignment[j.job_id] + j.runtime, j.gpu) for j in active
            ):
                free += g
                if free >= head.gpu:
                    reservation = end
                    break
            for cand in list(queue[1:]):
                allowed = (
                    cand.gpu <= capacity - used
                    and t + cand.runtime <= reservation
                )
                starts_now = cand.job_id in pending_starters
                if allowed != starts_now:
                    return False
                if starts_now:
                    pending_starters.discard(cand.job_id)
                    active.append(cand)
                    used += cand.gpu
                    queue.remove(cand)
            break
        if pending_starters:
            return False  # a start the rules never granted
    return True


def enumerate_admissible(
    jobs: list[TinyJob], capacity: int, policy: str
) -> list[dict[int, int]]:
    """All admissible event-aligned start assignments, by exhaustive search.

    Branches over every capacity-feasible single start at every event time
    in chronological order, then filters the completed assignments through
    the replay checker. The deterministic queue rules should leave exactly
    one survivor.
    """
    results: list[dict[int, int]] = []
    seen_partial: set[frozenset] = set()

    def dfs(assignment: dict[int, int]) -> None:
        key = frozenset(assignment.items())
        if key in seen_partial:
            return
        seen_partial.add(key)
        if len(assignment) == len(jobs):
            if replay_is_admissible(jobs, capacity, policy, assignment):
                results.append(dict(assignment))
            return
        pending = [j for j in jobs if j.job_id not in assignment]
        horizon = {j.arrival for j in pending}
        horizon.update(
            assignment[j.job_id] + j.runtime
            for j in jobs
            if j.job_id in assignment
        )
        floor = max(assignment.values(), default=0)
        for t in sorted(horizon):
            if t < floor:
                continue
            used = sum(
                j.gpu
                for j in jobs
                if j.job_id in assignment
                and assignment[j.job_id] <= t < assignment[j.job_id] + j.runtime
            )
            for j in pending:
                if j.arrival <= t and j.gpu <= capacity - used:
                    assignment[j.job_id] = t
                    dfs(assignment)
                    del assignment[j.job_id]

    dfs({})
    deduped = []
    for a in results:
        if a not in deduped:
            deduped.append(a)
    return deduped


# The scheduler with a full queue rescan and a fresh sort of the running
# segments for each blocked head: the package's former engine, kept as the
# reference whose every ScheduleTrace field ``scheduler.schedule`` must equal.
# It states each scheduling rule itself and takes only the data types from
# ``dcpowersim.scheduler``.


def split_at_checkpoints(runtime_s: int, ckpt_s: float) -> list[int]:
    """A job's segment durations: the scheduler counts whole seconds, so
    a job checkpoints every ``floor(ckpt_s)`` seconds of its run, giving
    that many seconds per full segment and then the remainder, if any. An
    infinite interval, or one at least the runtime, leaves the whole job
    one segment."""
    if ckpt_s >= runtime_s:
        return [runtime_s]
    step = math.floor(ckpt_s)
    full, rest = runtime_s // step, runtime_s % step
    return [step] * full + ([rest] if rest else [])


@dataclass
class _RefSegment:
    job: object
    seg_index: int
    duration_s: int
    is_last: bool


def _segment_key(policy: str, seg: _RefSegment) -> tuple:
    job = seg.job
    if policy == "FCFS_BACKFILL":
        return (job.arrival_s, job.job_id, seg.seg_index)
    return (job.gpu, job.runtime_s, job.arrival_s, job.job_id, seg.seg_index)


class _ReferenceEngine:
    """Event loop over (time, kind, serial) with kinds completion, capacity
    change, arrival; a full queue rescan and a fresh sort of every running
    segment for each blocked head."""

    def __init__(self, jobs, capacity: CapacityTimeline, policy: str, ckpt_s: float):
        self.policy = policy
        self.trace = ScheduleTrace()
        self.queue: list[tuple[tuple, _RefSegment]] = []
        self.running: dict[int, tuple[_RefSegment, int]] = {}
        self.usage = 0
        self.current_cap = capacity_at(capacity, 0)
        self.serial = itertools.count()
        self.heap: list = []
        self.segments_of: dict[int, list[int]] = {}
        for job in jobs:
            if job.gpu > max(capacity.values.tolist()):
                self.trace.rejected_job_ids.append(job.job_id)
                continue
            durations = split_at_checkpoints(job.runtime_s, ckpt_s)
            self.segments_of[job.job_id] = durations
            first = _RefSegment(job, 0, durations[0], len(durations) == 1)
            self._push(job.arrival_s, 2, first)
        for t, value in zip(capacity.times.tolist()[1:], capacity.values.tolist()[1:]):
            self._push(t, 1, value)

    def _push(self, time: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (time, kind, next(self.serial), payload))

    def _enqueue(self, seg: _RefSegment) -> None:
        insort(self.queue, (_segment_key(self.policy, seg), seg))

    def _start(self, seg: _RefSegment, t: int) -> None:
        run_id = next(self.serial)
        self.running[run_id] = (seg, t)
        self.usage += seg.job.gpu
        self.trace.queue_delays.setdefault(seg.job.job_id, t - seg.job.arrival_s)
        self._push(t + seg.duration_s, 0, run_id)

    def _finish_run(self, run_id: int, end: int, completed: bool) -> _RefSegment:
        seg, start = self.running.pop(run_id)
        self.usage -= seg.job.gpu
        self.trace.runs.append(
            SegmentRun(seg.job.job_id, seg.seg_index, start, end, seg.job.gpu, completed)
        )
        return seg

    def _reservation(self, t: int, gpu: int) -> float:
        if gpu > self.current_cap:
            return math.inf
        free = self.current_cap - self.usage
        if free >= gpu:
            return t
        for end, g in sorted(
            (start + seg.duration_s, seg.job.gpu) for seg, start in self.running.values()
        ):
            free += g
            if free >= gpu:
                return end
        return math.inf

    def _on_completion(self, run_id: int, t: int) -> None:
        if run_id not in self.running:
            return  # stale event for a preempted run
        seg = self._finish_run(run_id, t, completed=True)
        durations = self.segments_of[seg.job.job_id]
        if not seg.is_last:
            nxt = seg.seg_index + 1
            self._enqueue(
                _RefSegment(seg.job, nxt, durations[nxt], nxt == len(durations) - 1)
            )

    def _on_capacity(self, value: int, t: int) -> None:
        self.current_cap = value
        # evict the newest run until usage fits: latest start, and among
        # runs started together the larger job id
        while self.usage > value:
            run_id = max(
                self.running,
                key=lambda r: (self.running[r][1], self.running[r][0].job.job_id),
            )
            seg = self._finish_run(run_id, t, completed=False)
            self.trace.preemptions.append(self.trace.runs[-1])
            self._enqueue(seg)

    def _pass(self, t: int) -> None:
        while self.queue:
            _, head = self.queue[0]
            if head.job.gpu <= self.current_cap - self.usage:
                self.queue.pop(0)
                self._start(head, t)
                continue
            reservation = self._reservation(t, head.job.gpu)
            i = 1
            while i < len(self.queue):
                _, seg = self.queue[i]
                if (
                    seg.job.gpu <= self.current_cap - self.usage
                    and t + seg.duration_s <= reservation
                ):
                    self.queue.pop(i)
                    self._start(seg, t)
                    self.trace.backfills.append(
                        BackfillRecord(
                            t, seg.job.job_id, seg.seg_index,
                            head.job.job_id, reservation,
                        )
                    )
                else:
                    i += 1
            return

    def run(self) -> ScheduleTrace:
        while self.heap:
            t = self.heap[0][0]
            while self.heap and self.heap[0][0] == t:
                _, kind, _, payload = heapq.heappop(self.heap)
                if kind == 0:
                    self._on_completion(payload, t)
                elif kind == 1:
                    self._on_capacity(payload, t)
                else:
                    self._enqueue(payload)
            self._pass(t)
        return self.trace


def schedule_reference(
    jobs,
    capacity: CapacityTimeline,
    policy: str = "FCFS_BACKFILL",
    ckpt_s: float = math.inf,
) -> ScheduleTrace:
    """``scheduler.schedule`` with a full rescan and sort per blocked head."""
    return _ReferenceEngine(jobs, capacity, policy, ckpt_s).run()


def first_starts(trace: ScheduleTrace, jobs) -> dict[int, int]:
    """Each started job's first start: its arrival plus its queue delay."""
    arrivals = {job.job_id: job.arrival_s for job in jobs}
    return {job_id: arrivals[job_id] + d for job_id, d in trace.queue_delays.items()}


def sample_categorical(pmf, rng: np.random.Generator, size=None):
    """Indices drawn from a pmf by binary search on the normalized cumulative
    sum: the reference for ``distributions.CategoricalSampler``."""
    cdf = np.cumsum(np.asarray(pmf, dtype=float))
    if cdf[-1] <= 0:
        raise ValueError("pmf has no mass")
    cdf /= cdf[-1]
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right")


def brute_concurrency(
    windows: list[tuple[float, float]], n_minutes: int, step_s: float = 0.25
) -> list[float]:
    """Minute-averaged active-request counts by dense midpoint sampling.

    Exact whenever all window endpoints are multiples of ``step_s``.
    """
    out = []
    ticks = int(round(60.0 / step_s))
    for m in range(n_minutes):
        total = 0.0
        for i in range(ticks):
            t = m * 60 + (i + 0.5) * step_s
            total += sum(1 for s, e in windows if s <= t < e)
        out.append(total / ticks)
    return out


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def revealed_capacity(busy_minutes) -> CapacityTimeline:
    """Running maximum of daily nearest-rank 99th-percentile busy GPUs.

    Each complete day contributes its p99, so the proxy tracks sustained
    occupancy rather than single-minute spikes, and the running maximum,
    rounded up to whole GPUs, makes it nondecreasing. A trailing partial
    day is excluded with a warning.
    """
    busy = [float(b) for b in busy_minutes]
    n_days, leftover = divmod(len(busy), MINUTES_PER_DAY)
    if leftover:
        warnings.warn("trailing partial day excluded from revealed capacity")
    if n_days == 0:
        raise ValueError("need at least one complete day of busy-GPU minutes")
    times: list[int] = []
    values: list[int] = []
    running = -math.inf
    for d in range(n_days):
        day = busy[d * MINUTES_PER_DAY : (d + 1) * MINUTES_PER_DAY]
        running = max(running, nearest_rank_quantile(day, 0.99))
        level = math.ceil(running - 1e-9)
        if not values or level != values[-1]:
            times.append(d * MINUTES_PER_DAY * 60)
            values.append(level)
    return CapacityTimeline(times, values)


def flat_capacity(gpus: int) -> CapacityTimeline:
    """A capacity timeline that holds ``gpus`` from t=0 on."""
    return CapacityTimeline([0], [gpus])


def capacity_at(timeline: CapacityTimeline, t: float) -> int:
    """The GPUs a capacity timeline holds at time ``t``: the value of the
    last step that starts at or before ``t``."""
    value = 0
    for start, step_value in zip(timeline.times.tolist(), timeline.values.tolist()):
        if start > t:
            break
        value = step_value
    return value


def usage_step(runs) -> tuple[np.ndarray, np.ndarray]:
    """Exact occupied-GPU step function (times, values) of segment runs."""
    events: dict[int, int] = {}
    for r in runs:
        events[r.start_s] = events.get(r.start_s, 0) + r.gpu
        events[r.end_s] = events.get(r.end_s, 0) - r.gpu
    times = sorted(events)
    deltas = [events[t] for t in times]
    return np.array(times, dtype=np.int64), np.cumsum(deltas, dtype=np.int64)


def service_window(
    arrival_s: float, tokens: int, tpot_s: float, grid_tick_s: int
) -> tuple[float, float]:
    """(start, duration) of one request's service window in seconds.

    The window starts at the first tick at or after arrival and lasts
    ceil(tokens * tpot / tick) ticks, at least one; exact multiples stay
    unchanged.
    """
    if tokens <= 0 or tpot_s <= 0 or grid_tick_s <= 0:
        raise ValueError("tokens, tpot and tick must be positive")
    start = grid_tick_s * math.ceil(arrival_s / grid_tick_s - _GRID_EPS)
    ticks = max(1, math.ceil(tokens * tpot_s / grid_tick_s - _GRID_EPS))
    return float(start), float(grid_tick_s * ticks)


def token_mean(dist) -> float:
    """Mean token count of a pmf on support {1..support_max}."""
    return sum((i + 1) * float(p) for i, p in enumerate(dist.pmf))


# Serving with each template's parts concatenated: the package's former
# path, kept as the reference for its part-at-a-time pass in tick units.


def serve_inference_concatenated(bundle, scenario, request_parts) -> Serving:
    """``cosim.serve_inference`` with one window array per template: its
    parts' arrivals and tokens concatenated, windows in seconds, and the
    window edges added up as floats by ``np.add.at``."""
    n_minutes = scenario.horizon_minutes
    tick = bundle.grid_tick_s
    per_minute = 60 // tick
    n_ticks = n_minutes * per_minute
    templates = bundle.llm_templates
    conc = np.zeros((len(templates), n_minutes))
    offered = np.zeros(len(templates))
    for t_index, template in enumerate(templates):
        parts = [p for p in request_parts if p.template_id == template.template_id]
        arrivals = np.concatenate([p.times for p in parts]).astype(float)
        tokens = np.concatenate([p.tokens for p in parts]).astype(float)
        tpot_s = template.tpot(scenario.speed_class)
        starts = (tick * np.ceil(arrivals / tick - _GRID_EPS)).astype(np.int64)
        ticks = np.maximum(1, np.ceil(tokens * tpot_s / tick - _GRID_EPS))
        durations = (tick * ticks).astype(np.int64)
        offered[t_index] = template.gpu_hours(durations.sum())
        delta = np.zeros(n_ticks + 1)
        np.add.at(delta, np.clip(starts // tick, 0, n_ticks), 1.0)
        np.add.at(delta, np.clip((starts + durations) // tick, 0, n_ticks), -1.0)
        active = np.cumsum(delta[:-1])
        conc[t_index] = active.reshape(n_minutes, per_minute).sum(axis=1) / per_minute
    w_inf_offered = float(offered.sum())
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


# Batch power added up one segment run at a time: the package's former
# loop, kept as the reference for its chunked pass over all runs.


def add_one_run(series, jt0, start_s, end_s, n_minutes, out) -> None:
    """Add one run, playing ``series`` from job second ``jt0`` over the wall
    seconds [start_s, end_s), cut into pieces at job-minute edges."""
    span = end_s - start_s
    if span <= 0:
        return
    jt1 = jt0 + span
    first_edge = (jt0 // 60 + 1) * 60
    inner = np.arange(first_edge, jt1, 60, dtype=np.int64)
    edges = np.concatenate(([jt0], inner, [jt1]))
    minute_idx = np.minimum(edges[:-1] // 60, len(series) - 1)
    values = series[minute_idx]
    wall = start_s + (edges - jt0)
    accumulate_intervals(wall[:-1], wall[1:], values, n_minutes, out=out)


# Per-job power synthesis with the AR(1) recursion as a loop over minutes:
# the package's former path, kept as the reference for its all-jobs pass.


def ar1_residuals(phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) residual path with unit marginal variance.

    eps[0] ~ N(0, 1); eps[t] = phi * eps[t-1] + sqrt(1 - phi^2) * N(0, 1),
    so every marginal has variance 1 and lag-1 autocorrelation phi.
    """
    if not -1.0 < phi < 1.0:
        raise ValueError("phi must lie strictly inside (-1, 1)")
    shocks = rng.standard_normal(n)
    if n == 0 or phi == 0.0:
        return shocks
    out = np.empty(n)
    out[0] = shocks[0]
    c = math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + c * shocks[t]
    return out


def synthesize_job_power(template, runtime_s, gpu_count, cfg, rng) -> np.ndarray:
    """One job's power trace in kW, one value per started job minute:
    mean + noise_factor * std * AR(1) residuals, clipped to [p5, p95],
    times the GPU count and the hardware factor."""
    if runtime_s <= 0:
        raise ValueError("runtime must be positive")
    if gpu_count <= 0:
        raise ValueError("gpu_count must be positive")
    n = int(math.ceil(runtime_s / 60.0))
    idx = np.minimum(np.arange(n), template.n_minutes - 1)
    mean = template.minute_mean[idx]
    std = template.minute_std[idx]
    p5 = template.minute_p5[idx]
    p95 = template.minute_p95[idx]
    eps = ar1_residuals(template.ar1_phi, n, rng)
    raw = mean + cfg.noise_factor * std * eps
    clipped = np.clip(raw, p5, p95)
    return cfg.hw_factor * gpu_count * clipped


def job_power_trace_per_job(bundle, job, root_seed) -> np.ndarray:
    """``cosim.job_power_trace`` for one job, synthesized on its own."""
    store = bundle.template_store
    key_bin = store.runtime_bin(job.group, job.time_limit_s, job.gpu, job.runtime_s)
    key = (job.group, job.time_limit_s, job.gpu, key_bin)
    template = select_template(store, key, bundle.power_cfg.template_gate)
    return synthesize_job_power(
        template,
        job.runtime_s,
        job.gpu,
        bundle.power_cfg,
        substream(root_seed, "job-power", str(job.job_id)),
    )


def residual_path(phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` minutes of AR(1) residuals with lag-1 autocorrelation ``phi``,
    from the package's all-jobs pass on one job: a one-GPU job whose
    template has mean 0, std 1 and no band, so its trace is the path."""
    template = PowerTemplate(
        key=("residuals",),
        minute_mean=[0.0],
        minute_std=[1.0],
        minute_p5=[-math.inf],
        minute_p95=[math.inf],
        ar1_phi=phi,
        support_count=0,
    )
    power, _ = synthesize_power([template], [60 * n], [1], PowerSynthesisConfig(), [rng])
    return power


def batch_power_per_run(bundle, scenario, jobs, trace) -> np.ndarray:
    """``cosim._batch_power_series`` with one accumulate call per run."""
    n_minutes = scenario.horizon_minutes
    out = np.zeros(n_minutes)
    runs_by_job: dict[int, list] = {}
    for run in trace.runs:
        runs_by_job.setdefault(run.job_id, []).append(run)
    step = 0 if math.isinf(scenario.ckpt_seconds) else int(scenario.ckpt_seconds)
    for job in jobs:
        runs = runs_by_job.get(job.job_id)
        if not runs:
            continue
        series = job_power_trace_per_job(bundle, job, scenario.root_seed)
        for run in runs:
            add_one_run(
                series, run.seg_index * step, run.start_s, run.end_s, n_minutes, out
            )
    return out


def add_run_power_per_run(
    power, job_offset, job_len, run_job, run_seg, run_start, run_end, step, out
) -> np.ndarray:
    """``cosim._add_run_power`` with one accumulate call per run."""
    for j, seg, start, end in zip(run_job, run_seg, run_start, run_end):
        series = power[job_offset[j] : job_offset[j] + job_len[j]]
        add_one_run(series, int(seg) * step, int(start), int(end), len(out), out)
    return out


def ols_closed_form(xs, ys) -> tuple[float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


# The CSV writers as one csv.writer row per file row, with fmt on every cell:
# the package's former writers, kept as the reference for its columnar one.


def write_rows(path, header, rows) -> None:
    """The per-row CSV writer: csv.writer, with ``fmt`` on every cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def rows_series_csv(path, result) -> None:
    rows = zip(
        range(result.scenario.horizon_minutes),
        result.p_total_kw,
        result.p_batch_kw,
        result.p_inf_kw,
        result.g_inf,
        result.busy_batch,
    )
    write_rows(path, SERIES_COLUMNS, rows)


def rows_arrivals_csv(path, times, groups) -> None:
    write_rows(path, ARRIVALS_COLUMNS, zip(times, groups))


def rows_requests_csv(path, times, groups, templates, tokens) -> None:
    write_rows(path, REQUESTS_COLUMNS, zip(times, groups, templates, tokens))


def rows_jobs_csv(path, jobs) -> None:
    rows = (
        (j.job_id, j.arrival_s, j.gpu, j.runtime_s, j.time_limit_s, j.group)
        for j in jobs
    )
    write_rows(path, JOBS_COLUMNS, rows)


def rows_trace_csv(path, trace) -> None:
    rows = (
        (r.seg_index, r.job_id, r.start_s, r.end_s, r.gpu, r.completed)
        for r in trace.runs
    )
    write_rows(path, TRACE_COLUMNS, rows)


def rows_job_power_csv(path, job_ids, power, lengths) -> None:
    starts = np.cumsum(lengths) - lengths
    rows = (
        (job_id, minute, float(kw))
        for job_id, start, n in zip(job_ids, starts, lengths)
        for minute, kw in enumerate(power[start : start + n])
    )
    write_rows(path, JOB_POWER_COLUMNS, rows)


def rows_busy_csv(path, busy) -> None:
    write_rows(path, BUSY_COLUMNS, zip(range(len(busy)), busy))


def rows_detail_csv(path, result, template_ids) -> None:
    s = result.serving
    n_minutes = result.scenario.horizon_minutes
    rows = zip(
        np.repeat(np.arange(n_minutes), len(template_ids)),
        list(template_ids) * n_minutes,
        *(m.T.ravel() for m in (s.conc, s.conc_cap, s.gpus, s.power_kw, s.unmet)),
    )
    write_rows(path, DETAIL_COLUMNS, rows)


def rows_sweep_csv(path, rows) -> None:
    write_rows(path, SWEEP_COLUMNS, rows)


# each package CSV writer by name, as one csv.writer row per file row
ROW_WRITERS = {
    "write_series_csv": rows_series_csv,
    "write_arrivals_csv": rows_arrivals_csv,
    "write_requests_csv": rows_requests_csv,
    "write_jobs_csv": rows_jobs_csv,
    "write_trace_csv": rows_trace_csv,
    "write_job_power_csv": rows_job_power_csv,
    "write_busy_csv": rows_busy_csv,
    "write_detail_csv": rows_detail_csv,
    "write_sweep_csv": rows_sweep_csv,
}
