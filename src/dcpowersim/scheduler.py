"""Discrete-event scheduling of checkpointed batch jobs on shared GPUs.

Jobs are split into fixed-length checkpoint segments that must run in
order; each segment occupies its job's full GPU request. The scheduler is
event-driven over integer seconds: queue-head segments start as soon as
they fit, a blocked head gets the single committed reservation, and later
segments may start early only when they fit now and complete before that
reservation. Only the head holds a reservation, so this is EASY-style
backfilling (Mu'alem & Feitelson, IEEE TPDS 2001): the head is never
delayed, but other queued segments may be.
Capacity is observed causally from a step timeline; on a capacity drop the
most recently started segments are preempted first and re-enter the queue
with their full duration.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

POLICIES = ("FCFS_BACKFILL", "SWF")

_EV_COMPLETION = 0
_EV_CAPACITY = 1
_EV_ARRIVAL = 2


def checkpoint_step(ckpt_s: float) -> int:
    """Job seconds between the starts of consecutive segments, so segment k
    resumes the job at ``k * step``; 0 when the job never checkpoints."""
    return 0 if math.isinf(ckpt_s) else int(ckpt_s)


def segment_job(runtime_s: int, ckpt_s: float) -> list[int]:
    """Split a realized runtime into checkpoint segments.

    Produces floor(runtime / ckpt) full segments plus a positive remainder
    segment when the division is inexact. An infinite (or runtime-sized)
    checkpoint interval yields the whole job as a single segment.
    """
    if runtime_s <= 0:
        raise ValueError("runtime must be positive")
    if not ckpt_s >= 1:
        raise ValueError(f"checkpoint interval must be at least 1 second, got {ckpt_s}")
    step = checkpoint_step(ckpt_s)
    if step == 0 or step >= runtime_s:
        return [int(runtime_s)]
    n_full, rem = divmod(int(runtime_s), step)
    segments = [step] * n_full
    if rem:
        segments.append(rem)
    return segments


@dataclass(frozen=True)
class Job:
    job_id: int
    arrival_s: int
    gpu: int
    runtime_s: int
    time_limit_s: int = 0
    group: str = ""

    def __post_init__(self) -> None:
        if self.gpu <= 0:
            raise ValueError(f"job {self.job_id}: gpu request must be positive")
        if self.runtime_s <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be positive")
        if self.arrival_s < 0:
            raise ValueError(f"job {self.job_id}: arrival must be nonnegative")


@dataclass
class _Segment:
    job: Job
    seg_index: int
    duration_s: int
    is_last: bool


@dataclass(frozen=True)
class SegmentRun:
    """One executed stretch of a segment; ``completed`` is False when the
    run was cut short by preemption."""

    job_id: int
    seg_index: int
    start_s: int
    end_s: int
    gpu: int
    completed: bool


@dataclass(frozen=True)
class BackfillRecord:
    """Audit record for one backfill decision."""

    time_s: int
    job_id: int
    seg_index: int
    head_job_id: int
    head_reservation_s: float


@dataclass(frozen=True)
class PreemptionRecord:
    time_s: int
    job_id: int
    seg_index: int


@dataclass(frozen=True)
class CapacityTimeline:
    """Right-open step function of available GPUs over time.

    ``times`` are ascending integer seconds starting at 0; ``values[i]``
    holds on [times[i], times[i+1]) and the last value extends forever.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) == 0 or len(times) != len(values):
            raise ValueError("timeline needs matching, nonempty times and values")
        if times[0] != 0:
            raise ValueError("timeline must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("timeline times must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("capacity values must be nonnegative")

    @classmethod
    def from_minute_series(cls, per_minute: np.ndarray) -> "CapacityTimeline":
        """Timeline with a breakpoint at each minute where the value changes."""
        per_minute = np.asarray(per_minute, dtype=np.int64)
        if len(per_minute) == 0:
            raise ValueError("need at least one minute")
        keep = np.concatenate(([True], np.diff(per_minute) != 0))
        return cls(np.flatnonzero(keep) * 60, per_minute[keep])

    def value_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.values[max(idx, 0)])

    @property
    def max_value(self) -> int:
        return int(self.values.max())

    def change_points(self) -> list[tuple[int, int]]:
        return [(int(t), int(v)) for t, v in zip(self.times[1:], self.values[1:])]


@dataclass
class ScheduleTrace:
    """Everything observable about one scheduling run."""

    runs: list[SegmentRun] = field(default_factory=list)
    backfills: list[BackfillRecord] = field(default_factory=list)
    preemptions: list[PreemptionRecord] = field(default_factory=list)
    rejected_job_ids: list[int] = field(default_factory=list)
    job_first_start: dict[int, int] = field(default_factory=dict)
    job_completion: dict[int, int] = field(default_factory=dict)
    queue_delays: dict[int, int] = field(default_factory=dict)

    def busy_minutes(self, n_minutes: int) -> np.ndarray:
        """Time-weighted mean of occupied GPUs for each simulation minute."""
        if not self.runs:
            return np.zeros(n_minutes)
        starts = np.array([r.start_s for r in self.runs], dtype=np.int64)
        ends = np.array([r.end_s for r in self.runs], dtype=np.int64)
        gpus = np.array([r.gpu for r in self.runs], dtype=float)
        return accumulate_intervals(starts, ends, gpus, n_minutes)


def accumulate_intervals(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    n_minutes: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Add ``value * overlap_seconds / 60`` of each [start, end) interval
    into a per-minute series of length ``n_minutes``, reusing ``out`` when
    given.

    ``out`` lets a caller add batches of intervals one after another into
    the same cells, as batch power does per chunk of runs: summing each
    batch into its own series and adding those would change the order of
    the floating-point additions, and so the low bits."""
    if out is None:
        out = np.zeros(n_minutes)
    horizon = n_minutes * 60
    s = np.clip(np.asarray(starts, dtype=np.int64), 0, horizon)
    e = np.clip(np.asarray(ends, dtype=np.int64), 0, horizon)
    v = np.asarray(values, dtype=float)
    keep = e > s
    if not np.any(keep):
        return out
    s, e, v = s[keep], e[keep], v[keep]
    ms = s // 60
    me = (e - 1) // 60
    single = ms == me
    np.add.at(out, ms[single], v[single] * (e[single] - s[single]) / 60.0)
    multi = ~single
    if np.any(multi):
        np.add.at(out, ms[multi], v[multi] * ((ms[multi] + 1) * 60 - s[multi]) / 60.0)
        np.add.at(out, me[multi], v[multi] * (e[multi] - me[multi] * 60) / 60.0)
        diff = np.zeros(n_minutes + 1)
        np.add.at(diff, ms[multi] + 1, v[multi])
        np.add.at(diff, me[multi], -v[multi])
        out += np.cumsum(diff)[:n_minutes]
    return out


def preempt_on_capacity_drop(
    active: list[tuple[int, int, int, int, object]], usage: int, new_capacity: int
) -> list[object]:
    """Select victims, most recently started first, until usage fits.

    ``active`` holds (start_s, job_id, seg_index, gpu, handle) for every
    running segment; ties on start time break toward the larger job id,
    then the later segment. Returns the victims' handles.
    """
    victims = []
    for start, job_id, seg_index, gpu, handle in sorted(
        active, key=lambda a: (a[0], a[1], a[2]), reverse=True
    ):
        if usage <= new_capacity:
            break
        victims.append(handle)
        usage -= gpu
    return victims


def _policy_key(policy: str, seg: _Segment) -> tuple:
    if policy == "FCFS_BACKFILL":
        return (seg.job.arrival_s, seg.job.job_id, seg.seg_index)
    # SWF: fewest GPUs first, then shortest realized runtime
    return (
        seg.job.gpu,
        seg.job.runtime_s,
        seg.job.arrival_s,
        seg.job.job_id,
        seg.seg_index,
    )


class _Engine:
    def __init__(
        self, jobs: list[Job], capacity: CapacityTimeline, policy: str, ckpt_s: float
    ) -> None:
        self.policy = policy
        self.trace = ScheduleTrace()
        # (policy key, gpu, duration_s, segment), in key order
        self.queue: list[tuple[tuple, int, int, _Segment]] = []
        self.running: dict[int, tuple[_Segment, int]] = {}  # serial -> (seg, start)
        # (end, serial, gpu) of every running segment, in end order
        self.ends: list[tuple[int, int, int]] = []
        self.usage = 0
        self.current_cap = capacity.value_at(0)
        self.serial = itertools.count()
        self.heap: list[tuple[int, int, int, object]] = []
        self.segments_of: dict[int, list[int]] = {}

        max_cap = capacity.max_value
        for job in jobs:
            if job.gpu > max_cap:
                self.trace.rejected_job_ids.append(job.job_id)
                continue
            durations = segment_job(job.runtime_s, ckpt_s)
            self.segments_of[job.job_id] = durations
            first = _Segment(job, 0, durations[0], len(durations) == 1)
            self._push(job.arrival_s, _EV_ARRIVAL, first)
        for t, value in capacity.change_points():
            self._push(t, _EV_CAPACITY, value)

    def _push(self, time: int, kind: int, payload: object) -> None:
        heapq.heappush(self.heap, (time, kind, next(self.serial), payload))

    def _enqueue(self, seg: _Segment) -> None:
        key = _policy_key(self.policy, seg)
        insort(self.queue, (key, seg.job.gpu, seg.duration_s, seg))

    def _start(self, seg: _Segment, t: int) -> None:
        run_id = next(self.serial)
        end = t + seg.duration_s
        self.running[run_id] = (seg, t)
        insort(self.ends, (end, run_id, seg.job.gpu))
        self.usage += seg.job.gpu
        self.trace.job_first_start.setdefault(seg.job.job_id, t)
        self._push(end, _EV_COMPLETION, run_id)

    def _finish_run(self, run_id: int, end: int, completed: bool) -> _Segment:
        seg, start = self.running.pop(run_id)
        del self.ends[bisect_left(self.ends, (start + seg.duration_s, run_id))]
        self.usage -= seg.job.gpu
        self.trace.runs.append(
            SegmentRun(seg.job.job_id, seg.seg_index, start, end, seg.job.gpu, completed)
        )
        return seg

    def _reservation(self, gpu: int) -> float:
        """Earliest start for a ``gpu``-wide segment that does not fit now,
        under current capacity and the known completion times of everything
        running."""
        if gpu > self.current_cap:
            return math.inf
        free = self.current_cap - self.usage
        for end, _, g in self.ends:
            free += g
            if free >= gpu:
                return end
        return math.inf

    def _on_completion(self, run_id: int, t: int) -> None:
        if run_id not in self.running:
            return  # stale event for a preempted run
        seg = self._finish_run(run_id, t, completed=True)
        durations = self.segments_of[seg.job.job_id]
        if seg.is_last:
            self.trace.job_completion[seg.job.job_id] = t
        else:
            nxt = seg.seg_index + 1
            self._enqueue(
                _Segment(seg.job, nxt, durations[nxt], nxt == len(durations) - 1)
            )

    def _on_capacity(self, value: int, t: int) -> None:
        self.current_cap = value
        if self.usage <= value:
            return
        active = [
            (start, seg.job.job_id, seg.seg_index, seg.job.gpu, run_id)
            for run_id, (seg, start) in self.running.items()
        ]
        for run_id in preempt_on_capacity_drop(active, self.usage, value):
            seg = self._finish_run(run_id, t, completed=False)
            self.trace.preemptions.append(
                PreemptionRecord(t, seg.job.job_id, seg.seg_index)
            )
            self._enqueue(seg)

    def _pass(self, t: int) -> None:
        queue = self.queue
        while queue and queue[0][1] <= self.current_cap - self.usage:
            self._start(queue.pop(0)[3], t)
        free = self.current_cap - self.usage
        if not queue or free == 0:
            return
        # The head is blocked, so it is wider than ``free`` and the scan
        # passes over it. Later segments that fit now and end by the head's
        # reservation start now, in queue order. Every segment needs at
        # least one GPU, so the scan stops when none is left.
        reservation = None
        picks = []
        for i, (_, gpu, duration, _) in enumerate(queue):
            if gpu > free:
                continue
            if reservation is None:
                reservation = self._reservation(queue[0][1])
            if t + duration <= reservation:
                picks.append(i)
                free -= gpu
                if free == 0:
                    break
        head = queue[0][3]
        started = [queue[i][3] for i in picks]
        for i in reversed(picks):
            del queue[i]
        for seg in started:
            self._start(seg, t)
            self.trace.backfills.append(
                BackfillRecord(
                    t, seg.job.job_id, seg.seg_index, head.job.job_id, reservation
                )
            )

    def run(self) -> ScheduleTrace:
        heap = self.heap
        while heap:
            t = heap[0][0]
            while heap and heap[0][0] == t:
                _, kind, _, payload = heapq.heappop(heap)
                if kind == _EV_COMPLETION:
                    self._on_completion(payload, t)
                elif kind == _EV_CAPACITY:
                    self._on_capacity(payload, t)
                else:
                    self._enqueue(payload)
            self._pass(t)
        return self.trace


def schedule(
    jobs: list[Job],
    capacity: CapacityTimeline,
    policy: str = "FCFS_BACKFILL",
    ckpt_s: float = math.inf,
) -> ScheduleTrace:
    """Run the scheduler over a job list and a capacity timeline.

    Jobs whose GPU request exceeds the maximum capacity ever available are
    rejected up front and listed in ``rejected_job_ids``. The returned trace
    records every executed segment run, each backfill decision with the
    head reservation it honored, preemptions, and per-job first-start and
    completion times.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    engine = _Engine(jobs, capacity, policy, ckpt_s)
    trace = engine.run()
    arrivals = {j.job_id: j.arrival_s for j in jobs}
    trace.queue_delays = {
        job_id: start - arrivals[job_id]
        for job_id, start in trace.job_first_start.items()
    }
    return trace
