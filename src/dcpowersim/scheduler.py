"""Discrete-event scheduling of checkpointed batch jobs on shared GPUs.

Jobs are split into fixed-length checkpoint segments that must run in
order; each segment occupies its job's full GPU request. The scheduler is
event-driven over integer seconds. It merges three streams already in time
order: at each second it handles segment completions (in start order), then
the capacity change, then job arrivals (in list order), then one pass. In a
pass queue-head segments start as soon as they fit, a blocked head gets the
single committed reservation, and later segments may start early only when
they fit now and complete before that reservation. Only the head holds a
reservation, so this is EASY-style backfilling (Mu'alem & Feitelson, IEEE
TPDS 2001): the head is never delayed, but other queued segments may be.
Capacity is observed causally from a step timeline; on a capacity drop the
most recently started segments are preempted first and re-enter the queue
with their full duration.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

POLICIES = ("FCFS_BACKFILL", "SWF")


def checkpoint_step(ckpt_s: float) -> int:
    """Job seconds between the starts of consecutive segments, so segment k
    resumes the job at ``k * step``; 0 when the job never checkpoints. No
    int64 runtime reaches 2**63 s, so a longer interval never checkpoints."""
    return 0 if ckpt_s >= 2**63 else int(ckpt_s)


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


class SegmentRun(NamedTuple):
    """One executed stretch of a segment; ``completed`` is False when the
    run was cut short by preemption."""

    job_id: int
    seg_index: int
    start_s: int
    end_s: int
    gpu: int
    completed: bool


# one column per SegmentRun field, in field order
_RUN_DTYPE = np.dtype(
    [(name, bool if name == "completed" else np.int64) for name in SegmentRun._fields]
)


@dataclass(frozen=True)
class BackfillRecord:
    """Audit record for one backfill decision."""

    time_s: int
    job_id: int
    seg_index: int
    head_job_id: int
    head_reservation_s: float


@dataclass(frozen=True)
class CapacityTimeline:
    """Right-open step function of available GPUs over time.

    ``times`` are ascending integer seconds starting at 0; ``values[i]``
    holds on [times[i], times[i+1]) and the last value extends forever.
    The scheduler reads the arrays themselves: ``values[0]`` from t = 0,
    and each later step as a capacity change.
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


@dataclass
class ScheduleTrace:
    """Everything observable about one scheduling run.

    ``runs`` lists every executed segment run, in the order the runs ended;
    ``preemptions`` holds the runs among them cut short by a capacity drop,
    in the same order. ``backfills`` records each backfill decision,
    ``rejected_job_ids`` the jobs wider than any capacity, and
    ``queue_delays`` each started job's wait from arrival to its first
    start, in the order the jobs first started.
    """

    runs: list[SegmentRun] = field(default_factory=list)
    backfills: list[BackfillRecord] = field(default_factory=list)
    preemptions: list[SegmentRun] = field(default_factory=list)
    rejected_job_ids: list[int] = field(default_factory=list)
    queue_delays: dict[int, int] = field(default_factory=dict)
    # run_columns' cache; unannotated, so not a field: equality, repr and
    # dataclasses.replace leave it out
    _columns = None

    def run_columns(self) -> np.ndarray:
        """``runs`` as one structured array with a column per field, built
        once and shared by every reader; runs only ever get appended, so a
        longer list means it is rebuilt."""
        if self._columns is None or len(self._columns) != len(self.runs):
            self._columns = np.array(self.runs, dtype=_RUN_DTYPE)
        return self._columns

    def busy_minutes(self, n_minutes: int) -> np.ndarray:
        """Time-weighted mean of occupied GPUs for each simulation minute."""
        runs = self.run_columns()
        return accumulate_intervals(
            runs["start_s"], runs["end_s"], runs["gpu"], n_minutes
        )


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
        # (end, gpu, segment, start) of every running segment, in end order
        # and, among equal ends, in start order: segments start in time
        # order, and insort puts each after the equal ends already there
        self.running: list[tuple[int, int, _Segment, int]] = []
        self.usage = 0
        self.current_cap = int(capacity.values[0])
        # (time, value) of each capacity change after t = 0
        self.changes = list(zip(capacity.times[1:].tolist(), capacity.values[1:].tolist()))
        self.segments_of: dict[int, list[int]] = {}

        max_cap = int(capacity.values.max())
        firsts = []
        for job in jobs:
            if job.gpu > max_cap:
                self.trace.rejected_job_ids.append(job.job_id)
                continue
            durations = segment_job(job.runtime_s, ckpt_s)
            self.segments_of[job.job_id] = durations
            firsts.append(_Segment(job, 0, durations[0]))
        # a stable sort, so jobs arriving together keep their list order
        self.arrivals = sorted(firsts, key=lambda seg: seg.job.arrival_s)

    def _enqueue(self, seg: _Segment) -> None:
        key = _policy_key(self.policy, seg)
        insort(self.queue, (key, seg.job.gpu, seg.duration_s, seg))

    def _start(self, seg: _Segment, t: int) -> None:
        insort(self.running, (t + seg.duration_s, seg.job.gpu, seg, t), key=itemgetter(0))
        self.usage += seg.job.gpu
        self.trace.queue_delays.setdefault(seg.job.job_id, t - seg.job.arrival_s)

    def _finish_run(self, run: tuple, t: int, completed: bool) -> _Segment:
        """Record a run that left ``running`` at ``t``."""
        _, gpu, seg, start = run
        self.usage -= gpu
        self.trace.runs.append(
            SegmentRun(seg.job.job_id, seg.seg_index, start, t, gpu, completed)
        )
        return seg

    def _reservation(self, gpu: int) -> float:
        """Earliest start for a ``gpu``-wide segment that does not fit now,
        under current capacity and the known completion times of everything
        running."""
        if gpu > self.current_cap:
            return math.inf
        free = self.current_cap - self.usage
        for end, g, _, _ in self.running:
            free += g
            if free >= gpu:
                return end
        return math.inf

    def _on_completions(self, t: int) -> None:
        running = self.running
        while running and running[0][0] == t:
            seg = self._finish_run(running.pop(0), t, completed=True)
            durations = self.segments_of[seg.job.job_id]
            nxt = seg.seg_index + 1
            if nxt < len(durations):
                self._enqueue(_Segment(seg.job, nxt, durations[nxt]))

    def _on_capacity(self, value: int, t: int) -> None:
        """Take capacity ``value`` at ``t``; while usage exceeds it, preempt
        the running segment that started last, ties toward the larger job
        id, and requeue it with its full duration. A job has at most one
        segment running, so (start, job id) names a run."""
        self.current_cap = value
        if self.usage <= value:
            return
        running = self.running
        for run in sorted(running, key=lambda r: (r[3], r[2].job.job_id), reverse=True):
            if self.usage <= value:
                break
            running.remove(run)
            seg = self._finish_run(run, t, completed=False)
            self.trace.preemptions.append(self.trace.runs[-1])
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
        running, arrivals = self.running, self.arrivals
        # both fixed streams end in a sentinel at infinity
        changes = self.changes + [(math.inf, 0)]
        arrival_s = [seg.job.arrival_s for seg in arrivals] + [math.inf]
        c = a = 0
        while True:
            t = min(running[0][0] if running else math.inf, changes[c][0], arrival_s[a])
            if t == math.inf:
                return self.trace
            self._on_completions(t)
            if changes[c][0] == t:
                self._on_capacity(changes[c][1], t)
                c += 1
            while arrival_s[a] == t:
                self._enqueue(arrivals[a])
                a += 1
            self._pass(t)


def schedule(
    jobs: list[Job],
    capacity: CapacityTimeline,
    policy: str = "FCFS_BACKFILL",
    ckpt_s: float = math.inf,
) -> ScheduleTrace:
    """Run the scheduler over a job list and a capacity timeline.

    Jobs whose GPU request exceeds the maximum capacity ever available are
    rejected up front and listed in ``rejected_job_ids``. The returned trace
    records every executed segment run, the runs among them that were
    preempted, each backfill decision with the head reservation it honored,
    and each started job's queue delay.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return _Engine(jobs, capacity, policy, ckpt_s).run()
