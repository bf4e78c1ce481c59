import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim import cosim
from dcpowersim.config import load_bundle
from dcpowersim.scheduler import (
    POLICIES,
    BackfillRecord,
    CapacityTimeline,
    Job,
    ScheduleTrace,
    SegmentRun,
    accumulate_intervals,
    checkpoint_step,
    schedule,
    segment_job,
)

from oracles import (
    TinyJob,
    busy_gpu_seconds,
    capacity_at,
    first_starts,
    flat_capacity,
    plain_fcfs_starts,
    revealed_capacity,
    schedule_reference,
    split_at_checkpoints,
    usage_step,
)
from test_cosim import tiny_doc


class TestSegmenting:
    def test_division_with_remainder(self):
        assert segment_job(36000, 14400.0) == [14400, 14400, 7200]

    def test_exact_division(self):
        assert segment_job(28800, 14400.0) == [14400, 14400]

    def test_long_checkpoint_single_segment(self):
        assert segment_job(3600, 7200.0) == [3600]
        assert segment_job(3600, math.inf) == [3600]

    def test_interval_past_int64_never_checkpoints(self):
        assert checkpoint_step(3600.0) == 3600
        assert checkpoint_step(1e19) == checkpoint_step(math.inf) == 0
        assert segment_job(3600, 1e19) == [3600]

    def test_sub_second_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="at least 1 second"):
            segment_job(3600, 0.5)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_segments_conserve_runtime(self, runtime, ckpt):
        parts = segment_job(runtime, float(ckpt))
        assert sum(parts) == runtime
        assert all(0 < p <= ckpt for p in parts)
        assert all(p == ckpt for p in parts[:-1])

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.one_of(
            st.sampled_from([1, 100, 3600, 1e19, math.inf]),
            st.integers(min_value=1, max_value=2 * 10**6),
            st.floats(min_value=1, max_value=1e20),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_split(self, runtime, ckpt):
        assert segment_job(runtime, ckpt) == split_at_checkpoints(runtime, ckpt)


class TestBackfillHandCase:
    def _jobs(self):
        return [
            Job(job_id=0, arrival_s=0, gpu=3, runtime_s=10),
            Job(job_id=1, arrival_s=1, gpu=2, runtime_s=5),
            Job(job_id=2, arrival_s=2, gpu=1, runtime_s=5),
        ]

    def test_backfill_fills_around_reservation(self):
        trace = schedule(self._jobs(), flat_capacity(4))
        starts = first_starts(trace, self._jobs())
        assert starts[0] == 0
        assert starts[2] == 2  # ends at 7, before the head reservation at 10
        assert starts[1] == 10
        assert len(trace.backfills) == 1
        bf = trace.backfills[0]
        assert bf.job_id == 2
        assert bf.head_job_id == 1
        assert bf.head_reservation_s == 10

    def test_single_job_starts_at_arrival(self):
        jobs = [Job(job_id=5, arrival_s=42, gpu=2, runtime_s=100)]
        trace = schedule(jobs, flat_capacity(4))
        assert first_starts(trace, jobs)[5] == 42
        assert trace.queue_delays[5] == 0

    def test_swf_orders_by_gpu_then_runtime(self):
        trace = schedule(self._jobs(), flat_capacity(4), policy="SWF")
        starts = first_starts(trace, self._jobs())
        # A occupies 3 GPUs on [0, 10); C (1 GPU) fits beside it at 2
        assert starts[0] == 0
        assert starts[2] == 2
        assert starts[1] == 10


class TestPreemption:
    """Victims go newest start first, ties toward the larger job id, until
    usage fits the new capacity; each is requeued with its full duration."""

    def _staggered(self, gpus):
        """Job i arrives at second i + 1 on an idle cluster and starts at once."""
        return [
            Job(job_id=i, arrival_s=i + 1, gpu=gpu, runtime_s=600)
            for i, gpu in enumerate(gpus)
        ]

    def test_no_preemption_at_exact_fit(self):
        capacity = CapacityTimeline(np.array([0, 10]), np.array([8, 6]))
        trace = schedule(self._staggered([4, 2]), capacity)
        assert trace.preemptions == []
        assert all(run.completed for run in trace.runs)

    def test_most_recent_start_goes_first(self):
        # newest first cuts job 2 alone; oldest, smallest or widest first
        # would each cut another job
        capacity = CapacityTimeline(np.array([0, 10]), np.array([9, 6]))
        trace = schedule(self._staggered([2, 4, 3]), capacity)
        assert [(p.job_id, p.start_s, p.end_s) for p in trace.preemptions] == [(2, 3, 10)]

    def test_drop_to_zero_clears_everything(self):
        capacity = CapacityTimeline(np.array([0, 10, 20]), np.array([6, 0, 6]))
        trace = schedule(self._staggered([4, 2]), capacity)
        assert [p.job_id for p in trace.preemptions] == [1, 0]
        assert all(p.end_s == 10 for p in trace.preemptions)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_start_cuts_larger_job_id(self, policy):
        # both start at second 5; job 7 ends first, so it sits ahead of job
        # 3 among the running segments, and it is the narrower of the two
        jobs = [
            Job(job_id=3, arrival_s=5, gpu=3, runtime_s=600),
            Job(job_id=7, arrival_s=5, gpu=1, runtime_s=300),
        ]
        capacity = CapacityTimeline(np.array([0, 10]), np.array([4, 3]))
        trace = schedule(jobs, capacity, policy=policy)
        assert first_starts(trace, jobs) == {3: 5, 7: 5}
        assert [(p.job_id, p.start_s, p.end_s) for p in trace.preemptions] == [(7, 5, 10)]

    def test_engine_preempts_and_requeues_on_drop(self):
        jobs = [
            Job(job_id=0, arrival_s=0, gpu=4, runtime_s=600),
            Job(job_id=1, arrival_s=60, gpu=2, runtime_s=600),
        ]
        capacity = CapacityTimeline(
            np.array([0, 120, 300]), np.array([6, 4, 6])
        )
        trace = schedule(jobs, capacity, ckpt_s=math.inf)
        assert [p.job_id for p in trace.preemptions] == [1]
        assert trace.preemptions[0].end_s == 120
        # preempted segment reruns in full once capacity returns
        runs = [r for r in trace.runs if r.job_id == 1 and r.completed]
        assert len(runs) == 1
        assert runs[0].start_s == 300
        assert runs[0].end_s == 900


class TestRevealedCapacity:
    def test_running_max_of_daily_p99(self):
        busy = np.concatenate(
            [np.full(1440, 100.0), np.full(1440, 90.0), np.full(1440, 120.0)]
        )
        timeline = revealed_capacity(busy)
        assert [capacity_at(timeline, d * 86400.0) for d in range(3)] == [100, 100, 120]

    def test_constant_series(self):
        timeline = revealed_capacity(np.full(1440 * 2, 50.0))
        assert capacity_at(timeline, 0) == 50
        assert capacity_at(timeline, 100_000.0) == 50

    def test_nearest_rank_puts_p99_on_sustained_spike(self):
        day = np.full(1440, 10.0)
        day[:15] = 200.0  # 15 minutes at the top: rank 1426 of 1440 reaches it
        timeline = revealed_capacity(day)
        assert capacity_at(timeline, 0) == 200

    def test_fourteen_minute_spike_misses_p99(self):
        day = np.full(1440, 10.0)
        day[:14] = 200.0
        timeline = revealed_capacity(day)
        assert capacity_at(timeline, 0) == 10

    def test_partial_trailing_day_warns(self):
        with pytest.warns(UserWarning):
            revealed_capacity(np.full(1500, 10.0))


def _tiny_jobs(draw_jobs):
    return [
        Job(job_id=i, arrival_s=a, gpu=g, runtime_s=r)
        for i, (a, g, r) in enumerate(draw_jobs)
    ]


@st.composite
def _instances(draw, max_jobs=8, max_gpu=6):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = [
        (
            draw(st.integers(min_value=0, max_value=500)),
            draw(st.integers(min_value=1, max_value=max_gpu)),
            draw(st.integers(min_value=1, max_value=400)),
        )
        for _ in range(n)
    ]
    capacity = draw(st.integers(min_value=max_gpu, max_value=max_gpu + 4))
    return jobs, capacity


class TestSchedulerProperties:
    @given(_instances())
    @settings(max_examples=120, deadline=None)
    def test_capacity_never_exceeded(self, instance):
        jobs, cap = instance
        trace = schedule(_tiny_jobs(jobs), flat_capacity(cap))
        _, usage = usage_step(trace.runs)
        assert usage.max(initial=0) <= cap

    @given(_instances())
    @settings(max_examples=120, deadline=None)
    def test_every_job_runs_exactly_once_fully(self, instance):
        jobs, cap = instance
        trace = schedule(_tiny_jobs(jobs), flat_capacity(cap))
        by_job = {}
        for r in trace.runs:
            assert r.completed
            by_job.setdefault(r.job_id, []).append(r)
        for i, (arrival, gpu, runtime) in enumerate(jobs):
            runs = by_job[i]
            assert len(runs) == 1
            assert runs[0].start_s >= arrival
            assert runs[0].end_s - runs[0].start_s == runtime

    @given(_instances())
    @settings(max_examples=120, deadline=None)
    def test_never_waiting_jobs_start_at_arrival(self, instance):
        jobs, cap = instance
        trace = schedule(_tiny_jobs(jobs), flat_capacity(cap))
        starts = first_starts(trace, _tiny_jobs(jobs))
        oracle = plain_fcfs_starts(
            [TinyJob(i, a, g, r) for i, (a, g, r) in enumerate(jobs)], cap
        )
        for i, (arrival, gpu, runtime) in enumerate(jobs):
            if oracle[i] == arrival:
                assert starts[i] == arrival

    @given(_instances(), st.integers(min_value=30, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_segment_conservation_with_checkpoints(self, instance, ckpt):
        jobs, cap = instance
        trace = schedule(
            _tiny_jobs(jobs), flat_capacity(cap), ckpt_s=float(ckpt)
        )
        completed = {}
        for r in trace.runs:
            if r.completed:
                completed[r.job_id] = completed.get(r.job_id, 0) + (r.end_s - r.start_s)
        for i, (arrival, gpu, runtime) in enumerate(jobs):
            assert completed[i] == runtime

    @given(_instances())
    @settings(max_examples=60, deadline=None)
    def test_backfills_respect_head_reservation(self, instance):
        jobs, cap = instance
        trace = schedule(_tiny_jobs(jobs), flat_capacity(cap))
        runtimes = {i: r for i, (_, _, r) in enumerate(jobs)}
        for bf in trace.backfills:
            assert bf.time_s + runtimes[bf.job_id] <= bf.head_reservation_s

    def test_oversized_job_rejected(self):
        trace = schedule(
            [Job(job_id=0, arrival_s=0, gpu=10, runtime_s=60)],
            flat_capacity(4),
        )
        assert trace.rejected_job_ids == [0]
        assert trace.runs == []


def assert_same_trace(got: ScheduleTrace, want: ScheduleTrace) -> None:
    """Every field equal, lists and dict items in the same order."""
    for f in dataclasses.fields(ScheduleTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, dict):
            a, b = list(a.items()), list(b.items())
        assert a == b, f.name


@st.composite
def _stepped_instances(draw):
    """Jobs on a stepped capacity timeline whose drops preempt, with a
    checkpoint interval and a policy."""
    ckpt = draw(st.sampled_from([1.0, 100.0, 3600.0, math.inf]))
    # one-second checkpoints make a segment per second: keep runtimes short
    max_runtime = 300 if ckpt == 1.0 else 8000
    jobs = [
        Job(
            job_id=i,
            arrival_s=draw(st.integers(0, 4000)),
            gpu=draw(st.integers(1, 8)),
            runtime_s=draw(st.integers(1, max_runtime)),
        )
        for i in range(draw(st.integers(1, 20)))
    ]
    steps = draw(
        st.lists(st.tuples(st.integers(1, 1500), st.integers(0, 10)), min_size=1, max_size=8)
    )
    times = np.cumsum([0] + [dt for dt, _ in steps])
    values = [draw(st.integers(4, 10))] + [v for _, v in steps]
    policy = draw(st.sampled_from(POLICIES))
    return jobs, CapacityTimeline(times, values), policy, ckpt


class TestScheduleReference:
    """The scheduler against the full-rescan engine in oracles.py: every
    ScheduleTrace field, in order."""

    @given(_stepped_instances())
    @settings(max_examples=150, deadline=None)
    def test_random_stepped_capacity(self, instance):
        jobs, capacity, policy, ckpt = instance
        assert_same_trace(
            schedule(jobs, capacity, policy, ckpt),
            schedule_reference(jobs, capacity, policy, ckpt),
        )

    @pytest.mark.parametrize(
        "tiny, fields",
        [
            (True, {"total_gpus": 4, "horizon_days": 2, "ckpt_seconds": 100.0}),
            (False, {}),
            (False, {"policy": "SWF"}),
            # every segment is a whole job, so every queued duration differs
            (False, {"ckpt_seconds": math.inf}),
        ],
        ids=["tiny_bundle", "default_bundle", "default_bundle_swf", "default_bundle_no_ckpt"],
    )
    def test_run_batch_inputs(self, bundle, monkeypatch, tiny, fields):
        if tiny:
            bundle = load_bundle(tiny_doc())
        calls = []

        def recording_schedule(*args, **kwargs):
            calls.append((args, kwargs))
            return schedule(*args, **kwargs)

        monkeypatch.setattr(cosim, "schedule", recording_schedule)
        scenario = cosim.Scenario(share_target=0.5, utilization_target=0.75, seed=3, **fields)
        res = cosim.run_hybrid(bundle, scenario)
        assert len(calls) == 1
        assert res.trace.preemptions
        args, kwargs = calls[0]
        assert_same_trace(res.trace, schedule_reference(*args, **kwargs))
        # the preemptions are exactly the cut runs, each cut at a capacity change
        cut = [r for r in res.trace.runs if not r.completed]
        assert res.trace.preemptions == cut
        assert {r.end_s for r in cut} <= set(args[1].times.tolist())
        assert_run_columns(res.trace)


class TestSameSecondOrder:
    """At one second the engine handles completions, then the capacity
    change, then arrivals, then one pass."""

    # capacity 4, then 2 at t=10, 1 at t=20 and 4 again at t=40
    CAPACITY = CapacityTimeline(np.array([0, 10, 20, 40]), np.array([4, 2, 1, 4]))
    JOBS = [
        Job(job_id=0, arrival_s=0, gpu=2, runtime_s=10),
        Job(job_id=1, arrival_s=0, gpu=2, runtime_s=30),
        Job(job_id=2, arrival_s=10, gpu=1, runtime_s=5),
        # same arrival second, listed out of job_id order
        Job(job_id=4, arrival_s=50, gpu=2, runtime_s=10),
        Job(job_id=3, arrival_s=50, gpu=2, runtime_s=30),
    ]

    def test_hand_trace(self):
        trace = schedule(self.JOBS, self.CAPACITY)
        cut = SegmentRun(1, 0, 0, 20, 2, False)
        assert trace.runs == [
            # job 0 ends at t=10 before the drop to 2, so job 1 still fits;
            # job 2 arrives at t=10 and waits
            SegmentRun(0, 0, 0, 10, 2, True),
            # the drop to 1 cuts job 1, whose planned end t=30 has no event
            cut,
            SegmentRun(2, 0, 20, 25, 1, True),
            SegmentRun(1, 0, 40, 70, 2, True),
            # job 3 starts at its arrival; job 4 waits for job 1 to end;
            # both end at t=80, in start order
            SegmentRun(3, 0, 50, 80, 2, True),
            SegmentRun(4, 0, 70, 80, 2, True),
        ]
        assert trace.preemptions == [cut]
        assert trace.backfills == [BackfillRecord(20, 2, 0, 1, math.inf)]
        assert list(trace.queue_delays.items()) == [(0, 0), (1, 0), (2, 10), (3, 0), (4, 20)]
        assert_same_trace(trace, schedule_reference(self.JOBS, self.CAPACITY))


_RUN_COLUMN_DTYPES = {
    "job_id": np.int64,
    "seg_index": np.int64,
    "start_s": np.int64,
    "end_s": np.int64,
    "gpu": np.int64,
    "completed": np.bool_,
}


def assert_run_columns(trace: ScheduleTrace) -> None:
    """``run_columns`` holds, per SegmentRun field in field order, the array
    of that attribute over ``runs``."""
    columns = trace.run_columns()
    assert columns.dtype.names == SegmentRun._fields
    for name, dtype in _RUN_COLUMN_DTYPES.items():
        want = np.array([getattr(r, name) for r in trace.runs], dtype=dtype)
        assert columns[name].dtype == want.dtype, name
        np.testing.assert_array_equal(columns[name], want)


def test_run_columns_of_empty_trace():
    assert_run_columns(ScheduleTrace())


@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(0, 450), st.integers(0, 450), st.integers(1, 64)),
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_busy_minutes_are_exact_gpu_seconds_over_60(n_minutes, spans):
    """Each minute is its exact GPU-seconds over 60, correctly rounded, for
    runs off minute edges, past the horizon, empty, and 1 to 64 GPUs wide."""
    runs = [SegmentRun(0, 0, start, start + length, gpu, True) for start, length, gpu in spans]
    got = ScheduleTrace(runs=runs).busy_minutes(n_minutes)
    assert got.tolist() == [k / 60 for k in busy_gpu_seconds(runs, n_minutes)]


def test_no_interval_of_positive_length_leaves_out_as_is():
    # empty, reversed, and clipped to nothing past the 3-minute horizon
    out = np.arange(3.0)
    got = accumulate_intervals([0, 60, 200], [0, 30, 300], [1.0, 2.0, 3.0], 3, out=out)
    assert got is out
    np.testing.assert_array_equal(out, np.arange(3.0))
