import math
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim import cosim
from dcpowersim.config import load_bundle
from dcpowersim.cosim import (
    CAP_MODES,
    RequestPart,
    Scenario,
    Serving,
    _add_run_power,
    _batch_power_series,
    _work_scales,
    flatten_requests,
    generate_jobs,
    generate_requests,
    inference_share,
    job_power_trace,
    request_stream,
    run_hybrid,
    scenario_from_dict,
    scenario_requests,
    serve_inference,
    utilization,
)
from dcpowersim.errors import ConfigurationError
from dcpowersim.outputs import LabelColumn, write_requests_csv
from dcpowersim.scheduler import (
    POLICIES,
    CapacityTimeline,
    ScheduleTrace,
    SegmentRun,
    schedule,
)
from dcpowersim.seeds import derive_seed
from dcpowersim.serving import (
    SPEED_CLASSES,
    allocate_budgets,
    cap_concurrency,
    concurrency,
    gpu_use,
    inference_power,
    service_windows,
)

from oracles import (
    add_run_power_per_run,
    batch_power_per_run,
    busy_gpu_seconds,
    flatten_requests_whole,
    generate_group_requests,
    job_power_trace_per_job,
    label_texts,
    rows_requests_csv,
    serve_inference_concatenated,
)


class TestWorkRatios:
    def test_share_zero_inference(self):
        assert inference_share(0.0, 90.0) == 0.0

    def test_share_zero_batch(self):
        assert inference_share(50.0, 0.0) == 1.0

    def test_share_ratio(self):
        assert inference_share(30.0, 90.0) == pytest.approx(0.25)

    def test_share_no_work_rejected(self):
        with pytest.raises(ValueError):
            inference_share(0.0, 0.0)

    def test_utilization_zero_offered(self):
        assert utilization(0.0, 4, 7) == 0.0

    def test_utilization_full_capacity(self):
        assert utilization(4 * 7 * 24.0, 4, 7) == pytest.approx(1.0)

    def test_utilization_half(self):
        # 336 GPU-hours against 4 GPUs over 168 hours
        assert utilization(336.0, 4, 7) == pytest.approx(0.5)

    def test_utilization_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            utilization(0.0, 4, 0)


class TestScenarioFromDict:
    def test_defaults_then_overrides(self):
        scen = scenario_from_dict(
            {"share_target": 0.25},
            {"total_gpus": 8, "share_target": 0.9, "seed": 2},
        )
        assert scen.total_gpus == 8
        assert scen.share_target == 0.25
        assert scen.seed == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            scenario_from_dict({"frobnicate": 1}, None)
        with pytest.raises(ConfigurationError, match="preempt_on_drop"):
            scenario_from_dict({"preempt_on_drop": False}, None)

    def test_all_violations_reported_together(self):
        # each case breaks one more field next to share_target; type errors
        # are reported instead of raising from a comparison
        cases = [
            {"total_gpus": 0},
            {"total_gpus": "8"},
            {"total_gpus": 8.5},
            {"total_gpus": True},
            {"horizon_days": 1.5},
            {"horizon_days": -1},
            {"cap_fraction": 0},
            {"cap_fraction": 1.5},
            {"verbosity_scale": 0},
            {"verbosity_scale": -1},
            {"seed": "x"},
            {"ckpt_seconds": 0.5},
            {"utilization_target": math.inf},
            {"verbosity_scale": math.inf},
            # finite as integers, but no float holds them
            {"utilization_target": 10**400},
            {"verbosity_scale": 10**400},
            {"timezones": {"offsets_hours": "x"}},
        ]
        for bad in cases:
            with pytest.raises(ConfigurationError) as err:
                Scenario(share_target=2.0, **bad)
            fields = sorted(line.split()[0] for line in str(err.value).splitlines())
            assert fields == sorted([*bad, "share_target"]), bad

    def test_infinite_checkpoint_interval_accepted(self):
        assert Scenario(ckpt_seconds=math.inf).ckpt_seconds == math.inf
        # an interval no float holds schedules like one that never comes
        assert Scenario(ckpt_seconds=10**400).ckpt_seconds == 10**400


valid_scenarios = st.builds(
    Scenario,
    total_gpus=st.integers(1, 16),
    horizon_days=st.integers(0, 1),
    share_target=st.floats(0.0, 1.0),
    utilization_target=st.floats(0.0, 2.0, exclude_min=True),
    policy=st.sampled_from(POLICIES),
    # at least a minute between checkpoints bounds the segments per job
    ckpt_seconds=st.floats(60.0, allow_infinity=True),
    cap_mode=st.sampled_from(CAP_MODES),
    cap_fraction=st.floats(0.0, 1.0, exclude_min=True),
    verbosity_scale=st.floats(0.25, 4.0),
    speed_class=st.sampled_from([None, *SPEED_CLASSES]),
    seed=st.integers(0, 2**32 - 1),
)


@given(valid_scenarios)
@settings(max_examples=40, deadline=None)
def test_valid_scenario_runs_clean(bundle, scenario):
    """Past the checks at the boundary, no stage re-checks its inputs: a
    valid scenario finishes with a finite series inside the cluster, or
    fails in one line because uncapped serving outgrows it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = run_hybrid(bundle, scenario)
        except ConfigurationError as err:
            assert scenario.cap_mode == "uncapped"
            assert "\n" not in str(err)
            return
    assert np.all(np.isfinite(res.p_total_kw))
    # both GPU counts are exact, so the cluster holds them with no allowance
    overrun = res.g_inf + res.busy_batch - scenario.total_gpus
    assert np.max(overrun, initial=0.0) <= 0


def test_full_minutes_read_exactly_the_cluster(bundle):
    """Batch work alone on 3 GPUs for a day, with 61 s checkpoints, keeps
    them all busy in minutes that several partial runs share. busy_batch is
    exact GPU-seconds over 60, so those minutes read 3.0, not an ulp more."""
    scenario = Scenario(
        total_gpus=3, horizon_days=1, share_target=0.0, utilization_target=1.0,
        ckpt_seconds=61, seed=0,
    )
    res = run_hybrid(bundle, scenario)
    gpu_seconds = busy_gpu_seconds(res.trace.runs, scenario.horizon_minutes)
    assert res.busy_batch.tolist() == [k / 60 for k in gpu_seconds]
    assert res.busy_batch.max() == 3.0


def joined_log(parts):
    """The blocks of ``flatten_requests(parts)`` joined into one log: times,
    group and template LabelColumns, and token counts."""
    times, groups, templates, tokens = zip(*flatten_requests(parts))
    return (
        np.concatenate(times),
        LabelColumn(np.concatenate([g.codes for g in groups]), groups[0].names),
        LabelColumn(np.concatenate([t.codes for t in templates]), templates[0].names),
        np.concatenate(tokens),
    )


def share_scenario(share: float) -> Scenario:
    return Scenario(
        scenario_id="cal",
        total_gpus=32,
        horizon_days=7,
        share_target=share,
        utilization_target=0.7,
        seed=1,
    )


@pytest.fixture(scope="module")
def share_requests(bundle):
    """The request parts each share_runs run was given."""
    return {
        share: scenario_requests(bundle, share_scenario(share))
        for share in (0.0, 0.5, 1.0)
    }


@pytest.fixture(scope="module")
def share_runs(bundle, share_requests):
    return {
        share: run_hybrid(bundle, share_scenario(share), parts)
        for share, parts in share_requests.items()
    }


class TestShareEndpoints:
    def test_share_zero_has_no_inference(self, share_runs, share_requests):
        res = share_runs[0.0]
        times, *_ = joined_log(share_requests[0.0])
        assert times.size == 0
        assert not res.p_inf_kw.any()
        assert not res.g_inf.any()
        assert res.share_realized == 0.0
        assert np.array_equal(res.p_total_kw, res.p_batch_kw)

    def test_share_zero_equals_batch_only_pipeline(self, bundle):
        scen = Scenario(
            scenario_id="iso",
            total_gpus=16,
            horizon_days=2,
            share_target=0.0,
            utilization_target=0.6,
            seed=7,
        )
        res = run_hybrid(bundle, scen)

        assert scen.root_seed == derive_seed(scen.seed, "run", scen.scenario_id)
        fb, fi = _work_scales(bundle, scen)
        assert fi == 0.0
        jobs, _ = generate_jobs(bundle, scen, fb)
        # batch power reads a run's job id as its job's position in jobs
        assert [j.job_id for j in jobs] == list(range(len(jobs)))
        capacity = CapacityTimeline.from_minute_series(
            np.full(scen.horizon_minutes + 1, scen.total_gpus, dtype=np.int64)
        )
        trace = schedule(
            jobs,
            capacity,
            scen.policy,
            ckpt_s=scen.ckpt_seconds,
        )
        p_batch = _batch_power_series(bundle, scen, jobs, trace)

        assert [j.job_id for j in res.jobs] == [j.job_id for j in jobs]
        assert [(j.arrival_s, j.gpu, j.runtime_s) for j in res.jobs] == [
            (j.arrival_s, j.gpu, j.runtime_s) for j in jobs
        ]
        assert np.array_equal(res.p_total_kw, p_batch)
        assert np.array_equal(
            res.busy_batch, trace.busy_minutes(scen.horizon_minutes)
        )

    def test_share_one_has_no_batch(self, share_runs):
        res = share_runs[1.0]
        assert res.jobs == []
        assert not res.p_batch_kw.any()
        assert not res.busy_batch.any()
        assert res.w_batch_offered_h == 0.0
        assert type(res.w_batch_offered_h) is float
        assert res.share_realized == 1.0
        assert np.array_equal(res.p_total_kw, res.p_inf_kw)


class TestRequestParts:
    """generate_requests draws one part per call, so request_stream yields
    one part per (group, template) pair at any scale, and flatten_requests
    labels each request by its own part."""

    scen = Scenario(total_gpus=12, horizon_days=1, seed=1)

    def parts(self, bundle, fi):
        return list(request_stream(bundle, self.scen, fi))

    def test_each_call_returns_one_part_of_its_own_pair(self, bundle):
        """``bench/tracer.py`` counts the requests of every list a call
        returns; each list holds the one part its call was asked for."""
        calls = []

        def recorded(scenario, group, template_id, *args):
            got = generate_requests(scenario, group, template_id, *args)
            calls.append(((group, template_id), got))
            return got

        with mock.patch.object(cosim, "generate_requests", recorded):
            streamed = self.parts(bundle, 0.01)
        assert len(calls) == len(streamed)
        for (pair, got), part in zip(calls, streamed):
            assert len(got) == 1
            assert (got[0].group, got[0].template_id) == pair
            assert got[0] is part

    def test_scenario_requests_are_the_stream_at_its_rate_scale(self, bundle):
        _, fi = _work_scales(bundle, self.scen)
        got = scenario_requests(bundle, self.scen)
        want = self.parts(bundle, fi)
        assert [p.group for p in got] == [p.group for p in want]
        for a, b in zip(got, want):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.tokens.tobytes() == b.tokens.tobytes()

    @pytest.mark.parametrize("fi", [0.0, 0.01])
    def test_one_part_per_pair_in_order(self, bundle, fi):
        parts = self.parts(bundle, fi)
        assert len(parts) == len(bundle.request_groups) * len(bundle.llm_templates)
        assert [(p.group, p.template_id) for p in parts] == [
            (group, t.template_id)
            for group in bundle.request_groups
            for t in bundle.llm_templates
        ]
        sizes = [p.times.size for p in parts]
        assert [p.tokens.size for p in parts] == sizes
        if fi == 0.0:
            assert not any(sizes)
        else:
            assert all(sizes)

    def test_zero_scale_flattens_to_empty_arrays(self, bundle):
        times, groups, templates, tokens = joined_log(self.parts(bundle, 0.0))
        assert times.size == groups.codes.size == templates.codes.size == tokens.size == 0
        assert times.dtype == np.float64
        assert tokens.dtype == np.int64

    def test_each_request_keeps_its_parts_labels(self, bundle):
        parts = self.parts(bundle, 0.01)
        times, groups, templates, tokens = joined_log(parts)
        assert np.all(np.diff(times) >= 0)
        groups, templates = (np.array(label_texts(c)) for c in (groups, templates))
        for part in parts:
            mine = (groups == part.group) & (templates == part.template_id)
            assert np.array_equal(times[mine], part.times)
            assert np.array_equal(tokens[mine], part.tokens)


def hand_part(times, group, template_id) -> RequestPart:
    """A hand-built part whose tokens number its requests from 1."""
    times = np.array(times, dtype=float)
    return RequestPart(times, np.arange(1, times.size + 1), group, template_id)


# equal times within and across parts, on and off minute edges, and empty parts
HAND_PARTS = {
    "ties": [
        hand_part([0.0, 59.5, 60.0, 60.0, 125.0], "a", "x"),
        hand_part([], "a", "y"),
        hand_part([60.0, 60.0, 119.99, 125.0], "b", "x"),
        hand_part([0.0, 125.0, 3600.0], "b", "y"),
    ],
    "many_ties": [hand_part([60.0] * 40 + [90.0] * 40, g, t) for g in "ab" for t in "xyz"],
    "one_part": [hand_part([5.0, 5.0, 61.0], "a", "x")],
    "all_empty": [hand_part([], "a", "x"), hand_part([], "b", "x")],
}


class TestFlattenMatchesWholeLog:
    """flatten_requests' blocks, joined, are the log that one stable sort of
    every request gives (oracles.py), to the bit, whatever the block size.
    The blocks are runs of whole minutes, each of at most _BLOCK_ROWS
    requests unless it is one minute long, and only an empty log gives an
    empty block."""

    @pytest.fixture(
        params=[1, 3, None], ids=["windows_of_1", "windows_of_3", "default_window"]
    )
    def window(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(cosim, "_BLOCK_ROWS", request.param)
        return cosim._BLOCK_ROWS

    def check(self, parts, window):
        blocks = list(flatten_requests(parts))
        for times, groups, templates, tokens in blocks:
            assert times.size == groups.codes.size == templates.codes.size == tokens.size
            assert times.size <= window or times[0] // 60 == times[-1] // 60
        minutes = [times // 60 for times, *_ in blocks]
        assert all(a[-1] < b[0] for a, b in zip(minutes, minutes[1:]))
        assert all(times.size for times, *_ in blocks) or len(blocks) == 1

        got, want = joined_log(parts), flatten_requests_whole(parts)
        for a, b in zip(got, want):
            if isinstance(b, LabelColumn):
                assert a.names == b.names
                a, b = a.codes, b.codes
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_tiny_bundle(self, window, share):
        bundle = load_bundle(tiny_doc())
        scen = Scenario(total_gpus=4, horizon_days=1, share_target=share, seed=5)
        self.check(scenario_requests(bundle, scen), window)

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_default_bundle(self, bundle, window, share):
        scen = Scenario(total_gpus=8, horizon_days=1, share_target=share, seed=1)
        self.check(scenario_requests(bundle, scen), window)

    @pytest.mark.parametrize("name", sorted(HAND_PARTS))
    def test_hand_built_parts(self, window, name):
        self.check(HAND_PARTS[name], window)

    def test_file_from_blocks_is_the_whole_log_file(self, bundle, window, tmp_path):
        """requests.csv written from the blocks is the per-row file of the
        whole log, with each label table carried from block to block."""
        scen = Scenario(total_gpus=8, horizon_days=1, share_target=0.5, seed=1)
        parts = scenario_requests(bundle, scen)
        write_requests_csv(tmp_path / "got.csv", flatten_requests(parts))
        rows_requests_csv(tmp_path / "want.csv", [flatten_requests_whole(parts)])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("verbosity", [1.0, 1.3])
@pytest.mark.parametrize("fi", [0.0, 0.01, None])
@pytest.mark.parametrize("which", ["tiny", "default"])
def test_stream_draws_the_parts_of_the_group_generator(bundle, which, fi, verbosity):
    """Drawing one part at a time draws the parts the former per-group
    generator drew, in its order, bit for bit; ``fi`` None is the
    scenario's own rate scale."""
    if which == "tiny":
        bundle = load_bundle(tiny_doc())
    scen = Scenario(total_gpus=12, horizon_days=1, verbosity_scale=verbosity, seed=1)
    if fi is None:
        _, fi = _work_scales(bundle, scen)
    want = [
        part
        for group in bundle.request_groups
        for part in generate_group_requests(bundle, scen, fi, group)
    ]
    got = list(request_stream(bundle, scen, fi))
    assert [(p.group, p.template_id) for p in got] == [
        (p.group, p.template_id) for p in want
    ]
    for a, b in zip(got, want):
        assert a.times.dtype == b.times.dtype and a.tokens.dtype == b.tokens.dtype
        assert a.times.tobytes() == b.times.tobytes()
        assert a.tokens.tobytes() == b.tokens.tobytes()
    if fi > 0.0:
        assert sum(p.times.size for p in got) > 0


class TestCalibration:
    def test_realized_shares_monotone_and_close(self, share_runs):
        realized = [share_runs[s].share_realized for s in (0.0, 0.5, 1.0)]
        assert realized[0] < realized[1] < realized[2]
        assert realized[0] == 0.0
        assert abs(realized[1] - 0.5) <= 0.05
        assert realized[2] == 1.0

    def test_realized_utilization_near_target(self, share_runs):
        res = share_runs[0.5]
        assert abs(res.utilization_realized - 0.7) <= 0.7 * 0.15


class TestRunInvariants:
    def test_power_decomposition_exact(self, bundle, share_runs):
        # total power against sums made without it: batch power added up
        # one segment run at a time, plus each template's rho_kw times its
        # capped concurrency
        res = share_runs[0.5]
        p_inf = sum(
            t.rho_kw * conc for t, conc in zip(bundle.llm_templates, res.serving.conc_cap)
        )
        p_batch = batch_power_per_run(bundle, res.scenario, res.jobs, res.trace)
        assert np.max(np.abs(res.p_total_kw - (p_batch + p_inf))) <= 1e-9

    def test_capacity_conservation(self, share_runs):
        for res in share_runs.values():
            assert np.all(res.g_inf + res.busy_batch <= res.scenario.total_gpus)
            assert np.all(res.g_inf <= res.scenario.total_gpus)

    def test_unmet_demand_nonnegative(self, share_runs):
        res = share_runs[0.5]
        assert np.all(res.serving.unmet >= 0.0)
        assert np.allclose(res.serving.unmet, res.serving.conc - res.serving.conc_cap)

    def test_each_template_row_follows_its_own_template(self, bundle, share_runs):
        serving = share_runs[0.5].serving
        assert len(bundle.llm_templates) == len(serving.budgets) == 7
        for t_index, template in enumerate(bundle.llm_templates):
            batch, per_instance = template.max_batch, template.gpus_per_instance
            cap = cap_concurrency(
                serving.conc[t_index], batch, serving.budgets[t_index], per_instance
            )
            assert np.array_equal(serving.conc_cap[t_index], cap), template
            assert np.array_equal(
                serving.gpus[t_index], gpu_use(cap, batch, per_instance)
            ), template
            assert np.array_equal(
                serving.power_kw[t_index], inference_power(cap, template.rho_kw)
            ), template

    def test_determinism_same_seed(self, bundle):
        scen = {"scenario_id": "det", "total_gpus": 8, "horizon_days": 1,
                "utilization_target": 0.5, "seed": 3}
        a = run_hybrid(bundle, Scenario(**scen))
        b = run_hybrid(bundle, Scenario(**scen))
        assert np.array_equal(a.p_total_kw, b.p_total_kw)
        assert a.share_realized == b.share_realized

    def test_different_seed_differs(self, bundle):
        base = {"scenario_id": "det", "total_gpus": 8, "horizon_days": 1,
                "utilization_target": 0.5}
        a = run_hybrid(bundle, Scenario(seed=3, **base))
        b = run_hybrid(bundle, Scenario(seed=4, **base))
        assert not np.array_equal(a.p_total_kw, b.p_total_kw)

    def test_uncapped_serves_all_demand(self, bundle):
        scen = Scenario(
            scenario_id="open",
            total_gpus=64,
            horizon_days=2,
            share_target=0.5,
            utilization_target=0.2,
            cap_mode="uncapped",
            seed=2,
        )
        res = run_hybrid(bundle, scen)
        assert res.serving.budgets is None
        assert np.array_equal(res.serving.conc_cap, res.serving.conc)
        assert not res.serving.unmet.any()
        assert res.unmet_work_h == 0.0


def assert_same_serving(got: Serving, want: Serving) -> None:
    """Every field bit for bit: arrays by dtype, shape and bytes, the rest
    by repr, which tells -0.0 from 0.0 and 1 from 1.0. Only the field name
    is reported, since a diff of two arrays' bytes is slow to build."""
    for f in fields(Serving):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            same = (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            same = repr(a) == repr(b)
        assert same, f.name


# one request: (part index, tick, where on the tick, tokens), for the
# default bundle's 5 x 7 (group, template) parts and 10 s ticks; ticks near
# both ends of a one-day horizon are drawn often, so windows start on the
# first tick and run past the last one
_PARTS = 35
_TICKS_PER_DAY = 1440 * 6
_REQUEST = st.tuples(
    st.integers(min_value=0, max_value=_PARTS - 1),
    st.one_of(
        st.integers(min_value=0, max_value=_TICKS_PER_DAY),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=_TICKS_PER_DAY - 30, max_value=_TICKS_PER_DAY),
    ),
    st.sampled_from(("on", "ulp_below", "ulp_above", "mid")),
    st.integers(min_value=1, max_value=20_000),
)


def request_parts_from(bundle, requests) -> list[RequestPart]:
    """One part per (group, template) pair, in order, each request in the
    part its index names; arrivals lie in [0, 86400) and parts may be empty."""
    pairs = [(g, t.template_id) for g in bundle.request_groups for t in bundle.llm_templates]
    last = np.nextafter(86400.0, 0.0)
    rows: list[list[tuple[float, int]]] = [[] for _ in pairs]
    for part, tick, where, tokens in requests:
        t = 10.0 * tick
        if where == "ulp_below":
            t = np.nextafter(t, -np.inf)
        elif where == "ulp_above":
            t = np.nextafter(t, np.inf)
        elif where == "mid":
            t += 5.0
        rows[part].append((min(max(t, 0.0), last), tokens))
    out = []
    for (group, template_id), part_rows in zip(pairs, rows):
        part_rows.sort()
        times = np.array([t for t, _ in part_rows], dtype=float)
        tokens = np.array([k for _, k in part_rows], dtype=np.int64)
        out.append(RequestPart(times, tokens, group, template_id))
    return out


class TestServingMatchesConcatenated:
    """serve_inference windows one request part at a time in integer ticks;
    the oracle concatenates each template's parts and counts float window
    edges in seconds. The concurrency rows and offered GPU-hours, the only
    inputs of provisioning, must agree bit for bit."""

    def check(self, bundle, scen, parts, got: Serving) -> None:
        conc, offered_h = serve_inference_concatenated(bundle, scen, parts)
        assert (got.conc.dtype, got.conc.shape) == (conc.dtype, conc.shape)
        assert got.conc.tobytes() == conc.tobytes()
        assert repr(got.offered_h) == repr(offered_h)

    @given(st.lists(_REQUEST, max_size=60), st.sampled_from(SPEED_CLASSES))
    @settings(max_examples=60, deadline=None)
    def test_random_parts(self, bundle, requests, speed):
        scen = Scenario(horizon_days=1, speed_class=speed)
        parts = request_parts_from(bundle, requests)
        assert len(parts) == _PARTS and bundle.grid_tick_s == 10
        self.check(bundle, scen, parts, serve_inference(bundle, scen, parts))

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_generated_runs(self, bundle, share_runs, share_requests, share):
        res = share_runs[share]
        self.check(bundle, res.scenario, share_requests[share], res.serving)

    def test_parts_windowed_over_many_passes(self, bundle, share_requests):
        """A part windowed in passes of a few requests counts the windows
        of one pass."""
        scen, parts = share_scenario(1.0), share_requests[1.0]
        assert max(p.times.size for p in parts) > 3 * 4096
        with mock.patch("dcpowersim.serving._WINDOWS_PER_PASS", 4096):
            got = serve_inference(bundle, scen, parts)
        self.check(bundle, scen, parts, got)


class TestOnePass:
    """Serving walks its parts once, so a one-shot generator of the parts
    gives the bits of their list, and so does a run that streams its own
    requests."""

    def check(self, bundle, scen, parts, res):
        assert_same_serving(
            serve_inference(bundle, scen, (p for p in parts)),
            serve_inference(bundle, scen, parts),
        )
        streamed = run_hybrid(bundle, scen, (p for p in parts))
        for other in (streamed, run_hybrid(bundle, scen)):
            assert_same_serving(other.serving, res.serving)
            assert other.busy_batch.tobytes() == res.busy_batch.tobytes()
            assert other.p_batch_kw.tobytes() == res.p_batch_kw.tobytes()

    def test_tiny_bundle(self, tiny_run):
        bundle, scen, parts, res = tiny_run
        self.check(bundle, scen, parts, res)

    def test_default_bundle(self, bundle, share_runs, share_requests):
        res, parts = share_runs[0.5], share_requests[0.5]
        assert res.serving.conc.any(axis=1).all()  # every template serves
        self.check(bundle, res.scenario, parts, res)

    def test_each_part_is_dropped_before_the_next_is_asked_for(self, bundle, share_requests):
        """A stream may free a part once serving asks for the next, so
        serving keeps no reference to it, nor to its arrays."""
        served = []

        def tracked(array):
            served.append(weakref.ref(array))
            return array

        def stream():
            for p in share_requests[0.5]:
                assert all(ref() is None for ref in served)
                yield RequestPart(tracked(p.times.copy()), p.tokens, p.group, p.template_id)

        serve_inference(bundle, share_scenario(0.5), stream())
        assert len(served) == len(share_requests[0.5])


MEMORY_SCENARIO = Scenario(
    scenario_id="mem",
    total_gpus=192,
    horizon_days=2,
    share_target=0.5,
    utilization_target=0.75,
    seed=1,
)


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def request_bytes(parts) -> int:
    return sum(p.times.nbytes + p.tokens.nbytes for p in parts)


def test_serving_peak_memory_is_under_a_third_of_the_requests(bundle):
    """Serving keeps one int32 per-tick edge array per template and the
    windows of one part at a time: at 192 GPUs x 2 days, share 0.5, its
    traced peak stays below a third of the request parts' bytes (0.22 here;
    int64 edge arrays read 0.29, and concatenating each template's parts
    took 0.67)."""
    parts = scenario_requests(bundle, MEMORY_SCENARIO)
    peak = traced_peak(serve_inference, bundle, MEMORY_SCENARIO, parts)
    assert peak < request_bytes(parts) / 3, peak / request_bytes(parts)


def test_run_peak_memory_is_under_the_requests(bundle):
    """A run that streams its own requests holds one (group, template) part
    of them at a time: at 192 GPUs x 2 days, share 0.5, its traced peak
    stays below the bytes of the whole request log (0.61 here, where the
    batch side sets the peak; holding the log read 1.8)."""
    log_bytes = request_bytes(scenario_requests(bundle, MEMORY_SCENARIO))
    peak = traced_peak(run_hybrid, bundle, MEMORY_SCENARIO)
    assert peak < log_bytes, peak / log_bytes


def test_streamed_serving_peak_memory_is_under_one_group(bundle):
    """Serving fed by request_stream holds one part and its windows at a
    time, never a whole group: at 768 GPUs x 2 days, share 0.5, its traced
    peak stays below 0.75 of the largest group's bytes (0.49 here; drawing
    a group per call read 1.49)."""
    scen = replace(MEMORY_SCENARIO, total_gpus=768)
    _, fi = _work_scales(bundle, scen)
    largest = max(
        request_bytes(generate_group_requests(bundle, scen, fi, group))
        for group in bundle.request_groups
    )
    peak = traced_peak(serve_inference, bundle, scen, request_stream(bundle, scen, fi))
    assert peak < 0.75 * largest, peak / largest


def test_request_log_writing_peak_memory_is_a_sliver_of_the_log(bundle, tmp_path):
    """Writing requests.csv from the parts holds one block of whole minutes
    and its rendered chunk at a time, never the merged log: at 768 GPUs x 2
    days, share 0.5, its traced peak stays below a quarter of the parts'
    bytes (0.18 here, mostly the rendering of one chunk; merging the whole
    log first read 3.0)."""
    parts = scenario_requests(bundle, replace(MEMORY_SCENARIO, total_gpus=768))
    path = tmp_path / "requests.csv"
    peak = traced_peak(write_requests_csv, path, flatten_requests(parts))
    assert peak < 0.25 * request_bytes(parts), peak / request_bytes(parts)


def tiny_doc() -> dict:
    """A four-GPU cluster: one 2-GPU serving template, one 2-GPU job class."""
    grid = [q / 100.0 for q in range(1, 100)]
    flat_runtime = [math.log(3600.0)] * len(grid)
    return {
        "schema_version": 1,
        "calendar": {"epoch": "2024-01-01"},
        "batch_arrivals": {
            "timezones": {"offsets_hours": [0.0]},
            "groups": {
                "tiny": {
                    "daytype_log_mean": {
                        "weekday": math.log(6.0),
                        "weekend": math.log(6.0),
                    },
                    "week_of_month_log_effect": [0.0] * 5,
                    "dispersion": 0.0,
                    "intraday": {
                        "reference_hour": 0,
                        "alr_mean": [0.0] * 23,
                        "alr_var": [0.0] * 23,
                        "shrinkage": 1e-4,
                    },
                }
            },
        },
        "batch_jobs": {
            "add_alpha": 1.0,
            "quantile_grid": grid,
            "groups": {
                "tiny": {
                    "time_limits": [
                        {"limit_s": 7200, "count": 10,
                         "gpus": [{"gpus": 2, "count": 10}]}
                    ],
                    "runtime_log_quantiles": {
                        "group": flat_runtime,
                        "by_limit": {"7200": flat_runtime},
                        "by_limit_gpus": {"7200|2": flat_runtime},
                    },
                }
            },
        },
        "power_templates": {
            "noise_factor": 0.0,
            "hw_factor": 1.0,
            "template_gate": 1,
            "nodes": [
                {
                    "group": "tiny",
                    "support_count": 500,
                    "ar1_phi": 0.0,
                    "minute_mean": [0.3] * 60,
                    "minute_std": [0.0] * 60,
                    "minute_p5": [0.1] * 60,
                    "minute_p95": [0.5] * 60,
                }
            ],
            "runtime_bin_edges_log": [],
        },
        "inference_arrivals": {
            "calibration_factor": 1.0,
            "groups": {
                "req": {
                    "dispersion": 0.0,
                    "log_rate_weekday": [math.log(3.0)] * 96,
                    "log_rate_weekend": [math.log(3.0)] * 96,
                }
            },
        },
        "tokens": {
            "groups": {"req": {"support_max": 5, "pmf": [0, 0, 0, 0, 1.0]}},
        },
        "llm_templates": {
            "grid_tick_s": 10,
            "templates": [
                {
                    "template_id": "T",
                    "gpus_per_instance": 2,
                    "max_batch": 2,
                    "tpot_s": {"F": 1.5, "M": 2.0, "S": 2.6},
                    "rho_kw": 0.5,
                    "speed_class": "M",
                }
            ],
        },
    }


@pytest.fixture(scope="module")
def tiny_run():
    bundle = load_bundle(tiny_doc())
    scen = Scenario(
        scenario_id="tiny",
        total_gpus=4,
        horizon_days=1,
        share_target=0.5,
        utilization_target=0.25,
        ckpt_seconds=900.0,
        seed=5,
    )
    parts = scenario_requests(bundle, scen)
    return bundle, scen, parts, run_hybrid(bundle, scen, parts)


class TestTinyCluster:
    """Hand-checkable composition on a 4-GPU cluster.

    Every request takes 5 tokens at 2 s each, so every service window is
    exactly 10 s; every job wants 2 GPUs for exactly one hour at a flat
    0.3 kW per GPU. The run must agree with the module formulas applied
    to its own request and job logs.
    """

    def test_population_nonempty(self, tiny_run):
        _, _, parts, res = tiny_run
        times, *_ = joined_log(parts)
        assert times.size > 0
        assert len(res.jobs) > 0

    def test_every_window_is_ten_seconds(self, tiny_run):
        _, scen, parts, res = tiny_run
        times, _, _, tokens = joined_log(parts)
        assert np.all(tokens == 5)
        edges = np.zeros(scen.horizon_minutes * 6 + 1, dtype=np.int32)
        # one 10 s tick each
        assert service_windows(edges, times, tokens, 2.0, 10) == times.size

    def test_inference_chain_recomputes(self, tiny_run):
        _, scen, parts, res = tiny_run
        times, _, _, tokens = joined_log(parts)
        edges = np.zeros(scen.horizon_minutes * 6 + 1, dtype=np.int32)
        work_ticks = service_windows(edges, times, tokens, 2.0, 10)
        conc = concurrency(edges, scen.horizon_minutes, 10)
        assert np.allclose(conc, res.serving.conc[0], atol=1e-12)

        offered = 10 * work_ticks * 2 / (2 * 3600.0)
        assert res.w_inf_offered_h == pytest.approx(offered)
        assert allocate_budgets(4, np.array([offered]), [2]) == [4]
        assert res.serving.budgets == [4]

        cc = cap_concurrency(conc, 2, 4, 2)
        assert np.allclose(cc, res.serving.conc_cap[0], atol=1e-12)
        assert np.array_equal(gpu_use(res.serving.conc_cap[0], 2, 2), res.g_inf)
        assert np.allclose(
            inference_power(res.serving.conc_cap[0], 0.5), res.p_inf_kw, atol=1e-12
        )

    def test_residual_and_schedule_recompute(self, tiny_run):
        bundle, scen, _, res = tiny_run
        capacity = CapacityTimeline.from_minute_series(
            np.concatenate([4 - res.g_inf, [4]])
        )
        trace = schedule(
            res.jobs,
            capacity,
            scen.policy,
            ckpt_s=scen.ckpt_seconds,
        )
        got = [(r.job_id, r.seg_index, r.start_s, r.end_s) for r in res.trace.runs]
        want = [(r.job_id, r.seg_index, r.start_s, r.end_s) for r in trace.runs]
        assert got == want
        assert np.array_equal(
            res.busy_batch, trace.busy_minutes(scen.horizon_minutes)
        )

    def test_jobs_are_the_configured_class(self, tiny_run):
        _, _, _, res = tiny_run
        for job in res.jobs:
            assert job.gpu == 2
            assert job.runtime_s == 3600
            assert job.time_limit_s == 7200
        rejected = set(res.trace.rejected_job_ids)
        expect = sum(2 * 1.0 for j in res.jobs if j.job_id not in rejected)
        assert res.w_batch_offered_h == pytest.approx(expect)

    def test_batch_power_is_flat_per_gpu(self, tiny_run):
        _, _, _, res = tiny_run
        assert np.allclose(res.p_batch_kw, 0.3 * res.busy_batch, atol=1e-12)

    def test_conservation_and_decomposition(self, tiny_run):
        _, _, _, res = tiny_run
        assert np.all(res.g_inf + res.busy_batch <= 4)
        assert np.array_equal(res.p_total_kw, res.p_batch_kw + res.p_inf_kw)

    @pytest.mark.filterwarnings("ignore:GPU budget is smaller")
    def test_oversized_jobs_land_in_rejection_list(self):
        bundle = load_bundle(tiny_doc())
        scen = Scenario(
            scenario_id="cramped",
            total_gpus=1,
            horizon_days=1,
            share_target=0.5,
            utilization_target=0.25,
            seed=5,
        )
        res = run_hybrid(bundle, scen)
        assert len(res.jobs) > 0
        assert sorted(res.trace.rejected_job_ids) == [j.job_id for j in res.jobs]
        assert not res.busy_batch.any()
        assert res.w_batch_offered_h == 0.0


@pytest.fixture(scope="module")
def ckpt_runs(bundle):
    """Share 0.5 on 16 GPUs, so capacity drops preempt runs, per interval."""
    runs = {}
    for ckpt in (100.0, 900.0, math.inf):
        scen = Scenario(
            scenario_id="ckpt",
            total_gpus=16,
            horizon_days=3,
            share_target=0.5,
            utilization_target=0.75,
            ckpt_seconds=ckpt,
            seed=1,
        )
        runs[ckpt] = run_hybrid(bundle, scen)
    return runs


class TestBatchPowerMatchesPerRun:
    """The chunked pass adds each minute's parts in the order of the per-run
    loop in oracles.py, so the two agree to the bit, whatever the chunk."""

    @pytest.fixture(
        params=[None, 1, 3], ids=["default_chunk", "chunks_of_1", "chunks_of_3"],
        autouse=True,
    )
    def chunk_pieces(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(cosim, "_CHUNK_PIECES", request.param)

    def check(self, bundle, res, trace=None):
        scen, jobs = res.scenario, res.jobs
        trace = trace or res.trace
        got = _batch_power_series(bundle, scen, jobs, trace)
        want = batch_power_per_run(bundle, scen, jobs, trace)
        assert got.any()
        assert got.tobytes() == want.tobytes()

    def test_tiny_bundle(self, tiny_run):
        bundle, _, _, res = tiny_run
        self.check(bundle, res)

    @pytest.mark.parametrize("share", [0.0, 0.5])
    def test_default_bundle(self, bundle, share_runs, share):
        self.check(bundle, share_runs[share])

    @pytest.mark.parametrize("ckpt", [100.0, 900.0, math.inf])
    def test_checkpoint_interval(self, bundle, ckpt_runs, ckpt):
        res = ckpt_runs[ckpt]
        assert res.trace.preemptions
        self.check(bundle, res)

    def test_run_cut_at_horizon_and_empty_run(self, tiny_run):
        bundle, scen, _, res = tiny_run
        horizon = scen.horizon_minutes * 60
        job = res.jobs[0]
        extra = [
            SegmentRun(job.job_id, 1, horizon - 90, horizon + 500, job.gpu, False),
            SegmentRun(job.job_id, 0, 1234, 1234, job.gpu, False),
        ]
        self.check(bundle, res, replace(res.trace, runs=res.trace.runs + extra))


def test_batch_power_of_no_runs_is_zero(bundle, share_runs):
    res = share_runs[0.0]
    got = _batch_power_series(bundle, res.scenario, res.jobs, ScheduleTrace())
    assert got.dtype == np.float64
    assert got.shape == (res.scenario.horizon_minutes,)
    assert not got.any()


class TestJobPowerTraceMatchesPerJob:
    """One pass over all jobs gives each job the bits of its own synthesis
    in oracles.py."""

    def check(self, bundle, jobs, root_seed):
        power, lengths = job_power_trace(bundle, jobs, root_seed)
        want = [job_power_trace_per_job(bundle, job, root_seed) for job in jobs]
        assert lengths.tolist() == [len(w) for w in want]
        assert power.tobytes() == np.concatenate(want).tobytes()

    def test_tiny_bundle(self, tiny_run):
        bundle, scen, _, res = tiny_run
        self.check(bundle, res.jobs, scen.root_seed)

    def test_default_bundle(self, bundle, share_runs):
        res = share_runs[0.0]
        self.check(bundle, res.jobs, res.scenario.root_seed)


@st.composite
def run_tables(draw):
    """Job traces and segment runs as plain arrays, starts off minute edges
    and ends past the horizon included."""
    n_minutes = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))
    power = draw(st.lists(st.floats(0.0, 50.0), min_size=sum(lengths),
                          max_size=sum(lengths)))
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(lengths) - 1),
                st.integers(0, 4),
                st.integers(0, n_minutes * 60 + 120),
                st.integers(0, 3000),
            ),
            max_size=12,
        )
    )
    job, seg, start, span = np.array(runs, dtype=np.int64).reshape(-1, 4).T
    lengths = np.array(lengths)
    return (np.array(power), np.cumsum(lengths) - lengths, lengths, job, seg,
            start, start + span, n_minutes)


@given(
    run_tables(),
    st.sampled_from([0, 60, 100, 900, 3600]),
    st.sampled_from([1, 3, 8192]),
)
@settings(max_examples=150, deadline=None)
def test_add_run_power_matches_per_run(table, step, chunk):
    *arrays, n_minutes = table
    want = add_run_power_per_run(*arrays, step, np.zeros(n_minutes))
    with mock.patch.object(cosim, "_CHUNK_PIECES", chunk):
        got = _add_run_power(*arrays, step, np.zeros(n_minutes))
    assert got.tobytes() == want.tobytes()
