import math

import numpy as np
import pytest

from dcpowersim.config import load_bundle
from dcpowersim.cosim import (
    Scenario,
    _batch_power_series,
    _work_scales,
    flatten_requests,
    generate_jobs,
    inference_share,
    run_hybrid,
    scenario_from_dict,
    utilization,
)
from dcpowersim.errors import ConfigurationError
from dcpowersim.scheduler import CapacityTimeline, schedule
from dcpowersim.seeds import derive_seed
from dcpowersim.serving import (
    allocate_budgets,
    cap_concurrency,
    concurrency,
    gpu_use,
    inference_power,
    service_windows,
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
            {"seed": "x"},
            {"ckpt_seconds": 0.5},
        ]
        for bad in cases:
            with pytest.raises(ConfigurationError) as err:
                Scenario(share_target=2.0, **bad)
            fields = sorted(line.split()[0] for line in str(err.value).splitlines())
            assert fields == sorted([*bad, "share_target"]), bad

    def test_infinite_checkpoint_interval_accepted(self):
        assert Scenario(ckpt_seconds=math.inf).ckpt_seconds == math.inf


@pytest.fixture(scope="module")
def share_runs(bundle):
    runs = {}
    for share in (0.0, 0.5, 1.0):
        scen = Scenario(
            scenario_id="cal",
            total_gpus=32,
            horizon_days=7,
            share_target=share,
            utilization_target=0.7,
            seed=1,
        )
        runs[share] = run_hybrid(bundle, scen)
    return runs


class TestShareEndpoints:
    def test_share_zero_has_no_inference(self, bundle, share_runs):
        res = share_runs[0.0]
        times, *_ = flatten_requests(bundle, res.request_parts)
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

        root = derive_seed(scen.seed, "run", scen.scenario_id)
        fb, fi = _work_scales(bundle, scen)
        assert fi == 0.0
        jobs, _ = generate_jobs(bundle, scen, root, fb)
        capacity = CapacityTimeline.from_minute_series(
            np.full(scen.horizon_minutes + 1, scen.total_gpus, dtype=np.int64)
        )
        trace = schedule(
            jobs,
            capacity,
            scen.policy,
            ckpt_s=scen.ckpt_seconds,
        )
        p_batch = _batch_power_series(bundle, scen, root, jobs, trace)

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
        assert res.share_realized == 1.0
        assert np.array_equal(res.p_total_kw, res.p_inf_kw)


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
    def test_power_decomposition_exact(self, share_runs):
        res = share_runs[0.5]
        assert np.max(np.abs(res.p_total_kw - (res.p_batch_kw + res.p_inf_kw))) == 0.0

    def test_capacity_conservation(self, share_runs):
        for res in share_runs.values():
            assert np.all(res.g_inf + res.busy_batch <= res.scenario.total_gpus)
            assert np.all(res.g_inf <= res.scenario.total_gpus)

    def test_unmet_demand_nonnegative(self, share_runs):
        res = share_runs[0.5]
        assert np.all(res.unmet >= 0.0)
        assert np.allclose(res.unmet, res.conc - res.conc_cap)

    def test_residual_is_total_minus_inference(self, share_runs):
        res = share_runs[0.5]
        assert np.array_equal(
            res.residual_capacity, res.scenario.total_gpus - res.g_inf
        )

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
        assert res.budgets is None
        assert np.array_equal(res.conc_cap, res.conc)
        assert not res.unmet.any()
        assert res.unmet_work_h == 0.0


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
    return bundle, scen, run_hybrid(bundle, scen)


class TestTinyCluster:
    """Hand-checkable composition on a 4-GPU cluster.

    Every request takes 5 tokens at 2 s each, so every service window is
    exactly 10 s; every job wants 2 GPUs for exactly one hour at a flat
    0.3 kW per GPU. The run must agree with the module formulas applied
    to its own request and job logs.
    """

    def test_population_nonempty(self, tiny_run):
        bundle, _, res = tiny_run
        times, *_ = flatten_requests(bundle, res.request_parts)
        assert times.size > 0
        assert len(res.jobs) > 0

    def test_every_window_is_ten_seconds(self, tiny_run):
        bundle, _, res = tiny_run
        times, _, _, tokens = flatten_requests(bundle, res.request_parts)
        assert np.all(tokens == 5)
        _, durs = service_windows(times, tokens, 2.0, 10)
        assert np.all(durs == 10.0)

    def test_inference_chain_recomputes(self, tiny_run):
        bundle, scen, res = tiny_run
        times, _, _, tokens = flatten_requests(bundle, res.request_parts)
        starts, durs = service_windows(times, tokens, 2.0, 10)
        conc = concurrency(starts, durs, scen.horizon_minutes, 10)
        assert np.allclose(conc, res.conc[0], atol=1e-12)

        offered = durs.sum() * 2 / (2 * 3600.0)
        assert res.w_inf_offered_h == pytest.approx(offered)
        assert allocate_budgets(4, np.array([offered]), [2]) == [4]
        assert res.budgets == [4]

        cc = cap_concurrency(conc, 2, 4, 2)
        assert np.allclose(cc, res.conc_cap[0], atol=1e-12)
        assert np.array_equal(gpu_use(res.conc_cap[0], 2, 2), res.g_inf)
        assert np.allclose(
            inference_power(res.conc_cap[0], 0.5), res.p_inf_kw, atol=1e-12
        )

    def test_residual_and_schedule_recompute(self, tiny_run):
        bundle, scen, res = tiny_run
        assert np.array_equal(res.residual_capacity, 4 - res.g_inf)
        capacity = CapacityTimeline.from_minute_series(
            np.concatenate([res.residual_capacity, [4]])
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
        _, _, res = tiny_run
        for job in res.jobs:
            assert job.gpu == 2
            assert job.runtime_s == 3600
            assert job.time_limit_s == 7200
        rejected = set(res.trace.rejected_job_ids)
        expect = sum(2 * 1.0 for j in res.jobs if j.job_id not in rejected)
        assert res.w_batch_offered_h == pytest.approx(expect)

    def test_batch_power_is_flat_per_gpu(self, tiny_run):
        _, _, res = tiny_run
        assert np.allclose(res.p_batch_kw, 0.3 * res.busy_batch, atol=1e-12)

    def test_conservation_and_decomposition(self, tiny_run):
        _, _, res = tiny_run
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
