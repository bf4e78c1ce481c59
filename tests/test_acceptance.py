"""End-to-end acceptance gate.

Each test covers one headline requirement and prints one terminal-visible
pass/fail line: the workload-composition sweep shapes, saturation
flattening, the scheduler oracles, sampler moments, formula hand checks,
conservation, byte-level determinism, and the verbosity identity.
"""

import json
import math
import time

import numpy as np
import pytest

from dcpowersim.cli import main
from dcpowersim.config import load_bundle
from dcpowersim.cosim import Scenario, inference_share, run_hybrid
from dcpowersim.distributions import CategoricalSampler, sample_nb2
from dcpowersim.inference_arrivals import apply_verbosity, sample_tokens
from dcpowersim.metrics import cov, ramp_rate
from dcpowersim.scheduler import Job, schedule, segment_job
from dcpowersim.seeds import substream
from dcpowersim.serving import cap_concurrency, gpu_use, inference_power

from oracles import (
    TinyJob,
    batch_power_per_run,
    capacity_at,
    enumerate_admissible,
    first_starts,
    flat_capacity,
    plain_fcfs_starts,
    residual_path,
    revealed_capacity,
    token_mean,
)
from test_cosim import tiny_doc

SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
SEEDS = (1, 2, 3)
INTERIOR = (0.25, 0.5, 0.75)
# (share, seed) runs whose total power test 08 recomputes
POWER_CHECKED = ((0.25, 1), (0.75, 2))


@pytest.fixture()
def gate(capsys):
    def _gate(tag: str, ok: bool, detail: str = "") -> None:
        line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _gate


@pytest.fixture(scope="module")
def shape_sweep(bundle):
    """The share sweep behind the two qualitative shape criteria."""
    t0 = time.monotonic()
    results = {}
    for share in SHARES:
        for seed in SEEDS:
            scen = Scenario(
                scenario_id=f"acc_sh{share:g}_seed{seed}",
                total_gpus=48,
                horizon_days=7,
                share_target=share,
                utilization_target=0.75,
                seed=seed,
            )
            results[(share, seed)] = run_hybrid(bundle, scen)
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def saturated_run():
    bundle = load_bundle(tiny_doc())
    scen = Scenario(
        scenario_id="saturated",
        total_gpus=4,
        horizon_days=1,
        share_target=1.0,
        utilization_target=3.0,
        cap_mode="capped",
        seed=2,
    )
    return run_hybrid(bundle, scen)


def test_01_cov_u_shape_over_share_sweep(shape_sweep, gate):
    results, elapsed = shape_sweep
    med = {
        share: float(np.median([cov(results[(share, s)].p_total_kw) for s in SEEDS]))
        for share in SHARES
    }
    interior_min = min(med[s] for s in INTERIOR)
    shaped = interior_min < med[0.0] and interior_min < med[1.0]
    fast = elapsed < 300.0
    detail = (
        "seed-median cov "
        + " ".join(f"{s:g}:{med[s]:.3f}" for s in SHARES)
        + f"; {elapsed:.1f}s"
    )
    gate("01 cov-u-shape", shaped and fast, detail)


def test_02_ramp_hump_over_share_sweep(shape_sweep, gate):
    results, _ = shape_sweep
    curves = {
        seed: {share: ramp_rate(results[(share, seed)].p_total_kw, 15) for share in SHARES}
        for seed in SEEDS
    }
    med = {
        share: float(np.median([curves[s][share] for s in SEEDS])) for share in SHARES
    }
    median_interior = max(med[s] for s in INTERIOR) > max(med[0.0], med[1.0])
    per_seed_interior = sum(
        max(curve[s] for s in INTERIOR) > max(curve[0.0], curve[1.0])
        for curve in curves.values()
    )
    detail = (
        "seed-median ramp15 "
        + " ".join(f"{s:g}:{med[s]:.3f}" for s in SHARES)
        + f"; interior max in {per_seed_interior}/3 seeds"
    )
    gate("02 ramp15-hump", median_interior and per_seed_interior >= 2, detail)


def test_03_saturation_flattens_power(saturated_run, gate):
    res = saturated_run
    cap_level = 4.0  # budget 4 GPUs / 2 per instance * batch 2
    binding = res.serving.conc[0] >= cap_level
    levels = np.unique(res.p_total_kw[binding])
    ok = (
        binding.sum() >= 100
        and levels.size == 1
        and levels[0] == pytest.approx(0.5 * cap_level, abs=0.0)
        and res.unmet_work_h > 0.0
    )
    gate(
        "03 saturation-flat",
        bool(ok),
        f"{int(binding.sum())} cap-bound minutes, power levels {levels}",
    )


def _engine_jobs(spec: list[tuple[int, int, int]]) -> list[Job]:
    return [
        Job(job_id=i, arrival_s=a, gpu=g, runtime_s=r, time_limit_s=r, group="x")
        for i, (a, g, r) in enumerate(spec)
    ]


def test_04_backfill_honors_fcfs_reservations(gate):
    rng = np.random.default_rng(42)
    checked_heads = 0
    backfills = 0
    for _ in range(200):
        cap = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        spec = [
            (
                int(rng.integers(0, 600)),
                int(rng.integers(1, cap + 1)),
                int(rng.integers(30, 600)),
            )
            for _ in range(n)
        ]
        jobs = _engine_jobs(spec)
        trace = schedule(
            jobs, flat_capacity(cap), "FCFS_BACKFILL", ckpt_s=math.inf
        )
        starts = first_starts(trace, jobs)
        oracle = plain_fcfs_starts(
            [TinyJob(j.job_id, j.arrival_s, j.gpu, j.runtime_s) for j in jobs], cap
        )
        for job in jobs:
            if oracle[job.job_id] == job.arrival_s:
                assert starts[job.job_id] == job.arrival_s
        waiting = sorted(
            (j for j in jobs if starts[j.job_id] > j.arrival_s),
            key=lambda j: (j.arrival_s, j.job_id),
        )
        if waiting:
            head = waiting[0]
            assert starts[head.job_id] == oracle[head.job_id]
            checked_heads += 1
        runtimes = {j.job_id: j.runtime_s for j in jobs}
        for record in trace.backfills:
            assert (
                record.time_s + runtimes[record.job_id]
                <= record.head_reservation_s
            )
            backfills += 1
    gate(
        "04 backfill-oracle",
        True,
        f"200 instances, {checked_heads} waiting heads, {backfills} backfills audited",
    )


def test_05_traces_match_exhaustive_search(gate):
    rng = np.random.default_rng(7)
    instances = 0
    for _ in range(50):
        cap = int(rng.integers(2, 6))
        n = int(rng.integers(1, 6))
        spec = [
            (
                int(rng.integers(0, 50)),
                int(rng.integers(1, cap + 1)),
                int(rng.integers(5, 60)),
            )
            for _ in range(n)
        ]
        tiny = [TinyJob(i, a, g, r) for i, (a, g, r) in enumerate(spec)]
        for policy in ("FCFS_BACKFILL", "SWF"):
            jobs = _engine_jobs(spec)
            trace = schedule(jobs, flat_capacity(cap), policy, ckpt_s=math.inf)
            engine = first_starts(trace, jobs)
            admissible = enumerate_admissible(tiny, cap, policy)
            assert len(admissible) == 1, (spec, cap, policy, admissible)
            assert admissible[0] == engine, (spec, cap, policy)
        instances += 1
    gate("05 brute-force-equivalence", True, f"{instances} instances, both policies")


def test_06_sampler_moments(gate):
    checks = []
    for i, (mu, alpha) in enumerate(
        [(0.5, 0.0), (5.0, 0.0), (5.0, 0.1), (20.0, 0.05), (2.0, 1.0)]
    ):
        draws = sample_nb2(np.full(10**6, mu), alpha, substream(100 + i, "acc-nb2"))
        var_target = mu + alpha * mu * mu
        checks.append(abs(draws.mean() - mu) <= 0.01 * mu)
        checks.append(abs(draws.var() - var_target) <= 0.05 * var_target)
    lags = []
    for i, phi in enumerate((0.0, 0.8, -0.5)):
        path = residual_path(phi, 10**5, substream(200 + i, "acc-ar1"))
        lag1 = float(np.corrcoef(path[:-1], path[1:])[0, 1])
        lags.append(lag1)
        checks.append(abs(lag1 - phi) <= 0.02)
    gate(
        "06 sampler-moments",
        all(checks),
        f"5 nb2 grid points at 1e6 draws; ar1 lag-1 {['%.3f' % x for x in lags]}",
    )


def test_07_formula_hand_values(gate):
    checks = {
        "cap_pass": cap_concurrency(np.array([10.0]), 4, 8, 2)[0] == 10.0,
        "cap_bind": cap_concurrency(np.array([20.0]), 4, 8, 2)[0] == 16.0,
        "cap_zero": cap_concurrency(np.array([0.0]), 4, 8, 2)[0] == 0.0,
        "gpu_round": gpu_use(np.array([10.0]), 4, 2)[0] == 6,
        "gpu_zero": gpu_use(np.array([0.0]), 4, 2)[0] == 0,
        "gpu_full": gpu_use(np.array([16.0]), 4, 2)[0] == 8,
        "pow_lin": inference_power(np.array([10.0]), 0.9)[0] == pytest.approx(9.0, abs=1e-9),
        "pow_zero": inference_power(np.array([0.0]), 0.9)[0] == 0.0,
        "seg_rem": segment_job(36000, 14400.0) == [14400, 14400, 7200],
        "seg_exact": segment_job(28800, 14400.0) == [14400, 14400],
        "seg_inf": segment_job(3600, math.inf) == [3600],
        "share_mid": inference_share(30.0, 90.0) == pytest.approx(0.25, abs=1e-9),
        "share_lo": inference_share(0.0, 5.0) == 0.0,
        "share_hi": inference_share(5.0, 0.0) == 1.0,
        "cov_hand": cov(np.array([1.0, 2.0, 3.0]))
        == pytest.approx(math.sqrt(2.0 / 3.0) / 2.0, abs=1e-9),
        "cov_two": cov(np.array([0.0, 2.0])) == pytest.approx(1.0, abs=1e-9),
        "ramp_hand": ramp_rate(np.array([1.0, 2.0, 4.0, 4.0]), 1)
        == pytest.approx(1.0 / 2.75, abs=1e-9),
        "ramp_flat": ramp_rate(np.full(10, 3.0), 1) == 0.0,
    }
    reveal = revealed_capacity(
        np.concatenate([np.full(1440, 100.0), np.full(1440, 90.0), np.full(1440, 120.0)])
    )
    checks["revealed"] = [capacity_at(reveal, d * 86400.0) for d in range(3)] == [100, 100, 120]
    bad = sorted(name for name, ok in checks.items() if not ok)
    gate("07 formula-conformance", not bad, f"{len(checks)} hand values" + (f"; failed {bad}" if bad else ""))


def test_08_conservation_every_minute(bundle, shape_sweep, saturated_run, gate):
    results, _ = shape_sweep
    runs = list(results.values()) + [saturated_run]
    worst_gpu = 0.0
    for res in runs:
        total = res.scenario.total_gpus
        worst_gpu = max(worst_gpu, float(np.max(res.g_inf + res.busy_batch - total, initial=-math.inf)))
    # total power against sums made without it, on two mixed runs: batch
    # power added up one segment run at a time, plus each template's
    # rho_kw times its capped concurrency
    worst_kw = 0.0
    for key in POWER_CHECKED:
        res = results[key]
        p_inf = sum(
            t.rho_kw * conc for t, conc in zip(bundle.llm_templates, res.serving.conc_cap)
        )
        p_batch = batch_power_per_run(bundle, res.scenario, res.jobs, res.trace)
        worst_kw = max(worst_kw, float(np.max(np.abs(res.p_total_kw - (p_batch + p_inf)))))
    ok = worst_gpu <= 0 and worst_kw <= 1e-9
    gate(
        "08 conservation",
        ok,
        f"{len(runs)} runs; max GPU overrun {worst_gpu:.2e}; "
        f"{len(POWER_CHECKED)} runs: max power gap {worst_kw:.2e} kW",
    )


def test_09_byte_identical_outputs(tmp_path, gate):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    scen = tmp_path / "scen.json"
    scen.write_text(
        json.dumps({"total_gpus": 4, "horizon_days": 1, "utilization_target": 0.25})
    )
    sweep = tmp_path / "sweep.json"
    sweep.write_text(
        json.dumps(
            {
                "shares": [0.0, 0.5, 1.0],
                "seeds": [1],
                "scenario": {"total_gpus": 4, "horizon_days": 1,
                             "utilization_target": 0.25},
            }
        )
    )

    sim_outs = []
    for name in ("sim_a", "sim_b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out), "--seed", "5"]) == 0
        sim_outs.append(out)
    sim_files = ["series.csv", "trace.csv", "jobs.csv", "manifest.json"]
    sim_ok = all(
        (sim_outs[0] / f).read_bytes() == (sim_outs[1] / f).read_bytes()
        for f in sim_files
    )

    sweep_outs = []
    for name, workers in (("sw_serial", "1"), ("sw_parallel", "3")):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--scenario", str(sweep),
                     "--out", str(out), "--parallel", workers]) == 0
        sweep_outs.append(out)
    names = sorted(p.name for p in sweep_outs[0].glob("*.csv"))
    sweep_ok = bool(names) and all(
        (sweep_outs[0] / f).read_bytes() == (sweep_outs[1] / f).read_bytes()
        for f in names
    )
    gate(
        "09 determinism",
        sim_ok and sweep_ok,
        f"{len(sim_files)} simulate files, {len(names)} sweep files incl. parallel",
    )


def test_10_verbosity_identity(bundle, gate):
    dist = bundle.token_dists["ConvQ2"]
    unscaled = apply_verbosity(dist, 1.0)
    identity = np.array_equal(unscaled.pmf, dist.pmf)
    doubled = apply_verbosity(dist, 2.0)
    draws = sample_tokens(
        CategoricalSampler(doubled.pmf), substream(11, "acc-verbosity"), 10**6
    )
    target = 2.0 * token_mean(dist)
    rel = abs(float(draws.mean()) - target) / target
    gate(
        "10 verbosity",
        identity and rel <= 0.05,
        f"s=1 pmf bit-equal; s=2 mean off target by {100 * rel:.2f}%",
    )
