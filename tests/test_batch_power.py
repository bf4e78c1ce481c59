import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim import batch_power, default_bundle
from dcpowersim.batch_power import (
    JobClassModel,
    PowerSynthesisConfig,
    PowerTemplate,
    TemplateStore,
    add_alpha_pmf,
    expected_gpu_runtime_hours,
    sample_jobs,
    select_template,
    synthesize_power,
)
from dcpowersim.config import load_bundle
from dcpowersim.errors import ConfigurationError
from dcpowersim.seeds import substream

from oracles import residual_path, sample_jobs_per_job, synthesize_job_power
from test_cosim import tiny_doc


def _model(leaf_log_level, tl=7200, gpus=2):
    grid = np.array([0.25, 0.5, 0.75])
    return JobClassModel(
        group="g",
        tl_support=(tl,),
        tl_pmf=np.array([1.0]),
        gpu_tables={tl: ((gpus,), np.array([1.0]))},
        quantile_grid=grid,
        leaf_quantiles={(tl, gpus): np.full(3, leaf_log_level)},
        tl_quantiles={},
        group_quantiles=None,
    )


def _sample_one(model, rng):
    """One job's (time limit, gpus, runtime) from ``sample_jobs``."""
    tl, gpus, rt = sample_jobs(model, rng, 1)
    return int(tl[0]), int(gpus[0]), float(rt[0])


class TestRuntimeSampling:
    def test_degenerate_curve_fixes_runtime(self):
        model = _model(math.log(3600.0))
        for tl, gpus, rt in zip(*sample_jobs(model, substream(1, "rt"), 20)):
            assert (tl, gpus) == (7200, 2)
            assert rt == pytest.approx(3600.0)

    def test_time_limit_truncates(self):
        model = _model(math.log(10800.0))
        _, _, rt = _sample_one(model, substream(2, "rt"))
        assert rt == pytest.approx(7200.0)

    @pytest.mark.parametrize("level", ["time_limit", "group"])
    def test_runtime_curve_backs_off_past_missing_levels(self, level):
        # the only leaf curve is for 4 GPUs and every job draws 2
        miss, hit = np.full(3, math.log(60.0)), np.full(3, math.log(1800.0))
        model = replace(
            _model(math.log(3600.0)),
            leaf_quantiles={(7200, 4): miss},
            tl_quantiles={7200: hit} if level == "time_limit" else {},
            group_quantiles=miss if level == "time_limit" else hit,
        )
        _, gpus, rt = _sample_one(model, substream(3, "rt"))
        assert gpus == 2
        assert rt == pytest.approx(1800.0)

    def test_add_alpha_pmf_hand_case(self):
        # counts 3 and 1 with add-alpha 1 over a 2-point support
        assert np.allclose(add_alpha_pmf([3, 1], 1.0), [4.0 / 6.0, 2.0 / 6.0])

    def test_expected_work_matches_degenerate_model(self):
        model = _model(math.log(3600.0))
        assert expected_gpu_runtime_hours(model) == pytest.approx(2.0)


def _backoff_models():
    """``TestRuntimeSampling``'s models: a degenerate curve, one truncated
    at the time limit, and leaf curves that miss every drawn width."""
    miss, hit = np.full(3, math.log(60.0)), np.full(3, math.log(1800.0))
    base = _model(math.log(3600.0))
    return [
        base,
        _model(math.log(10800.0)),
        replace(base, leaf_quantiles={(7200, 4): miss}, tl_quantiles={7200: hit}),
        replace(base, leaf_quantiles={(7200, 4): miss}, group_quantiles=hit),
    ]


def _sampling_models():
    """Every default-bundle job model, the tiny bundle's and the backoff
    models, by name."""
    models = {}
    for name, bundle in (("default", default_bundle()), ("tiny", load_bundle(tiny_doc()))):
        for group, model in bundle.job_models.items():
            models[f"{name}:{group}"] = model
    for i, model in enumerate(_backoff_models()):
        models[f"backoff:{i}"] = model
    return models


class TestVectorDrawMatchesPerJob:
    """``sample_jobs`` against the per-job loop in oracles.py: the same
    uniforms in the same order, so equal time limits, GPU counts and
    runtime bits."""

    MODELS = _sampling_models()

    @given(
        st.sampled_from(sorted(MODELS)),
        st.one_of(st.sampled_from([0, 1]), st.integers(2, 3000)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_groups_and_counts(self, name, n, seed):
        model = self.MODELS[name]
        tl, gpus, rt = sample_jobs(model, np.random.default_rng(seed), n)
        want_tl, want_gpus, want_rt = sample_jobs_per_job(
            model, np.random.default_rng(seed), n
        )
        assert tl.tolist() == want_tl
        assert gpus.tolist() == want_gpus
        assert rt.dtype == np.float64
        assert rt.tobytes() == np.array(want_rt).tobytes()

    def test_every_group_at_cluster_scale(self):
        for name, model in self.MODELS.items():
            got = sample_jobs(model, substream(5, "jobs", name), 5000)
            want = sample_jobs_per_job(model, substream(5, "jobs", name), 5000)
            assert [c.tolist() for c in got] == [list(c) for c in want], name

    def test_unreachable_curve_raises_only_when_drawn(self):
        # no curve for 2 GPUs: zero jobs draw nothing, one job raises
        model = replace(
            _model(math.log(3600.0)), leaf_quantiles={(7200, 4): np.zeros(3)}
        )
        assert all(c.size == 0 for c in sample_jobs(model, substream(6, "rt"), 0))
        with pytest.raises(ConfigurationError, match="no runtime quantiles"):
            sample_jobs(model, substream(6, "rt"), 1)


def _template(key, n=5, mean=0.5, phi=0.5, support=200):
    means = np.full(n, mean)
    return PowerTemplate(
        key=key,
        minute_mean=means,
        minute_std=np.full(n, 0.05),
        minute_p5=means - 0.1,
        minute_p95=means + 0.1,
        ar1_phi=phi,
        support_count=support,
    )


class TestTemplateSelection:
    def test_leaf_at_gate_boundary_selected(self):
        store = TemplateStore(
            nodes={
                ("g", 3600, 2): _template(("g", 3600, 2), support=194),
                ("g", 3600): _template(("g", 3600), support=10_000),
            },
            runtime_bin_edges_log={},
        )
        chosen = select_template(store, ("g", 3600, 2, None), gate=194)
        assert chosen.key == ("g", 3600, 2)

    def test_leaf_below_gate_backs_off_to_parent(self):
        store = TemplateStore(
            nodes={
                ("g", 3600, 2): _template(("g", 3600, 2), support=193),
                ("g", 3600): _template(("g", 3600), support=500),
            },
            runtime_bin_edges_log={},
        )
        chosen = select_template(store, ("g", 3600, 2, None), gate=194)
        assert chosen.key == ("g", 3600)

    def test_full_backoff_to_group_node(self):
        store = TemplateStore(
            nodes={
                ("g", 3600, 2): _template(("g", 3600, 2), support=5),
                ("g", 3600): _template(("g", 3600), support=50),
                ("g",): _template(("g",), support=10_000),
            },
            runtime_bin_edges_log={},
        )
        chosen = select_template(store, ("g", 3600, 2, None), gate=194)
        assert chosen.key == ("g",)

    def test_runtime_bin_node_preferred_when_supported(self):
        store = TemplateStore(
            nodes={
                ("g", 3600, 2, 1): _template(("g", 3600, 2, 1), support=300),
                ("g", 3600, 2): _template(("g", 3600, 2), support=300),
            },
            runtime_bin_edges_log={
                ("g", 3600, 2): np.log([600.0, 1800.0, 3600.0])
            },
        )
        rbin = store.runtime_bin("g", 3600, 2, 2400.0)
        assert rbin == 1
        chosen = select_template(store, ("g", 3600, 2, rbin), gate=194)
        assert chosen.key == ("g", 3600, 2, 1)

    def test_no_node_meets_gate_raises(self):
        store = TemplateStore(
            nodes={("g",): _template(("g",), support=10)},
            runtime_bin_edges_log={},
        )
        with pytest.raises(ConfigurationError):
            select_template(store, ("g", 3600, 2, None), gate=194)


def _ramp_template(n=10):
    """Template whose mean in minute i is i + 1 (band of zero width)."""
    ramp = np.arange(n, dtype=float) + 1.0
    return PowerTemplate(
        key=("g",),
        minute_mean=ramp,
        minute_std=np.zeros(n),
        minute_p5=ramp,
        minute_p95=ramp,
        ar1_phi=0.0,
        support_count=1,
    )


def _one_job(tpl, runtime_s, gpus, cfg, rng):
    """The trace of a single job, from the all-jobs pass."""
    power, lengths = synthesize_power([tpl], [runtime_s], [gpus], cfg, [rng])
    assert lengths.tolist() == [len(power)]
    return power


def _mean_trace(tpl, minutes):
    """One job without noise on one GPU: the template mean, minute by
    minute, for a job running ``minutes`` minutes."""
    cfg = PowerSynthesisConfig(noise_factor=0.0, hw_factor=1.0)
    return _one_job(tpl, 60.0 * minutes, 1, cfg, substream(1, "mean"))


class TestMinuteStats:
    def test_query_past_end_holds_last_minute(self):
        trace = _mean_trace(_ramp_template(n=10), 12)
        assert trace[10] == trace[9]

    def test_in_range_identity(self):
        trace = _mean_trace(_ramp_template(n=10), 12)
        assert trace[9] == pytest.approx(10.0)

    def test_length_one_template_always_minute_zero(self):
        trace = _mean_trace(_template(("g",), n=1, mean=0.7), 501)
        for minute in (0, 5, 500):
            assert trace[minute] == pytest.approx(0.7)


class TestResiduals:
    def test_white_noise_autocorrelation_near_zero(self):
        eps = residual_path(0.0, 10**5, substream(1, "white"))
        r = np.corrcoef(eps[:-1], eps[1:])[0, 1]
        assert abs(r) <= 0.02

    def test_ar1_autocorrelation_matches_phi(self):
        eps = residual_path(0.8, 10**5, substream(2, "ar"))
        r = np.corrcoef(eps[:-1], eps[1:])[0, 1]
        assert abs(r - 0.8) <= 0.02

    @given(st.floats(min_value=-0.95, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_residuals_unit_stationary_variance(self, phi):
        eps = residual_path(phi, 30_000, substream(3, "var", str(phi)))
        assert eps.var() == pytest.approx(1.0, abs=0.1)


class TestSynthesis:
    def test_noiseless_output_is_scaled_clipped_mean(self):
        means = np.array([0.2, 0.6, 0.9])
        tpl = PowerTemplate(
            key=("g",),
            minute_mean=means,
            minute_std=np.full(3, 0.1),
            minute_p5=means - 0.05,
            minute_p95=means + 0.05,
            ar1_phi=0.3,
            support_count=50,
        )
        cfg = PowerSynthesisConfig(noise_factor=0.0, hw_factor=2.0, template_gate=0)
        out = _one_job(tpl, 180.0, 4, cfg, substream(4, "noiseless"))
        assert np.allclose(out, 2.0 * 4 * means)

    def test_trace_length_is_ceil_of_runtime_minutes(self):
        tpl = _template(("g",), n=3)
        cfg = PowerSynthesisConfig(noise_factor=0.0, hw_factor=1.0, template_gate=0)
        assert len(_one_job(tpl, 61.0, 1, cfg, substream(5, "len"))) == 2
        assert len(_one_job(tpl, 60.0, 1, cfg, substream(5, "len"))) == 1

    def test_output_respects_clip_band(self):
        tpl = _template(("g",), n=50, mean=0.5)
        cfg = PowerSynthesisConfig(noise_factor=5.0, hw_factor=1.0, template_gate=0)
        out = _one_job(tpl, 3000.0, 1, cfg, substream(6, "clip"))
        assert np.all(out >= 0.4 - 1e-12)
        assert np.all(out <= 0.6 + 1e-12)


@st.composite
def power_templates(draw):
    """A template of 1-6 minutes; ``ar1_phi`` is 0, negative or positive."""
    n = draw(st.integers(1, 6))
    stat = st.floats(0.0, 2.0)
    mean = np.array(draw(st.lists(stat, min_size=n, max_size=n)))
    below = np.array(draw(st.lists(stat, min_size=n, max_size=n)))
    above = np.array(draw(st.lists(stat, min_size=n, max_size=n)))
    return PowerTemplate(
        key=("g",),
        minute_mean=mean,
        minute_std=np.array(draw(st.lists(stat, min_size=n, max_size=n))),
        minute_p5=mean - below,
        minute_p95=mean + above,
        ar1_phi=draw(st.sampled_from([0.0, -0.6, 0.9]) | st.floats(-0.99, 0.99)),
        support_count=1,
    )


class TestAllJobsPassMatchesPerJob:
    """The all-jobs pass gives each job the bits of the per-job loop in
    oracles.py: same shocks, and the same rounded operations per value."""

    @given(
        templates=st.lists(power_templates(), min_size=1, max_size=3),
        # runtimes of 1-8 minutes, so lengths of 1 and ties are common
        jobs=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 480), st.integers(1, 8)),
            min_size=1,
            max_size=12,
        ),
        noise_factor=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0),
        hw_factor=st.sampled_from([1.0, 0.7]) | st.floats(0.1, 3.0),
        chunk=st.sampled_from([1, 3, 1 << 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_job_sets(self, templates, jobs, noise_factor, hw_factor, chunk):
        job_templates = [templates[t % len(templates)] for t, _, _ in jobs]
        runtimes = [runtime for _, runtime, _ in jobs]
        gpus = [g for _, _, g in jobs]
        cfg = PowerSynthesisConfig(noise_factor=noise_factor, hw_factor=hw_factor)
        rngs = [substream(7, "job", str(i)) for i in range(len(jobs))]
        with mock.patch.object(batch_power, "_CHUNK_MINUTES", chunk):
            power, lengths = synthesize_power(job_templates, runtimes, gpus, cfg, rngs)
        want = [
            synthesize_job_power(tpl, runtime, g, cfg, substream(7, "job", str(i)))
            for i, (tpl, runtime, g) in enumerate(zip(job_templates, runtimes, gpus))
        ]
        assert lengths.tolist() == [len(w) for w in want]
        assert power.tobytes() == np.concatenate(want).tobytes()
