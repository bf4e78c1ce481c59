import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcpowersim import distributions, inference_arrivals
from dcpowersim.batch_arrivals import SimCalendar
from dcpowersim.distributions import GUIDE_BUCKETS, CategoricalSampler, sample_nb2
from dcpowersim.inference_arrivals import (
    MinuteRateModel,
    TokenDistribution,
    apply_verbosity,
    equal_shares,
    fit_group_pmf,
    minute_mean_series,
    place_in_minutes,
    sample_tokens,
    smooth_histogram,
    split_across_templates,
)
from dcpowersim.errors import ConfigurationError
from dcpowersim.seeds import substream

from oracles import sample_categorical, token_mean


def _rate_model(table):
    return MinuteRateModel(group="g", log_rate_table=table, dispersion=0.1)


# the default calendar starts on Monday 2024-01-01, so day 0 is a weekday
# and day 5 a Saturday
WEEKEND_DAY = 5


class TestMinuteRate:
    def test_zero_table_unit_rate(self):
        rate = minute_mean_series(_rate_model(np.zeros((96, 2))), 1, SimCalendar())
        for minute in (0, 700, 1439):
            assert rate[minute] == pytest.approx(1.0)

    def test_slot_forty_covers_minutes_600_to_614(self):
        table = np.zeros((96, 2))
        table[40, 0] = math.log(120.0)
        rate = minute_mean_series(_rate_model(table), WEEKEND_DAY + 1, SimCalendar())
        for minute in (600, 607, 614):
            assert rate[minute] == pytest.approx(120.0)
        assert rate[599] == pytest.approx(1.0)
        assert rate[615] == pytest.approx(1.0)
        assert rate[WEEKEND_DAY * 1440 + 607] == pytest.approx(1.0)

    def test_minutes_in_same_slot_share_rate(self):
        table = substream(1, "table").normal(size=(96, 2))
        rate = minute_mean_series(_rate_model(table), 1, SimCalendar())
        assert rate[0] == rate[14]

    def test_zero_days_have_no_minutes(self):
        rate = minute_mean_series(_rate_model(np.zeros((96, 2))), 0, SimCalendar())
        assert rate.dtype == np.float64
        assert rate.shape == (0,)


class TestMinuteCounts:
    def test_poisson_limit_mean(self):
        rng = substream(2, "minute-poisson")
        draws = sample_nb2(np.full(10**6, 5.0), 0.0, rng)
        assert draws.mean() == pytest.approx(5.0, rel=0.01)

    def test_dispersed_variance(self):
        rng = substream(3, "minute-nb2")
        draws = sample_nb2(np.full(10**6, 100.0), 0.05, rng)
        assert draws.var() == pytest.approx(600.0, rel=0.05)

    @pytest.mark.parametrize("n_minutes", [0, 1440])
    def test_no_arrivals_place_nothing_and_draw_nothing(self, n_minutes):
        rng = substream(5, "minute-empty")
        state = rng.bit_generator.state
        times = place_in_minutes(np.zeros(n_minutes, dtype=np.int64), rng)
        assert times.dtype == np.float64
        assert times.shape == (0,)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("pass_rows", [None, 1, 7])
    def test_passes_place_what_one_draw_places(self, monkeypatch, pass_rows):
        """Drawing the uniforms a pass at a time gives, bit for bit, the
        times one draw of them all gives, and leaves the generator where
        that draw leaves it."""
        if pass_rows is not None:
            monkeypatch.setattr(inference_arrivals, "_PASS_ROWS", pass_rows)
        counts = substream(6, "minute-counts").integers(0, 5, 40)
        rng, one_draw = substream(6, "minute-place"), substream(6, "minute-place")
        times = place_in_minutes(counts, rng)
        want = one_draw.random(int(counts.sum())) * 60.0 + np.repeat(np.arange(40) * 60.0, counts)
        want.sort()
        assert times.tobytes() == want.tobytes()
        assert rng.bit_generator.state == one_draw.bit_generator.state

    def test_unit_mean_unit_alpha(self):
        rng = substream(4, "minute-unit")
        draws = sample_nb2(np.full(10**6, 1.0), 1.0, rng)
        assert draws.var() == pytest.approx(2.0, rel=0.05)


class TestTemplateSplit:
    def test_single_template_identity(self):
        assert split_across_templates(10.0, 0.3, (1.0,)) == [(10.0, 0.3)]

    def test_equal_split_rescales_dispersion(self):
        parts = split_across_templates(14.0, 0.1, equal_shares(7))
        for mu_m, alpha_m in parts:
            assert mu_m == pytest.approx(2.0)
            assert alpha_m == pytest.approx(0.7)
        # superposed mean and variance recover the group parameters
        mean = sum(m for m, _ in parts)
        var = sum(m + a * m * m for m, a in parts)
        assert mean == pytest.approx(14.0)
        assert var == pytest.approx(14.0 + 0.1 * 14.0**2)

    def test_poisson_split_stays_poisson(self):
        parts = split_across_templates(9.0, 0.0, equal_shares(3))
        assert all(alpha == 0.0 for _, alpha in parts)

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_variance_matching_property(self, mu, alpha, m):
        parts = split_across_templates(mu, alpha, equal_shares(m))
        var = sum(mu_m + a_m * mu_m * mu_m for mu_m, a_m in parts)
        assert var == pytest.approx(mu + alpha * mu * mu, rel=1e-9)


class TestGroupPmf:
    def test_tau_zero_returns_empirical(self):
        counts = np.array([3.0, 1.0, 0.0])
        pooled = np.full(3, 1.0 / 3.0)
        assert np.allclose(fit_group_pmf(counts, pooled, 0.0), [0.75, 0.25, 0.0])

    def test_no_data_returns_pooled(self):
        pooled = np.array([0.2, 0.5, 0.3])
        assert np.allclose(fit_group_pmf(np.zeros(3), pooled, 5.0), pooled)

    def test_hand_posterior_blend(self):
        counts = np.array([3.0, 1.0])
        pooled = np.array([0.5, 0.5])
        assert np.allclose(fit_group_pmf(counts, pooled, 4.0), [0.625, 0.375])


class TestSmoothing:
    def test_bandwidth_zero_normalizes(self):
        out = smooth_histogram(np.array([2.0, 6.0, 2.0]), 0)
        assert np.allclose(out, [0.2, 0.6, 0.2])

    def test_interior_point_mass_spreads_to_thirds(self):
        counts = np.zeros(200)
        counts[99] = 1.0  # token count 100
        out = smooth_histogram(counts, 1)
        assert out[98] == pytest.approx(1.0 / 3.0)
        assert out[99] == pytest.approx(1.0 / 3.0)
        assert out[100] == pytest.approx(1.0 / 3.0)
        assert out.sum() == pytest.approx(1.0)

    def test_uniform_is_fixed_point(self):
        for bw in (0, 1, 5, 50):
            out = smooth_histogram(np.full(30, 4.0), bw)
            assert np.allclose(out, np.full(30, 1.0 / 30.0))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    # a subnormal mass whose window means underflow to zero
    @example(counts=[0.0, 5e-324], bw=1)
    def test_smoothing_returns_pmf(self, counts, bw):
        counts = np.asarray(counts)
        if counts.sum() <= 0:
            counts[0] = 1.0
        out = smooth_histogram(counts, bw)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0)

    def test_subnormal_mass_smooths_like_its_normalized_form(self):
        out = smooth_histogram(np.array([5e-324, 0.0, 0.0]), 1)
        assert np.array_equal(out, smooth_histogram(np.array([1.0, 0.0, 0.0]), 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_token_distribution_rejects_non_finite_pmf(self, bad):
        with pytest.raises(ConfigurationError, match="pmf must be finite and sum to 1"):
            TokenDistribution(2, np.array([bad, 0.5]))


class TestVerbosity:
    def test_scale_one_is_bit_identical(self):
        pmf = np.array([0.25, 0.5, 0.25])
        dist = TokenDistribution(3, pmf)
        out = apply_verbosity(dist, 1.0)
        assert out is dist

    def test_scale_two_point_mass_splits_preimage(self):
        pmf = np.zeros(10)
        pmf[9] = 1.0  # point mass at 10 tokens
        out = apply_verbosity(TokenDistribution(10, pmf), 2.0)
        # floor(y / 2) = 10 exactly for y in {20, 21}
        assert out.support_max == 21
        assert out.pmf[19] == pytest.approx(0.5)
        assert out.pmf[20] == pytest.approx(0.5)
        assert abs(out.pmf[:19].sum()) < 1e-12

    def test_mean_scales_on_calibrated_pmf(self, bundle):
        dist = bundle.token_dists["ConvQ2"]
        for scale in (1.5, 2.0):
            scaled = apply_verbosity(dist, scale)
            sampler = CategoricalSampler(scaled.pmf)
            draws = sample_tokens(sampler, substream(8, "verb", str(scale)), 10**6)
            assert draws.mean() == pytest.approx(scale * token_mean(dist), rel=0.05)


class TestTokenSampling:
    def test_point_mass(self):
        pmf = np.zeros(500)
        pmf[499] = 1.0
        draws = sample_tokens(CategoricalSampler(pmf), substream(1, "pm"), 100)
        assert np.all(draws == 500)

    def test_uniform_frequencies(self):
        sampler = CategoricalSampler(np.full(4, 0.25))
        draws = sample_tokens(sampler, substream(2, "uni"), 10**6)
        counts = np.bincount(draws, minlength=5)[1:]
        sigma = math.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 250_000) <= 4 * sigma)

    def test_blended_pmf_frequencies(self):
        pmf = fit_group_pmf(np.array([3.0, 1.0]), np.array([0.5, 0.5]), 4.0)
        draws = sample_categorical(pmf, substream(3, "blend"), 10**6)
        ones = (draws == 0).sum()
        sigma = math.sqrt(10**6 * 0.625 * 0.375)
        assert abs(ones - 625_000) <= 4 * sigma


class _Uniforms:
    """Stands in for a Generator whose ``random`` hands out chosen uniforms
    in order, in one call or over several."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u
        self.used = 0

    def random(self, size):
        out = self.u[self.used:self.used + size].copy()
        assert out.size == size, "asked for more uniforms than were chosen"
        self.used += size
        return out


@st.composite
def pmfs(draw):
    """Token-like pmfs: up to 6000 points, with zero runs, heavy tails or
    all mass on one point."""
    n = draw(st.integers(min_value=1, max_value=6000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "heavy_tail", "point_mass", "sparse"]))
    if kind == "point_mass":
        pmf = np.zeros(n)
        pmf[rng.integers(n)] = 1.0
    elif kind == "heavy_tail":
        pmf = rng.pareto(1.1, n)
    else:
        pmf = rng.random(n)
    if kind == "sparse":
        pmf[rng.random(n) < 0.7] = 0.0
        pmf[rng.integers(n)] += 1.0
    return pmf


@given(pmfs())
@settings(max_examples=60, deadline=None)
def test_guide_table_matches_binary_search(pmf):
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    inner = cdf[cdf < 1.0]
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS,
            inner,
            np.nextafter(inner, 0.0),
            np.nextafter(inner, 1.0),
        ]
    )
    got = CategoricalSampler(pmf).sample(_Uniforms(u), u.size)
    want = sample_categorical(pmf, _Uniforms(u), u.size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("passes", [None, 4])
@pytest.mark.parametrize("size", [0, 3, 4, 9, 2 * GUIDE_BUCKETS + 5])
def test_draws_in_passes_read_the_uniforms_of_one_draw(passes, size):
    """The sampler draws its uniforms a pass at a time; the passes read the
    numbers one ``rng.random(size)`` call reads, in its order. ``passes``
    None keeps the package's pass size."""
    pmf = np.arange(1.0, 301.0) ** -1.5
    with mock.patch.object(
        distributions, "_DRAWS_PER_PASS", passes or distributions._DRAWS_PER_PASS
    ):
        got = CategoricalSampler(pmf).sample(substream(4, "passes"), size)
    want = sample_categorical(pmf, substream(4, "passes"), size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
