import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim.batch_arrivals import (
    DailyCountModel,
    IntradayProfile,
    SimCalendar,
    TimezonePlan,
    daily_mean,
    generate_zone_arrivals,
    place_arrivals,
    sample_hourly_profile,
    superpose_timezones,
)
from dcpowersim.distributions import sample_nb2
from dcpowersim.errors import ConfigurationError
from dcpowersim.seeds import substream


def _model(weekday_log, weekend_log=None, wom=None, alpha=0.0):
    return DailyCountModel(
        group="g",
        daytype_effects={
            "weekday": weekday_log,
            "weekend": weekday_log if weekend_log is None else weekend_log,
        },
        week_of_month_effects=wom or {i: 0.0 for i in range(5)},
        dispersion=alpha,
    )


class TestDailyMean:
    def test_weekday_level_alone(self):
        model = _model(math.log(50.0))
        assert daily_mean(model, 0, SimCalendar()) == pytest.approx(50.0)

    def test_zero_effects_give_unit_mean(self):
        model = _model(0.0)
        assert daily_mean(model, 0, SimCalendar()) == pytest.approx(1.0)

    def test_week_of_month_multiplies(self):
        wom = {i: math.log(1.2) for i in range(5)}
        model = _model(math.log(50.0), wom=wom)
        assert daily_mean(model, 0, SimCalendar()) == pytest.approx(60.0)

    def test_weekend_level_selected_on_saturday(self):
        model = _model(math.log(50.0), weekend_log=math.log(10.0))
        # epoch 2024-01-01 is a Monday, so day 5 is Saturday
        assert daily_mean(model, 5, SimCalendar()) == pytest.approx(10.0)

    def test_negative_dispersion_rejected(self):
        with pytest.raises(ConfigurationError):
            _model(0.0, alpha=-0.1)


class TestCountMoments:
    def test_poisson_limit(self):
        rng = substream(1, "nb2-poisson")
        draws = sample_nb2(np.full(10**6, 10.0), 0.0, rng)
        assert draws.mean() == pytest.approx(10.0, rel=0.01)
        assert draws.var() == pytest.approx(10.0, rel=0.05)

    def test_overdispersed_variance(self):
        rng = substream(2, "nb2-alpha")
        draws = sample_nb2(np.full(10**6, 10.0), 0.1, rng)
        assert draws.mean() == pytest.approx(10.0, rel=0.01)
        assert draws.var() == pytest.approx(20.0, rel=0.05)

    def test_small_mean_heavy_dispersion(self):
        rng = substream(3, "nb2-small")
        draws = sample_nb2(np.full(10**6, 0.5), 2.0, rng)
        # variance mu + alpha*mu^2 = 0.5 + 2*0.25 = 1.0
        assert draws.mean() == pytest.approx(0.5, rel=0.01)
        assert draws.var() == pytest.approx(1.0, rel=0.05)


class TestHourlyProfile:
    def test_zero_alr_gives_uniform(self):
        profile = IntradayProfile(np.zeros(23), np.zeros(23), reference_hour=0)
        shares = sample_hourly_profile(profile, substream(1, "alr"))
        assert np.allclose(shares, np.full(24, 1.0 / 24.0))

    def test_single_component_concentrates(self):
        mean = np.full(23, -500.0)
        mean[7] = math.log(23.0)  # hour 8: reference occupies index 0
        profile = IntradayProfile(mean, np.zeros(23), reference_hour=0)
        shares = sample_hourly_profile(profile, substream(1, "alr2"))
        assert shares[8] == pytest.approx(23.0 / 24.0)
        assert shares[0] == pytest.approx(1.0 / 24.0)
        assert shares[[i for i in range(24) if i not in (0, 8)]].max() < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sample_always_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        profile = IntradayProfile(
            rng.normal(0, 3, 23), rng.random(23) * 4.0, reference_hour=int(rng.integers(24))
        )
        shares = sample_hourly_profile(profile, rng)
        assert np.all(shares >= 0)
        assert abs(shares.sum() - 1.0) <= 1e-9


class TestPlaceArrivals:
    def test_zero_count_empty(self):
        out = place_arrivals(0, np.full(24, 1.0 / 24.0), 0.0, substream(1, "p"))
        assert out.size == 0

    def test_uniform_profile_multinomial_concentration(self):
        rng = substream(4, "place-uniform")
        ts = place_arrivals(1000, np.full(24, 1.0 / 24.0), 0.0, rng)
        hours = (ts // 3600).astype(int)
        counts = np.bincount(hours, minlength=24)
        expected = 1000.0 / 24.0
        sigma = math.sqrt(1000.0 * (1.0 / 24.0) * (23.0 / 24.0))
        assert np.all(np.abs(counts - expected) <= 4.0 * sigma)

    def test_degenerate_profile_stays_in_hour_zero(self):
        p = np.zeros(24)
        p[0] = 1.0
        ts = place_arrivals(500, p, 86400.0, substream(5, "place-point"))
        assert np.all(ts >= 86400.0)
        assert np.all(ts < 86400.0 + 3600.0)

    def test_timestamps_sorted(self):
        ts = place_arrivals(200, np.full(24, 1.0 / 24.0), 0.0, substream(6, "s"))
        assert np.all(np.diff(ts) >= 0)


class TestTimezones:
    def test_single_zone_identity(self):
        model = _model(math.log(40.0), alpha=0.1)
        profile = IntradayProfile(np.zeros(23), np.full(23, 0.01), reference_hour=0)
        plan = TimezonePlan(offsets_hours=(0.0,))
        merged = superpose_timezones(
            plan, model, profile, 5, substream(9, "tz"), SimCalendar()
        )
        single = generate_zone_arrivals(
            model, profile, 5, substream(9, "tz"), SimCalendar()
        )
        assert np.array_equal(merged, single)

    def test_three_zone_mean_preserved(self):
        model = _model(math.log(90.0))
        profile = IntradayProfile(np.zeros(23), np.zeros(23), reference_hour=0)
        plan = TimezonePlan(offsets_hours=(0.0, 8.0, 16.0))
        merged = superpose_timezones(
            plan, model, profile, 1000, substream(10, "tz3"), SimCalendar()
        )
        per_day = merged.size / 1000.0
        assert per_day == pytest.approx(90.0, rel=0.02)

    def test_offset_point_mass_lands_in_shifted_hours(self):
        model = _model(math.log(30.0))
        mean = np.full(23, -500.0)  # all mass at the reference hour 0
        profile = IntradayProfile(mean, np.zeros(23), reference_hour=0)
        plan = TimezonePlan(offsets_hours=(0.0, 12.0))
        merged = superpose_timezones(
            plan, model, profile, 3, substream(11, "tz12"), SimCalendar()
        )
        hours = (merged % 86400.0) // 3600.0
        assert set(hours.astype(int)) <= {0, 12}

    def test_share_validation(self):
        with pytest.raises(ConfigurationError):
            TimezonePlan(offsets_hours=(0.0, 1.0), shares=(0.7, 0.7))
        with pytest.raises(ConfigurationError):
            TimezonePlan(offsets_hours=())
