import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim.errors import ConfigurationError
from dcpowersim.serving import (
    allocate_budgets,
    cap_concurrency,
    concurrency,
    expected_window_seconds,
    gpu_use,
    inference_power,
    service_windows,
)
from dcpowersim.seeds import substream

from oracles import brute_concurrency, service_window


class TestServiceWindow:
    def test_short_request_rounds_up_to_one_tick(self):
        start, duration = service_window(3.0, tokens=100, tpot_s=0.05, grid_tick_s=10)
        assert duration == 10.0  # raw 5 s rounds up
        assert start == 10.0  # next tick after arrival

    def test_arrival_on_tick_starts_immediately(self):
        start, _ = service_window(30.0, tokens=100, tpot_s=0.05, grid_tick_s=10)
        assert start == 30.0

    def test_exact_multiple_unchanged(self):
        _, duration = service_window(0.0, tokens=600, tpot_s=0.05, grid_tick_s=10)
        assert duration == 30.0  # 600 * 0.05 = 30 exactly

    def test_vectorized_matches_scalar(self):
        rng = substream(1, "windows")
        arrivals = rng.random(200) * 600.0
        tokens = rng.integers(1, 2000, 200)
        starts, ticks = service_windows(arrivals, tokens, 0.08, 10)
        assert starts.dtype == ticks.dtype == np.int64
        for i in range(200):
            s, d = service_window(float(arrivals[i]), int(tokens[i]), 0.08, 10)
            assert (10 * starts[i], 10 * ticks[i]) == (s, d)

    def test_expected_window_matches_pmf_enumeration(self):
        pmf = np.array([0.125, 0.5, 0.25, 0.125])
        got = expected_window_seconds(pmf, tpot_s=4.0, grid_tick_s=10)
        # durations for 1..4 tokens at 4 s/token: 10, 10, 20, 20
        assert got == pytest.approx(0.125 * 10 + 0.5 * 10 + 0.25 * 20 + 0.125 * 20)

    def test_expected_window_matches_realized_mean(self):
        rng = substream(2, "exp-window")
        pmf = rng.random(50)
        pmf /= pmf.sum()
        tokens = 1 + rng.choice(50, size=200_000, p=pmf)
        _, ticks = service_windows(np.zeros(tokens.size), tokens, 0.13, 10)
        assert (10 * ticks).mean() == pytest.approx(
            expected_window_seconds(pmf, 0.13, 10), rel=0.01
        )


class TestConcurrency:
    def test_full_minute_counts_one(self):
        out = concurrency(np.array([0]), np.array([6]), 1, 10)
        assert out[0] == pytest.approx(1.0)

    def test_half_minute_counts_half(self):
        out = concurrency(np.array([0]), np.array([3]), 1, 10)
        assert out[0] == pytest.approx(0.5)

    def test_hand_overlap_sum(self):
        starts = np.array([0, 0, 0])
        ends = np.array([12, 6, 3])  # 60, 30 and 15 s of 5 s ticks
        out = concurrency(starts, ends, 1, 5)
        assert out[0] == pytest.approx(1.75)

    def test_tick_must_divide_minute(self):
        with pytest.raises(ConfigurationError):
            concurrency(np.array([0]), np.array([6]), 1, 7)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_sampling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        starts = rng.integers(0, 180, n)
        ends = starts + rng.integers(1, 18, n)
        out = concurrency(starts, ends, 40, 10)
        oracle = brute_concurrency(
            [(10.0 * s, 10.0 * e) for s, e in zip(starts, ends)], 40
        )
        assert np.allclose(out, oracle)


class TestBudgets:
    def test_single_template_floor_to_instances(self):
        assert allocate_budgets(10, np.array([5.0]), np.array([4])) == [8]

    def test_two_template_remainder_tie_breaks_on_id(self):
        budgets = allocate_budgets(10, np.array([1.0, 1.0]), np.array([2, 2]))
        assert budgets == [6, 4]

    def test_budget_exhausts_total_when_divisible(self):
        budgets = allocate_budgets(12, np.array([2.0, 1.0]), np.array([2, 2]))
        assert sum(budgets) == 12

    def test_no_offered_work_zero_budgets(self):
        assert allocate_budgets(0, np.array([0.0, 0.0]), np.array([1, 2])) == [0, 0]
        with pytest.raises(ValueError):
            allocate_budgets(4, np.array([0.0]), np.array([2]))

    def test_budget_below_every_instance_warns(self):
        with pytest.warns(UserWarning):
            budgets = allocate_budgets(3, np.array([1.0]), np.array([4]))
        assert budgets == [0]

    @given(
        st.integers(min_value=0, max_value=64),
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.sampled_from([1, 2, 4, 8]),
            ),
            min_size=1,
            max_size=7,
        ),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:GPU budget is smaller")
    def test_budgets_are_instance_multiples_within_total(self, total, rows):
        offered = np.array([r[0] for r in rows])
        sizes = np.array([r[1] for r in rows])
        budgets = allocate_budgets(total, offered, sizes)
        assert sum(budgets) <= total
        for b, g in zip(budgets, sizes):
            assert b % g == 0
            assert b >= 0


class TestCapAndPower:
    def test_cap_not_binding(self):
        out = cap_concurrency(np.array([10.0]), 4, 8, 2)
        assert out[0] == pytest.approx(10.0)

    def test_cap_binding(self):
        out = cap_concurrency(np.array([20.0]), 4, 8, 2)
        assert out[0] == pytest.approx(16.0)

    def test_zero_concurrency(self):
        assert cap_concurrency(np.array([0.0]), 4, 8, 2)[0] == 0.0

    def test_unbounded_budget_never_caps(self):
        out = cap_concurrency(np.array([1e9]), 4, None, 2)
        assert out[0] == pytest.approx(1e9)

    def test_gpu_use_rounds_to_whole_instances(self):
        assert gpu_use(np.array([10.0]), 4, 2)[0] == 6
        assert gpu_use(np.array([0.0]), 4, 2)[0] == 0
        assert gpu_use(np.array([16.0]), 4, 2)[0] == 8

    def test_inference_power_linear(self):
        assert inference_power(np.array([10.0]), 0.9)[0] == pytest.approx(9.0)
        assert inference_power(np.array([0.0]), 0.9)[0] == 0.0
        doubled = inference_power(np.array([20.0]), 0.9)[0]
        assert doubled == pytest.approx(18.0)
