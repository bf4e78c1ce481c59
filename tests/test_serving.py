from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcpowersim import serving
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

from oracles import brute_concurrency, service_window, tick_edges


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
        """The edge row holds the scalar windows, clipped to its last entry,
        and the return value their ticks, however many passes it takes."""
        rng = substream(1, "windows")
        n_ticks = 60
        arrivals = rng.random(200) * 700.0  # some start past the horizon
        tokens = rng.integers(1, 2000, 200)  # and some run past it
        windows = [
            service_window(float(a), int(k), 0.08, 10) for a, k in zip(arrivals, tokens)
        ]
        starts = np.array([int(s) // 10 for s, _ in windows])
        ticks = np.array([int(d) // 10 for _, d in windows])
        assert starts.max() > n_ticks and (starts + ticks).max() > n_ticks
        want = tick_edges(
            np.minimum(starts, n_ticks), np.minimum(starts + ticks, n_ticks), n_ticks
        )
        for per_pass in (serving._WINDOWS_PER_PASS, 7):
            edges = np.zeros(n_ticks + 1, dtype=np.int32)
            with mock.patch.object(serving, "_WINDOWS_PER_PASS", per_pass):
                work_ticks = service_windows(edges, arrivals, tokens, 0.08, 10)
            assert np.array_equal(edges, want), per_pass
            assert work_ticks == ticks.sum(), per_pass

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
        edges = np.zeros(2, dtype=np.int32)
        work_ticks = service_windows(edges, np.zeros(tokens.size), tokens, 0.13, 10)
        assert 10 * work_ticks / tokens.size == pytest.approx(
            expected_window_seconds(pmf, 0.13, 10), rel=0.01
        )


def minute_concurrency(starts, ends, minutes, tick):
    """``concurrency`` of windows [starts, ends) given in ticks."""
    return concurrency(tick_edges(starts, ends, minutes * 60 // tick), minutes, tick)


class TestConcurrency:
    def test_full_minute_counts_one(self):
        out = minute_concurrency([0], [6], 1, 10)
        assert out[0] == pytest.approx(1.0)

    def test_half_minute_counts_half(self):
        out = minute_concurrency([0], [3], 1, 10)
        assert out[0] == pytest.approx(0.5)

    def test_hand_overlap_sum(self):
        starts = np.array([0, 0, 0])
        ends = np.array([12, 6, 3])  # 60, 30 and 15 s of 5 s ticks
        out = minute_concurrency(starts, ends, 1, 5)
        assert out[0] == pytest.approx(1.75)

    def test_tick_must_divide_minute(self):
        with pytest.raises(ConfigurationError):
            minute_concurrency([0], [6], 1, 7)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_sampling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        starts = rng.integers(0, 180, n)
        ends = starts + rng.integers(1, 18, n)
        out = minute_concurrency(starts, ends, 40, 10)
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

    @given(
        st.sampled_from([p for p in range(1, 61) if 60 % p == 0]),
        st.integers(1, 512),
        st.integers(1, 16),
        st.integers(0, 2**24),
        st.integers(-1, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_gpu_use_is_exact_with_no_allowance(
        self, per_minute, max_batch, size, k, off
    ):
        """Serving hands gpu_use a tick sum over the ticks per minute, or
        the cap of a whole number of instances: both give the instances an
        integer ceiling gives, with no allowance for float error. Tick sums
        at and one tick either side of k full instances are the closest
        calls."""
        ticks = max(per_minute * max_batch * k + off, 0)
        conc = np.array([ticks]) / per_minute
        instances = -(-ticks // (per_minute * max_batch))
        assert gpu_use(conc, max_batch, size)[0] == size * instances
        # a budget of whole instances that binds, or just fits
        fits = ticks // (per_minute * max_batch)
        capped = cap_concurrency(conc, max_batch, size * fits, size)
        assert gpu_use(capped, max_batch, size)[0] == size * fits

    def test_inference_power_linear(self):
        assert inference_power(np.array([10.0]), 0.9)[0] == pytest.approx(9.0)
        assert inference_power(np.array([0.0]), 0.9)[0] == 0.0
        doubled = inference_power(np.array([20.0]), 0.9)[0]
        assert doubled == pytest.approx(18.0)
