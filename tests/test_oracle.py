"""Hindsight oracle: cross-checked three ways, plus baseline policies."""

import dis
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    continuous_configs,
    continuous_prices,
    dyadic_configs,
    dyadic_prices,
    make_series,
    random_walk,
    rng_seeds,
)
from rtp_arb import (
    Action,
    BatteryConfig,
    Observation,
    ValidationError,
    brute_force_optimal,
    episode_return,
    hindsight_optimal,
    idle_policy,
    simulate,
    threshold_policy,
)
from rtp_arb import oracle
from rtp_arb.env import charge_grid
from rtp_arb.oracle import KERNEL_MAX_LEVELS
from test_memory import MIB, peak_bytes

TINY = BatteryConfig(capacity_kwh=1.0, rate_kw=1.0, window_hours=1)


def exhaustive_env_optimum(series, config):
    """Third route: literally replay every action sequence through the env."""
    n_steps = len(series) - 1
    best = -np.inf
    for combo in itertools.product(Action, repeat=n_steps):
        best = max(best, episode_return(simulate(series, config, combo)))
    return best


class TestHindsightOptimal:
    def test_worked_example(self):
        plan = hindsight_optimal(make_series([3.0, 1.0, 5.0]), TINY)
        assert plan.value == 4.0
        assert len(plan.actions) == 2
        assert plan.actions[0] == Action.CHARGE

    def test_constant_prices_are_worthless(self, powerwall):
        plan = hindsight_optimal(make_series([4.0] * 10), powerwall)
        assert plan.value == 0.0

    def test_decreasing_prices_are_worthless(self, powerwall):
        plan = hindsight_optimal(make_series([9.0, 7.0, 4.0, 1.0]), powerwall)
        assert plan.value == 0.0

    def test_plan_replays_to_value(self, powerwall):
        s = make_series([3.0, 8.0, 2.0, 9.0, 1.0, 4.0])
        plan = hindsight_optimal(s, powerwall)
        replayed = episode_return(simulate(s, powerwall, plan.actions))
        assert replayed == pytest.approx(plan.value, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "prices", [[1e308, -1e308, 1e308, 1.0], [0.0, 1e308, 0.0, 1e308, 0.0]], ids=["step", "value"]
    )
    def test_overflow_is_a_validation_error(self, prices, powerwall):
        # the first overflows a price step, the second only a value
        with pytest.raises(ValidationError, match="not finite"):
            hindsight_optimal(make_series(prices), powerwall)

    @given(prices=continuous_prices(min_len=2, max_len=12), config=continuous_configs())
    @settings(max_examples=100, deadline=None)
    def test_value_is_nonnegative(self, prices, config):
        assert hindsight_optimal(make_series(prices), config).value >= 0.0

    @given(prices=continuous_prices(min_len=2, max_len=12), config=continuous_configs())
    @settings(max_examples=100, deadline=None)
    def test_plan_consistency(self, prices, config):
        s = make_series(prices)
        plan = hindsight_optimal(s, config)
        assert len(plan.actions) == len(prices) - 1
        replayed = episode_return(simulate(s, config, plan.actions))
        assert replayed == pytest.approx(plan.value, rel=1e-9, abs=1e-9)


class TestOracleAgreement:
    def test_brute_force_worked_example(self):
        assert brute_force_optimal(make_series([3.0, 1.0, 5.0]), TINY) == 4.0

    def test_two_price_series_earns_nothing(self, powerwall):
        # single step from an empty battery: reward is 0 * delta
        assert brute_force_optimal(make_series([2.0, 50.0]), powerwall) == 0.0

    def test_brute_force_refuses_long_horizons(self, powerwall):
        with pytest.raises(ValueError, match="3\\^"):
            brute_force_optimal(make_series([1.0] * 14), powerwall)

    @given(prices=continuous_prices(min_len=2, max_len=10), config=continuous_configs())
    @settings(max_examples=120, deadline=None)
    def test_dp_equals_brute_force(self, prices, config):
        s = make_series(prices)
        dp = hindsight_optimal(s, config).value
        bf = brute_force_optimal(s, config)
        assert dp == pytest.approx(bf, rel=1e-9, abs=1e-12)

    @given(prices=continuous_prices(min_len=2, max_len=5), config=continuous_configs())
    @settings(max_examples=40, deadline=None)
    def test_dp_equals_literal_env_enumeration(self, prices, config):
        # slowest but most independent route: every sequence through the env
        s = make_series(prices)
        dp = hindsight_optimal(s, config).value
        env_best = exhaustive_env_optimum(s, config)
        assert dp == pytest.approx(env_best, rel=1e-9, abs=1e-12)


class TestDominance:
    @given(seed=rng_seeds())
    @settings(max_examples=10, deadline=None)
    def test_beats_1000_random_policies(self, seed):
        rng = np.random.default_rng(seed)
        prices = rng.uniform(0.0, 12.0, size=24)
        config = BatteryConfig(capacity_kwh=9.0, rate_kw=4.0, window_hours=2)
        s = make_series(prices)
        best = hindsight_optimal(s, config).value
        for _ in range(1000):
            actions = [Action(int(a)) for a in rng.integers(3, size=23)]
            assert episode_return(simulate(s, config, actions)) <= best + 1e-9


class TestScalingEquivariance:
    @given(
        prices=dyadic_prices(min_len=3, max_len=10),
        config=dyadic_configs(),
        exponent=st.integers(min_value=-2, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_power_of_two_scaling(self, prices, config, exponent):
        # powers of two rescale every intermediate exactly, so both the
        # value and the tie-broken plan must be preserved
        c = 2.0**exponent
        base = hindsight_optimal(make_series(prices), config)
        scaled = hindsight_optimal(make_series([p * c for p in prices]), config)
        assert scaled.value == base.value * c
        assert scaled.actions == base.actions

    @given(
        prices=continuous_prices(min_len=3, max_len=10),
        c=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_general_scaling_of_value(self, prices, c):
        config = BatteryConfig(capacity_kwh=6.0, rate_kw=2.5, window_hours=1)
        base = hindsight_optimal(make_series(prices), config).value
        scaled = hindsight_optimal(make_series([p * c for p in prices]), config).value
        assert scaled == pytest.approx(base * c, rel=1e-9, abs=1e-9)


class TestSweepKernel:
    """The compiled sweep: one compile per grid, a bounded cache, a small peak."""

    def test_one_compile_per_grid(self):
        oracle._sweep_kernel.cache_clear()
        hindsight_optimal(make_series([1.0, 3.0, 2.0, 5.0]), BatteryConfig())
        hindsight_optimal(make_series([2.0, 1.0]), BatteryConfig(window_hours=3))
        info = oracle._sweep_kernel.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_the_cache_is_bounded(self):
        maxsize = oracle._sweep_kernel.cache_info().maxsize
        assert maxsize is not None and maxsize <= 16
        series = make_series([1.0, 3.0, 2.0])
        for levels in range(2, maxsize + 5):  # whole kWh at 1 kW: one grid each
            hindsight_optimal(series, BatteryConfig(float(levels - 1), 1.0, 1))
        assert oracle._sweep_kernel.cache_info().currsize == maxsize

    def test_first_call_peak_at_the_kernel_bound(self):
        config = BatteryConfig(KERNEL_MAX_LEVELS - 1.0, 1.0, 1)
        series = random_walk(0, 200)
        oracle._sweep_kernel.cache_clear()
        # measured 5.0 MiB, nearly all of it the compile; 29 KiB once compiled
        assert peak_bytes(lambda: hindsight_optimal(series, config)) <= 8 * MIB
        assert peak_bytes(lambda: hindsight_optimal(series, config)) <= MIB / 4

    def test_forced_comparisons_are_not_compiled(self):
        # the empty level's discharge and idle land on one level, and so do
        # the full level's charge and idle: one comparison each; the empty
        # level's value is its successor's alone. Three hours are compiled:
        # the odd one and the two of the loop body.
        levels, succ, _, _ = charge_grid(make_series([1.0, 2.0]), BatteryConfig())
        n = len(levels)
        assert n == 6 and levels[0] == 0.0
        sweep = oracle._sweep_kernel(tuple(levels), tuple(map(tuple, succ)))
        ops = [(i.opname, i.argrepr) for i in dis.get_instructions(sweep)]
        assert sum(op == "COMPARE_OP" for op, _ in ops) == 3 * (3 * (n - 2) + 2) == 42
        products = sum(op == "BINARY_MULTIPLY" or (op, arg) == ("BINARY_OP", "*") for op, arg in ops)
        assert products == 3 * (n - 1)  # BINARY_MULTIPLY before CPython 3.11

    def test_an_overflowing_delta_sum_takes_the_checked_numpy_sweep(self, powerwall):
        # every |Δp| is finite but their sum is not: the bound reads inf
        # without a warning, no kernel runs, and the numpy sweep raises at the
        # highest hour whose values overflow (hour 3: 13.5 * -1e308)
        series = make_series([0.0, 1e308, 0.0, 1e308, 0.0])
        oracle._sweep_kernel.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not finite") as info:
                hindsight_optimal(series, powerwall)
        assert info.value.position == 3
        cache = oracle._sweep_kernel.cache_info()
        assert cache.hits + cache.misses == 0


def _obs(latest: float) -> Observation:
    return Observation(np.array([latest]), 0.0)


class TestBaselinePolicies:
    def test_threshold_charges_below_low(self):
        assert threshold_policy(_obs(1.5), 2.0, 4.0) == Action.CHARGE

    def test_threshold_discharges_above_high(self):
        assert threshold_policy(_obs(5.0), 2.0, 4.0) == Action.DISCHARGE

    def test_threshold_idles_between(self):
        assert threshold_policy(_obs(3.0), 2.0, 4.0) == Action.IDLE

    # a NaN bound fails every comparison, which would read as IDLE
    @pytest.mark.parametrize("low, high", [(4.0, 2.0), (float("nan"), 2.0), (2.0, float("nan"))])
    def test_threshold_rejects_inverted_band(self, low, high):
        with pytest.raises(ValueError):
            threshold_policy(_obs(3.0), low, high)

    def test_idle_policy_always_idles(self):
        assert idle_policy() == Action.IDLE

    def test_idle_from_empty_earns_zero(self, powerwall):
        s = make_series([4.0, 9.0, 1.0, 6.0])
        actions = [idle_policy()] * 3
        assert episode_return(simulate(s, powerwall, actions)) == 0.0

    def test_idle_from_charge_telescopes(self, powerwall):
        s = make_series([4.0, 9.0, 1.0, 6.5])
        actions = [idle_policy()] * 3
        out = episode_return(simulate(s, powerwall, actions, initial_charge=10.0))
        assert out == pytest.approx(10.0 * (6.5 - 4.0), rel=1e-12)
