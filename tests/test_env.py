"""Environment contract: transitions, rewards, windows, accounting."""

import math
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    START,
    action_codes,
    continuous_prices,
    dyadic,
    dyadic_configs,
    dyadic_prices,
    make_series,
)
from rtp_arb import (
    Action,
    BatteryConfig,
    ConfigError,
    EpisodeFinishedError,
    PriceSeries,
    ValidationError,
    apply_action,
    episode_return,
    reachable_charges,
    reset,
    reward,
    simulate,
    step,
)

HOUR = timedelta(hours=1)


class TestPriceSeries:
    def test_basic_construction(self):
        s = make_series([3.0, 1.0, 5.0])
        assert len(s) == 3
        assert s.hours[2] - s.hours[0] == 2 * HOUR
        assert s.prices.dtype == np.float64
        np.testing.assert_array_equal(s.prices, [3.0, 1.0, 5.0])

    def test_prices_are_read_only(self):
        s = make_series([3.0, 1.0, 5.0])
        with pytest.raises(ValueError):
            s.prices[0] = 9.0

    def test_rejects_naive_timestamps(self):
        with pytest.raises(ValidationError):
            PriceSeries.from_prices(datetime(2018, 1, 1), [1.0, 2.0])

    def test_rejects_non_utc_offset(self):
        offset = timezone(timedelta(hours=-6))
        with pytest.raises(ValidationError):
            PriceSeries.from_prices(datetime(2018, 1, 1, tzinfo=offset), [1.0, 2.0])

    def test_hours_are_derived_from_the_start(self):
        s = PriceSeries(START, [3.0, 1.0, 5.0])
        assert s.start is START
        assert s.hours == (START, START + HOUR, START + 2 * HOUR)
        assert PriceSeries.from_prices(START, [3.0, 1.0, 5.0]) == s
        assert s != PriceSeries(START + HOUR, [3.0, 1.0, 5.0])
        assert repr(s) == "PriceSeries(3 hours, 2018-01-01T00:00:00+00:00 .. 2018-01-01T02:00:00+00:00)"

    def test_rejects_a_start_between_seconds(self):
        # the cache keeps whole seconds, so such a series once read back with another start
        with pytest.raises(ValidationError, match="whole second"):
            PriceSeries(START + timedelta(microseconds=500_000), [1.0, 2.0])

    def test_a_zone_at_utc_plus_0_is_kept_as_utc(self):
        # London leaves UTC+0 at 01:00 UTC on 2021-03-28: hours stepped on its
        # clock once made hours[2] 02:00+01:00, the instant of hours[1]
        s = PriceSeries(datetime(2021, 3, 28, tzinfo=ZoneInfo("Europe/London")), [1.0, 2.0, 3.0])
        assert s.start.tzinfo is timezone.utc
        assert s.hours == tuple(datetime(2021, 3, 28, h, tzinfo=timezone.utc) for h in range(3))

    def test_rejects_hours_past_year_9999(self):
        last = datetime(9999, 12, 31, 23, tzinfo=timezone.utc)
        assert PriceSeries(last - HOUR, [1.0, 2.0]).hours[-1] == last
        with pytest.raises(ValidationError, match="past year 9999") as info:
            PriceSeries(last, [1.0, 2.0, 3.0])
        assert info.value.position == 2

    def test_rejects_short_series(self):
        with pytest.raises(ValidationError):
            make_series([4.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_series([1.0, float("nan"), 2.0])

    def test_index_of(self):
        s = make_series([1.0, 2.0, 3.0])
        assert s.index_of(START + 2 * HOUR) == 2
        with pytest.raises(ValidationError):
            s.index_of(START + 3 * HOUR)
        # an instant off the hour by under a second was once truncated onto it
        for off in (timedelta(minutes=30), timedelta(seconds=-0.5), timedelta(seconds=0.5), HOUR + timedelta(microseconds=1)):
            with pytest.raises(ValidationError):
                s.index_of(START + off)


class TestBatteryConfig:
    def test_defaults_are_the_home_unit(self):
        cfg = BatteryConfig()
        assert (cfg.capacity_kwh, cfg.rate_kw, cfg.window_hours) == (13.5, 5.0, 48)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_kwh": 0.0},
            {"capacity_kwh": -1.0},
            {"rate_kw": 0.0},
            {"window_hours": 0},
            {"capacity_kwh": float("inf")},
            {"window_hours": 2.5},  # a count: numpy would raise a bare TypeError later
            {"window_hours": 24.0},
            {"window_hours": True},  # a bool is an Integral, and True would read as 1
            {"window_hours": False},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            BatteryConfig(**kwargs)

    def test_accepts_numpy_integer_window(self):
        assert BatteryConfig(window_hours=np.int64(6)).window_hours == 6


class TestApplyAction:
    def test_charge_clamps_at_capacity(self, powerwall):
        assert apply_action(11.0, Action.CHARGE, powerwall) == 13.5

    def test_discharge_clamps_at_zero(self, powerwall):
        assert apply_action(3.5, Action.DISCHARGE, powerwall) == 0.0

    def test_idle_is_identity(self, powerwall):
        assert apply_action(5.0, Action.IDLE, powerwall) == 5.0

    def test_unclamped_moves(self, powerwall):
        assert apply_action(0.0, Action.CHARGE, powerwall) == 5.0
        assert apply_action(13.5, Action.DISCHARGE, powerwall) == 8.5

    def test_rejects_out_of_range_charge(self, powerwall):
        with pytest.raises(ValueError):
            apply_action(-0.1, Action.CHARGE, powerwall)
        with pytest.raises(ValueError):
            apply_action(13.6, Action.IDLE, powerwall)

    @given(config=dyadic_configs(), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_bounds_hold_exactly(self, config, frac):
        w = frac * config.capacity_kwh
        for action in Action:
            out = apply_action(w, action, config)
            assert 0.0 <= out <= config.capacity_kwh

    @given(config=dyadic_configs(), k=st.integers(min_value=0, max_value=64 * 20))
    def test_round_trip_is_exact_on_grid(self, config, k):
        # charge-then-discharge must return the exact bits when neither
        # clamp engages; guaranteed on the dyadic grid
        w = k / 64
        if w > config.capacity_kwh or w + config.rate_kw > config.capacity_kwh:
            return
        up = apply_action(w, Action.CHARGE, config)
        assert apply_action(up, Action.DISCHARGE, config) == w

    @given(config=dyadic_configs(), k=st.integers(min_value=0, max_value=64 * 20))
    def test_idle_fixpoint(self, config, k):
        w = k / 64
        if w > config.capacity_kwh:
            return
        assert apply_action(w, Action.IDLE, config) == w


class TestReward:
    def test_direct_formula(self):
        assert reward(10.0, 3.0, 4.2) == pytest.approx(12.0, rel=1e-12)

    def test_empty_battery_earns_nothing(self):
        assert reward(0.0, 2.0, 99.0) == 0.0

    def test_flat_price_earns_nothing(self):
        assert reward(13.5, 5.0, 5.0) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reward(float("nan"), 1.0, 2.0)
        with pytest.raises(ValueError):
            reward(1.0, float("inf"), 2.0)


class TestReset:
    def test_window_padded_with_first_price(self):
        s = make_series([2.1, 3.0, 4.0])
        _, obs = reset(s, BatteryConfig(window_hours=3))
        np.testing.assert_array_equal(obs.recent_prices, [2.1, 2.1, 2.1])
        assert obs.charge_kwh == 0.0

    def test_window_of_one_needs_no_padding(self):
        s = make_series([2.1, 3.0])
        _, obs = reset(s, BatteryConfig(window_hours=1))
        np.testing.assert_array_equal(obs.recent_prices, [2.1])

    def test_initial_charge_appears_in_observation(self, powerwall):
        s = make_series([2.0, 3.0])
        state, obs = reset(s, powerwall, initial_charge=13.5)
        assert state.charge_kwh == 13.5
        assert obs.charge_kwh == 13.5

    def test_rejects_charge_outside_battery(self, powerwall):
        s = make_series([2.0, 3.0])
        with pytest.raises(ValueError):
            reset(s, powerwall, initial_charge=14.0)

    def test_observation_vector_layout(self):
        s = make_series([2.0, 3.0])
        _, obs = reset(s, BatteryConfig(window_hours=2), initial_charge=1.0)
        np.testing.assert_array_equal(obs.vector(), [2.0, 2.0, 1.0])


class TestStep:
    def test_worked_episode(self):
        # series [3, 1, 5] with a 1 kWh / 1 kW battery: charging at hour 0
        # pays nothing (empty when the hour began) and the held unit then
        # rides the 1 -> 5 move for the episode optimum of 4
        s = make_series([3.0, 1.0, 5.0])
        cfg = BatteryConfig(capacity_kwh=1.0, rate_kw=1.0, window_hours=1)
        state, obs = reset(s, cfg)

        state, obs, r, done = step(state, Action.CHARGE, s, cfg)
        assert (state.charge_kwh, r, done) == (1.0, 0.0, False)
        np.testing.assert_array_equal(obs.recent_prices, [1.0])

        state, obs, r, done = step(state, Action.IDLE, s, cfg)
        assert (state.charge_kwh, r, done) == (1.0, 4.0, True)

    def test_charging_when_full_is_a_no_op(self, powerwall):
        s = make_series([3.0, 1.0, 5.0])
        state, _ = reset(s, powerwall, initial_charge=13.5)
        state, _, r, _ = step(state, Action.CHARGE, s, powerwall)
        assert state.charge_kwh == 13.5
        assert r == 13.5 * (1.0 - 3.0)

    def test_stepping_finished_episode_raises(self, powerwall):
        s = make_series([3.0, 1.0])
        state, _ = reset(s, powerwall)
        state, _, _, done = step(state, Action.IDLE, s, powerwall)
        assert done
        with pytest.raises(EpisodeFinishedError):
            step(state, Action.IDLE, s, powerwall)

    def test_done_only_at_final_step(self, powerwall):
        s = make_series([1.0, 2.0, 3.0, 4.0])
        state, _ = reset(s, powerwall)
        flags = []
        for _ in range(3):
            state, _, _, done = step(state, Action.IDLE, s, powerwall)
            flags.append(done)
        assert flags == [False, False, True]

    def test_window_slides_over_series(self):
        arr = [1.0, 2.0, 3.0, 4.0, 5.0]
        s = make_series(arr)
        cfg = BatteryConfig(window_hours=3)
        state, obs = reset(s, cfg)
        seen = [obs.recent_prices]
        done = False
        while not done:
            state, obs, _, done = step(state, Action.IDLE, s, cfg)
            seen.append(obs.recent_prices)
        np.testing.assert_array_equal(seen[0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(seen[1], [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(seen[2], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(seen[3], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(seen[4], [3.0, 4.0, 5.0])

    @given(prices=dyadic_prices(min_len=2, max_len=30), data=st.data())
    @settings(max_examples=60)
    def test_window_always_has_l_prices(self, prices, data):
        window = data.draw(st.integers(min_value=1, max_value=8))
        s = make_series(prices)
        cfg = BatteryConfig(window_hours=window)
        state, obs = reset(s, cfg)
        assert obs.recent_prices.shape == (window,)
        done = False
        while not done:
            state, obs, _, done = step(state, Action.IDLE, s, cfg)
            assert obs.recent_prices.shape == (window,)


class TestReachableCharges:
    def test_home_unit_closure(self, powerwall):
        assert reachable_charges(powerwall) == {0.0, 3.5, 5.0, 8.5, 10.0, 13.5}

    def test_capacity_multiple_of_rate(self):
        cfg = BatteryConfig(capacity_kwh=10.0, rate_kw=5.0, window_hours=1)
        assert reachable_charges(cfg) == {0.0, 5.0, 10.0}

    def test_one_charge_saturates(self):
        cfg = BatteryConfig(capacity_kwh=2.0, rate_kw=5.0, window_hours=1)
        assert reachable_charges(cfg) == {0.0, 2.0}

    @given(config=dyadic_configs())
    @settings(max_examples=80)
    def test_closure_contains_endpoints_and_is_closed(self, config):
        states = reachable_charges(config)
        assert 0.0 in states
        assert config.capacity_kwh in states
        for w in states:
            for action in (Action.CHARGE, Action.DISCHARGE):
                assert apply_action(w, action, config) in states

    @given(config=dyadic_configs())
    @settings(max_examples=80)
    def test_size_bound_on_grid(self, config):
        bound = 2 * math.ceil(config.capacity_kwh / config.rate_kw) + 2
        assert len(reachable_charges(config)) <= bound


class TestEpisodeAccounting:
    def test_all_idle_from_empty_is_zero(self, powerwall):
        s = make_series([5.0, 1.0, 9.0, 2.0])
        assert episode_return(simulate(s, powerwall, [Action.IDLE] * 3)) == 0.0

    def test_constant_charge_telescopes(self, powerwall):
        s = make_series([5.0, 1.0, 9.0, 2.5])
        out = episode_return(simulate(s, powerwall, [Action.IDLE] * 3, initial_charge=8.5))
        assert out == pytest.approx(8.5 * (2.5 - 5.0), rel=1e-12)

    def test_simulate_rejects_too_many_actions(self, powerwall):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            simulate(s, powerwall, [Action.IDLE, Action.IDLE])

    @given(prices=continuous_prices(min_len=2, max_len=50), data=st.data())
    @settings(max_examples=100)
    def test_accounting_identity(self, prices, data):
        # independent oracle: recompute the charge path with bare min/max and
        # total the mark-to-market sum with fsum, then compare to the env
        config = BatteryConfig(capacity_kwh=11.25, rate_kw=3.5, window_hours=3)
        codes = data.draw(action_codes(len(prices) - 1))
        s = make_series(prices)
        transitions = simulate(s, config, [Action(c) for c in codes])

        w = 0.0
        expected_terms = []
        for n, code in enumerate(codes):
            expected_terms.append(w * (prices[n + 1] - prices[n]))
            if code == 0:
                w = min(w + 3.5, 11.25)
            elif code == 1:
                w = max(w - 3.5, 0.0)
        expected = math.fsum(expected_terms)
        got = episode_return(transitions)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(prices=dyadic_prices(min_len=2, max_len=30), shift=dyadic(-8.0, 8.0), data=st.data())
    @settings(max_examples=100)
    def test_price_shift_leaves_rewards_unchanged(self, prices, shift, data):
        # grid values keep the shifted differences bit-identical
        codes = data.draw(action_codes(len(prices) - 1))
        actions = [Action(c) for c in codes]
        config = BatteryConfig(capacity_kwh=4.0, rate_kw=1.5, window_hours=2)
        base = simulate(make_series(prices), config, actions)
        shifted = simulate(make_series([p + shift for p in prices]), config, actions)
        assert [t.reward for t in base] == [t.reward for t in shifted]

    @given(prices=continuous_prices(min_len=2, max_len=20), data=st.data())
    @settings(max_examples=60)
    def test_determinism(self, prices, data):
        codes = data.draw(action_codes(len(prices) - 1))
        actions = [Action(c) for c in codes]
        config = BatteryConfig(capacity_kwh=7.0, rate_kw=2.0, window_hours=4)
        a = simulate(make_series(prices), config, actions)
        b = simulate(make_series(prices), config, actions)
        assert [t.reward for t in a] == [t.reward for t in b]
        assert [t.next_obs.charge_kwh for t in a] == [t.next_obs.charge_kwh for t in b]
