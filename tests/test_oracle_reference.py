"""The oracle's plain-float sweep against the numpy sweep it replaced.

``hindsight_optimal`` now walks :func:`rtp_arb.env.charge_grid` in Python
floats: per cell one product and one sum, the best successor found by
comparisons, the plan read off with strict comparisons. The vectorized sweep
below is the reference: on drawn series and batteries both must give the
same tie-broken plan and the same value bit for bit, including 2-level grids
(rate at or above capacity), constant runs and other exact ties, and whole
random-walk years. Prices large enough to overflow must raise exactly where
the reference table stops being finite, at its highest such hour, whether
or not the oracle's bound on its values lets it skip the per-row check.
"""

import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIGS,
    continuous_configs,
    continuous_prices,
    dyadic,
    dyadic_configs,
    dyadic_prices,
    make_series,
    random_walk,
)
from rtp_arb import (
    Action,
    BatteryConfig,
    ValidationError,
    apply_action,
    hindsight_optimal,
    reachable_charges,
)
from rtp_arb.oracle import FINITE_BOUND


def reference_charge_grid(config):
    levels = sorted(reachable_charges(config))
    index = {w: i for i, w in enumerate(levels)}
    table = np.empty((len(levels), len(Action)), dtype=np.intp)
    for i, w in enumerate(levels):
        for a in Action:
            table[i, a] = index[apply_action(w, a, config)]
    return levels, table


def reference_values(prices, config):
    states, succ = reference_charge_grid(config)
    charges = np.array(states, dtype=np.float64)
    deltas = np.diff(prices.prices)  # p_{n+1} - p_n for each step n
    n_steps = deltas.shape[0]

    # values[n, i]: best total reward from hour n onward when holding states[i].
    values = np.zeros((n_steps + 1, len(states)), dtype=np.float64)
    for n in range(n_steps - 1, -1, -1):
        values[n] = charges * deltas[n] + values[n + 1][succ].max(axis=1)
    return states, succ, values


def reference_hindsight_optimal(prices, config):
    states, succ, values = reference_values(prices, config)
    n_steps = values.shape[0] - 1
    start = states.index(0.0)
    actions = []
    i = start
    for n in range(n_steps):
        branch = values[n + 1][succ[i]]
        a = int(np.argmax(branch))  # first max = lowest action code
        actions.append(Action(a))
        i = succ[i, a]
    return tuple(actions), float(values[0, start])


def assert_matches_reference(prices, config):
    series = make_series(prices)
    want_actions, want_value = reference_hindsight_optimal(series, config)
    plan = hindsight_optimal(series, config)
    assert type(plan.value) is float
    assert struct.pack("<d", plan.value) == struct.pack("<d", want_value)
    assert all(type(a) is Action for a in plan.actions)
    assert plan.actions == want_actions


@settings(max_examples=150, deadline=None)
@given(prices=continuous_prices(min_len=2, max_len=80), config=continuous_configs())
def test_continuous_series_match_reference(prices, config):
    assert_matches_reference(prices, config)


@settings(max_examples=150, deadline=None)
@given(prices=dyadic_prices(min_len=2, max_len=80), config=dyadic_configs())
@example(prices=[1.0, 1.0], config=BatteryConfig(1.0, 1.0, 1))
@example(prices=[2.0, 1.0, 2.0, 1.0, 2.0], config=BatteryConfig(4.0, 2.0, 1))
def test_dyadic_series_match_reference(prices, config):
    assert_matches_reference(prices, config)


@settings(max_examples=100, deadline=None)
@given(
    prices=dyadic_prices(min_len=2, max_len=60),
    capacity=dyadic(0.5, 20.0),
    extra=dyadic(0.0, 10.0),
)
def test_two_level_grids_match_reference(prices, capacity, extra):
    # rate >= capacity: every move lands on empty or full
    config = BatteryConfig(capacity_kwh=capacity, rate_kw=capacity + extra, window_hours=1)
    assert len(reachable_charges(config)) == 2
    assert_matches_reference(prices, config)


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from([-2.0, 0.0, 1.0, 1.5, 3.0]), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    ),
    config=st.one_of(dyadic_configs(), continuous_configs(), st.sampled_from(CONFIGS)),
)
@example(runs=[(1.0, 20)], config=BatteryConfig())
@example(runs=[(1.0, 3), (3.0, 3), (1.0, 3), (3.0, 3)], config=BatteryConfig(4.0, 2.0, 1))
def test_constant_runs_and_ties_match_reference(runs, config):
    # few distinct prices in runs: many zero deltas and equal successor values
    prices = [p for p, k in runs for _ in range(k)] + [runs[-1][0]]
    assert_matches_reference(prices, config)


@pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
def test_random_walk_years_match_reference(config):
    assert_matches_reference(random_walk(0, 8760).prices, config)


#: prices of a few units scaled by 2**970 to 2**1020: the oracle's bound
#: max(levels) * sum(|Δp|) falls on both sides of FINITE_BOUND, and the
#: values overflow near the top
SCALED_PRICES = st.builds(
    lambda units, e: [u * 2.0**e for u in units],
    st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=12),
    st.integers(970, 1020),
)


def oracle_bound(prices, config):
    with np.errstate(over="ignore"):
        return max(reachable_charges(config)) * float(np.abs(np.diff(prices)).sum())


@settings(max_examples=150, deadline=None)
@given(
    prices=st.one_of(
        st.lists(
            st.one_of(
                st.floats(min_value=-1.7e308, max_value=1.7e308),
                st.sampled_from([1e308, -1e308, 0.0, 1.0]),
            ),
            min_size=2,
            max_size=12,
        ),
        SCALED_PRICES,
    ),
    config=st.sampled_from(CONFIGS),
)
# the bound just inside FINITE_BOUND (no row checked); just past it with every
# value finite (each row checked); finite steps whose values overflow at hour 3
@example(prices=[0.0, 2.0**995], config=CONFIGS[0])
@example(prices=[0.0, 2.0**1000, 0.0], config=CONFIGS[0])
@example(prices=[0.0, 1e308, 1e308, 0.0, 1e308], config=CONFIGS[0])
def test_raises_exactly_where_the_reference_table_is_not_finite(prices, config):
    series = make_series(prices)
    with np.errstate(all="ignore"):
        _, _, values = reference_values(series, config)
    finite = np.isfinite(values).all(axis=1)
    checked = oracle_bound(prices, config) > FINITE_BOUND
    event(f"{'rows checked' if checked else 'no row checked'}, {'finite' if finite.all() else 'raises'}")
    if finite.all():
        assert_matches_reference(prices, config)
    else:
        assert checked
        with pytest.raises(ValidationError, match="not finite") as info:
            hindsight_optimal(series, config)
        assert info.value.position == np.flatnonzero(~finite)[-1]  # the highest such hour
