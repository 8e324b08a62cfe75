"""Greedy evaluation on the (hour, charge-level) grid against the stepwise specification.

``greedy_rollout`` never steps the environment: it fills a table of greedy
actions from batched forwards over every (hour, charge level) and walks it.
The reference below is the plain loop it replaced (reset, then step with the
single-observation ``forward`` and ``select_action``); the two must agree
exactly, return and every action and charge. The Q-values behind those
actions agree to a few ulps, not bit for bit: a row inside a batched matmul
rounds differently from the same row alone, and the blocks split the first
layer between an hour's window and its charge level. So every decision the
reference takes is also checked to be far from a tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIGS,
    assert_decisive,
    continuous_configs,
    continuous_prices,
    full_rows,
    greedy_blocks,
    greedy_tables,
    make_series,
    random_walk,
)
from rtp_arb import (
    BatteryConfig,
    ObservationNormalizer,
    QNetwork,
    forward,
    forward_batch,
    greedy_rollout,
    init_network,
    reachable_charges,
    reset,
    select_action,
    step,
)
from rtp_arb.env import _observation, charge_grid
from rtp_arb.experiment import GREEDY_BLOCK_ROWS


def stepwise_greedy_rollout(net, norm, prices, config):
    """The specification: one environment step per hour, greedy on one forward each."""
    state, obs = reset(prices, config)
    total = 0.0
    actions = []
    charges = []
    done = False
    while not done:
        a = select_action(forward(net, obs, norm), 0.0)
        state, obs, r, done = step(state, a, prices, config)
        total += r
        actions.append(a)
        charges.append(state.charge_kwh)
    return total, actions, charges


def block_hours(config):
    """Hours per greedy block on ``config``'s grid: as many as fit in the rows, at least one."""
    return max(GREEDY_BLOCK_ROWS // len(reachable_charges(config)), 1)


#: 32: the default battery's 6 levels fill 192 rows
BLOCK_HOURS = block_hours(BatteryConfig())

#: 250 levels: more than one block's rows, so every block is one hour
WIDE = BatteryConfig(capacity_kwh=249.0, rate_kw=1.0, window_hours=3)

# M = 2; shorter than most windows; within one block; one step past a block;
# many blocks and a partial one (block bounds of the default battery)
LENGTHS = [2, 5, BLOCK_HOURS, BLOCK_HOURS + 2, 10 * BLOCK_HOURS + 17]

# those lengths on every battery; exactly one block and one step past a block
# of each other battery; at 250 levels, blocks of one hour, so also many blocks
STEPWISE_CASES = (
    [(h, c) for c in CONFIGS for h in LENGTHS]
    + [(block_hours(c) + k, c) for c in (*CONFIGS[1:], WIDE) for k in (1, 2)]
    + [(9, WIDE)]
)


@pytest.mark.parametrize(
    "hours, config",
    STEPWISE_CASES,
    ids=[f"{h}-{c.capacity_kwh}-{c.rate_kw}-{c.window_hours}" for h, c in STEPWISE_CASES],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_stepwise_rollout(config, hours, seed):
    prices = random_walk(seed + 100 * hours, hours)
    hidden = (64, 64) if seed == 0 else (8,)
    net = init_network(config.window_hours, seed, hidden_dims=hidden)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    got, _, q_batch = greedy_tables(net, norm, prices, config)
    want = stepwise_greedy_rollout(net, norm, prices, config)
    assert got == want
    total, actions, charges = got
    assert len(actions) == len(charges) == hours - 1
    # the actions agree because no decision is near a tie, not by luck
    levels, succ, _, i = charge_grid(prices, config)
    for n, a in enumerate(actions):
        assert_decisive(forward(net, _observation(prices, config, n, levels[i]), norm), q_batch[n, i])
        i = succ[i][a]


#: hidden widths the blocks are checked on: none (the first layer is the
#: output), one, two and three hidden layers, and the default network
HIDDEN = [(), (8,), (16, 8), (8, 16, 4), (64, 64)]

# M = 2 and 5; exactly one block of the default battery; an odd-length last
# block; a year (its last block overlaps the one before by 9 hours) and a
# leap year; exactly one block and one step past a block of each other
# battery; blocks of one hour
BLOCK_CASES = (
    [(h, c) for h in (2, 5, BLOCK_HOURS + 1, 3 * BLOCK_HOURS + 8) for c in CONFIGS]
    + [(h, CONFIGS[0]) for h in (8760, 8784)]
    + [(block_hours(c) + k, c) for c in CONFIGS[1:] for k in (1, 2)]
    + [(h, WIDE) for h in (2, 7)]
)


@pytest.mark.parametrize("hidden", HIDDEN, ids=lambda h: "hidden-" + "-".join(map(str, h)))
@pytest.mark.parametrize(
    "hours, config",
    BLOCK_CASES,
    ids=[f"{h}-{c.capacity_kwh}-{c.rate_kw}-{c.window_hours}" for h, c in BLOCK_CASES],
)
def test_block_q_values_agree_with_forward_batch(hours, config, hidden):
    # the workspace reuses its buffers from block to block; every block it
    # runs must read the pair rows bit for bit and give the Q-values of
    # forward_batch on the full rows, up to the split first layer's rounding
    prices = random_walk(hours, hours)
    net = init_network(config.window_hours, hours, hidden_dims=hidden)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    n_levels = len(reachable_charges(config))
    _, blocks = greedy_blocks(net, norm, prices, config)
    hours_per_block = min(block_hours(config), hours - 1)
    assert len(blocks) == -(-(hours - 1) // hours_per_block)
    assert hours_per_block * n_levels <= max(GREEDY_BLOCK_ROWS, n_levels)
    for start, windows, q in blocks:
        assert len(windows) == hours_per_block
        assert windows.tobytes() == pairs[start + 1 : start + 1 + len(windows), :-1].tobytes()
        x = full_rows(windows, norm, prices, config)
        want = forward_batch(net, x.reshape(-1, x.shape[-1])).reshape(q.shape)
        assert np.all(np.abs(q - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(
    config=st.integers(min_value=1, max_value=6).flatmap(continuous_configs),
    prices=continuous_prices(min_len=2, max_len=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_matches_stepwise_rollout_on_arbitrary_input(config, prices, seed):
    series = make_series(prices)
    net = init_network(config.window_hours, seed, hidden_dims=(16, 8))
    norm = ObservationNormalizer.from_series(series.prices, config.capacity_kwh)
    assert greedy_rollout(net, norm, series, config) == stepwise_greedy_rollout(
        net, norm, series, config
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"window-{c.window_hours}")
@pytest.mark.parametrize("hours", [2, 5, 60])
def test_window_rows_equal_observations(config, hours):
    # each row is the observation's window normalized as apply does it, bit for bit
    prices = random_walk(hours, hours)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    windows = norm.price_windows(prices.prices, config.window_hours)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    assert windows.shape == (hours, config.window_hours)
    assert pairs.shape == (hours, config.window_hours + 1)
    assert not windows.flags.writeable and not pairs.flags.writeable
    want = [norm.apply(_observation(prices, config, n, 0.0).vector())[:-1] for n in range(hours)]
    for n in range(hours):
        assert windows[n].tobytes() == want[n].tobytes()
    # the pair rows the network reads: hour n's window, then hour n + 1's price
    for n in range(hours - 1):
        assert pairs[n + 1][:-1].tobytes() == want[n].tobytes()
        assert pairs[n + 1][-1].tobytes() == want[n + 1][-1].tobytes()


def test_rejects_network_without_one_output_per_action():
    config = CONFIGS[3]
    net = QNetwork(
        [np.zeros((config.window_hours + 1, 4)), np.zeros((4, 4))], [np.zeros(4), np.zeros(4)]
    )
    prices = random_walk(0, 10)
    with pytest.raises(ValueError, match="4 outputs"):
        greedy_rollout(net, ObservationNormalizer(0.0, 1.0, 1.0), prices, config)
