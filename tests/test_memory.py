"""Peak memory of the oracle and of greedy evaluation at the grid's bound.

A 4,999.5 kWh battery at 1 kW has exactly ``MAX_CHARGE_LEVELS`` (10,000)
charge levels, the most a config accepts. ``hindsight_optimal`` keeps one
action byte per (hour, level) cell plus O(levels) of grid and value rows;
``greedy_rollout`` keeps a workspace of one block, as many whole hours as
fit in ``GREEDY_BLOCK_ROWS`` rows but at least one, whatever the series
length. Peaks are taken with ``tracemalloc``, which sees numpy's buffers
too, on series short enough to keep the tests to a few seconds.
"""

import tracemalloc

from conftest import random_walk
from rtp_arb import BatteryConfig, ObservationNormalizer, greedy_rollout, hindsight_optimal, init_network
from rtp_arb.env import MAX_CHARGE_LEVELS

MIB = 2**20


def grid_bound(window_hours: int) -> BatteryConfig:
    return BatteryConfig(capacity_kwh=4999.5, rate_kw=1.0, window_hours=window_hours)


def peak_bytes(fn) -> int:
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_oracle_keeps_one_byte_per_cell():
    # the fixed part (grid, successor lists, two value rows) hides the table
    # on a short series, so the table is the growth between two lengths
    config = grid_bound(1)
    short, long = random_walk(0, 3), random_walk(1, 43)
    fixed = peak_bytes(lambda: hindsight_optimal(short, config))
    grown = peak_bytes(lambda: hindsight_optimal(long, config))
    cells = (len(long) - len(short)) * MAX_CHARGE_LEVELS
    assert fixed <= 512 * MAX_CHARGE_LEVELS  # about 300 bytes a level
    assert grown - fixed <= 1.5 * cells  # a value table would take 8 bytes a cell


def test_greedy_rollout_keeps_one_hour_of_rows():
    # 10,000 levels fill more than a block's rows, so a block is one hour: a
    # workspace of about 3 KB a row at the default network, 5 blocks here
    config = grid_bound(48)
    prices = random_walk(2, 6)
    net = init_network(config.window_hours, 0)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    assert peak_bytes(lambda: greedy_rollout(net, norm, prices, config)) <= 40 * MIB
