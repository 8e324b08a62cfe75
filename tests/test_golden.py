"""Exact values of fixed-seed runs, so that a refactor cannot change behaviour unnoticed.

The tests that compare two runs of the same code cannot see a change that
moves both. These pin the values themselves. They are what the default
OpenBLAS build gives: another BLAS build may round the matrix products
differently and move them, in which case they must be re-recorded and the
change noted.
"""

from datetime import datetime, timezone

import numpy as np

from conftest import square_wave_series
from rtp_arb import (
    AdamState,
    BatteryConfig,
    Checkpoint,
    Hyperparams,
    ObservationNormalizer,
    PriceSeries,
    cross_test,
    init_network,
    train_agent,
)


def test_square_wave_curve_at_seed_0():
    curve, _ = train_agent(
        square_wave_series(), BatteryConfig(), Hyperparams(), total_steps=20_000, eval_every=10_000, seed=0
    )
    assert curve.points == ((0, 0.0), (10_000, 7280.0), (20_000, 19642.0))


def synthetic_year(year: int, hours: int = 400) -> PriceSeries:
    rng = np.random.default_rng(year)
    prices = np.round(4.0 + np.cumsum(rng.normal(0.0, 0.5, hours)), 3)
    return PriceSeries.from_prices(datetime(year, 1, 1, tzinfo=timezone.utc), prices)


def test_small_cross_test_raw_matrix():
    # three 400-hour years, each agent a fixed-seed initial network
    config = BatteryConfig()
    series = {y: synthetic_year(y) for y in (2019, 2020, 2021)}
    battery = {
        "capacity_kwh": config.capacity_kwh,
        "rate_kw": config.rate_kw,
        "window_hours": config.window_hours,
    }
    checkpoints = {}
    for year, s in series.items():
        net = init_network(config.window_hours, year)
        norm = ObservationNormalizer.from_series(s.prices, config.capacity_kwh)
        checkpoints[year] = Checkpoint(net, AdamState.for_network(net), norm, battery)
    matrix = cross_test(checkpoints, series)
    assert matrix.raw.tolist() == [
        [15.095000000000045, -94.42600000000004, 139.97599999999997],
        [81.812, 1.3215000000000083, 73.88049999999996],
        [21.97450000000001, -15.764999999999983, 138.20950000000002],
    ]
