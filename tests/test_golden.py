"""Exact values of fixed-seed runs, so that a refactor cannot change behaviour unnoticed.

The tests that compare two runs of the same code cannot see a change that
moves both. These pin the values themselves, as numpy's bundled OpenBLAS
gives them. Its kernels round the matrix products differently, so the
SHA-256 digests of checkpoint bytes, where every parameter and moment bit
counts, are pinned per kernel: the one this CPU selects, and those that
``OPENBLAS_CORETYPE=Haswell`` and ``=Sandybridge`` force. On a kernel with no
digest recorded the test fails and names it. The curve values (exact
integers here) are the portable part of each pin.
"""

import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import DECISION_MARGIN, assert_decisive, greedy_tables, pinned_for_blas_core, random_walk, square_wave_series
from rtp_arb import (
    AdamState,
    BatteryConfig,
    Checkpoint,
    Hyperparams,
    ObservationNormalizer,
    PriceSeries,
    cross_test,
    forward_batch,
    greedy_rollout,
    hindsight_optimal,
    init_network,
    save_checkpoint,
    train_agent,
)
from rtp_arb.env import charge_grid


def checkpoint_sha256(ckpt: Checkpoint, tmp_path) -> str:
    path = tmp_path / "agent.ckpt"
    save_checkpoint(ckpt.net, ckpt.opt, ckpt.norm, ckpt.metadata, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def square_wave_run():
    return train_agent(
        square_wave_series(), BatteryConfig(), Hyperparams(), total_steps=20_000, eval_every=10_000, seed=0
    )


def test_square_wave_curve_at_seed_0(square_wave_run):
    curve, _ = square_wave_run
    assert curve.points == ((0, 0.0), (10_000, 7280.0), (20_000, 19642.0))


def test_square_wave_checkpoint_bytes_at_seed_0(square_wave_run, tmp_path):
    _, ckpt = square_wave_run
    assert checkpoint_sha256(ckpt, tmp_path) == pinned_for_blas_core({
        "SkylakeX": "ba6a95068331bc9f1012a8af1d98c913af5cdd40f171930ce77f874b03da00cb",
        "Haswell": "875340d0f425af189d6c16eb2a3fa1444fcfd4baa3d72a86072cd29129141e7c",
        "Sandybridge": "18ec4e42126ec6ba6b7d9cd46e11862df4e87f90b15f5b2d051c2a53d04776a7",
    })


def test_square_wave_greedy_decisions_are_clear_at_seed_0(square_wave_run):
    # every (hour, level) cell, not just the visited ones: a one-row forward
    # (the bits of forward, since the rows are its inputs bit for bit) and
    # the batched one must pick the same action with a margin to spare
    _, ckpt = square_wave_run
    _, x, q = greedy_tables(ckpt.net, ckpt.norm, square_wave_series(), BatteryConfig())
    for x_row, q_row in zip(x.reshape(-1, x.shape[-1]), q.reshape(-1, q.shape[-1])):
        assert_decisive(forward_batch(ckpt.net, x_row[None])[0], q_row)


def test_small_wave_run_curve_and_checkpoint_bytes(tmp_path):
    # six days of 1/5-cent half-days on a 4 kWh, 2 kW battery; the best
    # evaluation is at step 100, after 47 optimizer steps, so the pinned
    # bytes cover trained parameters and nonzero moments
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    prices = ([1.0] * 12 + [5.0] * 12) * 6
    series = PriceSeries(start, prices)
    hyper = Hyperparams(
        learning_rate=1e-3,
        batch_size=8,
        buffer_capacity=256,
        learning_starts=8,
        update_every=2,
        target_sync_every=10,
    )
    curve, ckpt = train_agent(
        series, BatteryConfig(4.0, 2.0, 4), hyper, total_steps=600, eval_every=100, seed=0
    )
    assert curve.points == (
        (0, 16.0), (100, 96.0), (200, 0.0), (300, 16.0), (400, 56.0), (500, 16.0), (600, 16.0)
    )
    assert ckpt.opt.step_count == 47
    assert checkpoint_sha256(ckpt, tmp_path) == pinned_for_blas_core({
        "SkylakeX": "e063a1d526090b8b40520902e96322f54ad9924a734a49034581ca349e7bce59",
        "Haswell": "3e6aac25b8bddc207f00ed220538eec2788e0cc8b405ce6e46e2a14f88bff16d",
        "Sandybridge": "fd1decb82b123a2d587d9c2a3fa47a48c689807d09d088f522c1e5b38d277663",
    })


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


@pytest.mark.parametrize(
    "seed, value, digest",
    [
        (9, -142.7306214291747, "6100231dd636487b32b8f562923ae08ecafa453dc9cb929cde4a02a30304407a"),
        (13, 863.0333462635699, "3cc8a6b09e3af42ed5faf23977f0ec195451c0e66bf087924a91020cb96dc641"),
    ],
)
def test_greedy_rollout_of_a_year(seed, value, digest):
    # a random-init net on a random-walk year of the default battery: 8,759
    # steps, so 273 blocks of 32 hours and a last one of 23
    config = BatteryConfig()
    prices = random_walk(seed, 8760)
    net = init_network(config.window_hours, seed)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    total, actions, charges = greedy_rollout(net, norm, prices, config)
    assert repr(total) == repr(value)
    assert hashlib.sha256(bytes(int(a) for a in actions)).hexdigest() == digest
    # every decision taken clears the margin, so the pin holds on any BLAS kernel
    levels, _, _, empty = charge_grid(prices, config)
    x = np.array(norm.price_windows(prices.prices, config.window_hours + 1)[1:])
    x[:, -1] = np.array([levels[empty], *charges[:-1]]) / norm.charge_scale
    q = np.sort(forward_batch(net, x), axis=1)
    assert np.all(q[:, -1] - q[:, -2] >= DECISION_MARGIN)


@pytest.mark.parametrize(
    "series, value, digest",
    [
        (
            square_wave_series(),
            19710.0,
            "d315c869708d31cd8b4ad851520aea501161005502d638809308f43eb889cdfd",
        ),
        (
            random_walk(0, 8760),
            22428.72942069336,
            "9b4576f4e00a498dfbbf9f1165b3931907165a676b796706045d5f7d39eb6045",
        ),
    ],
    ids=["square_wave", "random_walk_0"],
)
def test_oracle_plan_of_a_year(series, value, digest):
    # no BLAS in the sweep: these pins are portable
    plan = hindsight_optimal(series, BatteryConfig())
    assert plan.value == value
    pinned = repr((plan.value, [int(a) for a in plan.actions]))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest
