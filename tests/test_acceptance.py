"""Acceptance gate: one test per promised capability, run with ``pytest -v``.

Each test prints a single summary line (visible with ``-s`` or in failure
reports) and enforces its numeric bar plus a wall-clock budget. The real-data
criterion needs cached price files and skips, with instructions, when they
are absent.
"""

import math
import time
from datetime import timedelta

import numpy as np
import pytest

from conftest import make_series, square_wave_series

from rtp_arb import (
    Action,
    AdamState,
    BatteryConfig,
    FeedSamples,
    Hyperparams,
    ObservationNormalizer,
    ReplayBuffer,
    brute_force_optimal,
    cross_test,
    default_data_dir,
    fetch_five_minute_feed,
    forward_batch,
    hindsight_optimal,
    init_network,
    load_checkpoint,
    push_transition,
    read_price_csv,
    sample_batch,
    save_checkpoint,
    select_action,
    simulate,
    td_loss_and_grads,
    train_agent,
    write_price_csv,
    year_csv_path,
)
from rtp_arb.env import episode_return, step, reset
from rtp_arb.ingest import aggregate_hourly

REL_TOL = 1e-9
GRAD_TOL = 1e-4


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_agreement():
    """Backward-sweep optimum equals brute-force enumeration on 200 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 11))
        prices = rng.uniform(-5.0, 25.0, size=m)
        rate = float(rng.uniform(0.5, 8.0))
        ratio = float(rng.uniform(0.5, 20.0))
        config = BatteryConfig(rate * ratio, rate, int(rng.integers(1, 7)))
        series = make_series(prices)
        dp = hindsight_optimal(series, config).value
        bf = brute_force_optimal(series, config)
        worst = max(worst, rel_err(dp, bf))
    elapsed = time.perf_counter() - t0
    ok = worst <= REL_TOL and elapsed < 10.0
    report(1, "oracle agreement", ok, f"200 instances, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= REL_TOL
    assert elapsed < 10.0


def independent_return(prices, actions, config) -> float:
    """Recompute an episode return with plain floats and fsum, no env code."""
    w = 0.0
    terms = []
    for n, a in enumerate(actions):
        terms.append(w * (float(prices[n + 1]) - float(prices[n])))
        if a == Action.CHARGE:
            w = min(w + config.step_energy_kwh, config.capacity_kwh)
        elif a == Action.DISCHARGE:
            w = max(w - config.step_energy_kwh, 0.0)
    return math.fsum(terms)


def test_criterion_2_episode_accounting():
    """Env-accumulated returns match an independent recomputation, 1000 episodes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    lengths = [int(rng.integers(1, 61)) for _ in range(995)] + [8759] * 5
    for n_steps in lengths:
        prices = rng.uniform(0.0, 30.0, size=n_steps + 1)
        config = BatteryConfig(
            float(rng.uniform(1.0, 20.0)), float(rng.uniform(0.5, 6.0)), int(rng.integers(1, 9))
        )
        series = make_series(prices)
        actions = [Action(int(code)) for code in rng.integers(3, size=n_steps)]
        got = episode_return(simulate(series, config, actions))
        want = independent_return(prices, actions, config)
        worst = max(worst, rel_err(got, want))
    elapsed = time.perf_counter() - t0
    ok = worst <= REL_TOL and elapsed < 30.0
    report(2, "episode accounting", ok, f"1000 episodes, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= REL_TOL
    assert elapsed < 30.0


def test_criterion_3_gradient_check():
    """Analytic loss gradients match central differences on 20 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    h = 1e-6
    worst = 0.0
    for i in range(20):
        window = int(rng.integers(2, 5))
        net = init_network(window, seed=5000 + i, hidden_dims=(8, 6))
        # zero init biases can park a pre-activation exactly on the ReLU
        # kink, where no two-sided derivative exists; jitter off it
        for b in net.biases:
            b += rng.normal(scale=0.05, size=b.shape)
        x = rng.normal(size=(4, window + 1))
        action_idx = rng.integers(3, size=4)
        targets = rng.normal(scale=0.5, size=4)
        _, grads = td_loss_and_grads(net, x, action_idx, targets)

        numeric = [np.zeros_like(p) for p in net.parameters()]
        for param, num in zip(net.parameters(), numeric):
            flat_p = param.ravel()
            flat_n = num.ravel()
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + h
                up, _ = td_loss_and_grads(net, x, action_idx, targets)
                flat_p[j] = orig - h
                down, _ = td_loss_and_grads(net, x, action_idx, targets)
                flat_p[j] = orig
                flat_n[j] = (up - down) / (2.0 * h)

        a = np.concatenate([g.ravel() for g in grads])
        b = np.concatenate([g.ravel() for g in numeric])
        err = np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst < GRAD_TOL and elapsed < 30.0
    report(3, "gradient check", ok, f"20 instances, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < GRAD_TOL
    assert elapsed < 30.0


def test_criterion_4_learning_on_square_wave():
    """A 200k-step run on a square-wave year must approach the oracle."""
    t0 = time.perf_counter()
    series = square_wave_series()
    config = BatteryConfig()
    oracle = hindsight_optimal(series, config).value
    curve, _ = train_agent(
        series, config, Hyperparams(), total_steps=200_000, eval_every=10_000, seed=0
    )
    elapsed = time.perf_counter() - t0
    step0 = curve.returns[0]
    final = curve.returns[-1]
    ok = final >= 0.7 * oracle and final >= 10.0 * step0 and elapsed < 900.0
    report(
        4,
        "learning",
        ok,
        f"final {final:.1f}c vs oracle {oracle:.1f}c (needs {0.7 * oracle:.1f}c), "
        f"step-0 {step0:.1f}c, 21 evals, {elapsed:.0f}s",
    )
    assert len(curve.points) == 21
    assert final >= 0.7 * oracle
    assert final >= 10.0 * step0
    assert elapsed < 900.0


def test_criterion_5_real_data_trend():
    """Agents trained on cached real prices profit and transfer across years."""
    years = (2015, 2016, 2017, 2018, 2019)
    data_dir = default_data_dir()
    paths = {year: year_csv_path(data_dir, year) for year in years}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        print("criterion 5 (real-data trend): SKIP - no cached price data")
        pytest.skip(
            "cached price data not found (looked in "
            f"{data_dir}); run `rtp-arb fetch` with network access first"
        )

    config = BatteryConfig()
    series = {year: read_price_csv(paths[year]) for year in years}
    checkpoints = {}
    same_year = {}
    for year in years:
        _, ckpt = train_agent(
            series[year], config, Hyperparams(), total_steps=200_000, eval_every=10_000, seed=0
        )
        checkpoints[year] = ckpt
        same_year[year] = float(ckpt.metadata["greedy_return_cents"])

    matrix = cross_test(checkpoints, series)
    off_diag = [
        matrix.normalized[i, j]
        for i in range(len(years))
        for j in range(len(years))
        if i != j and np.isfinite(matrix.normalized[i, j])
    ]
    mean_norm = float(np.mean(off_diag))
    min_profit = min(same_year.values())
    ok = min_profit > 5000.0 and mean_norm >= 0.85 and not matrix.suppressed_years
    report(
        5,
        "real-data trend",
        ok,
        f"min same-year profit {min_profit:.0f}c (needs >5000c), "
        f"mean cross-year normalized {mean_norm:.3f} (needs >=0.85)",
    )
    assert min_profit > 5000.0
    assert not matrix.suppressed_years
    assert mean_norm >= 0.85


def test_criterion_6_invariance_suite(tmp_path):
    """Shift/scale invariance, tie-breaks, FIFO replay, checkpoint identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)
    passed = []

    # price shift leaves the optimal dispatch and its value untouched
    # (dyadic grid, so the comparison is exact)
    ok = True
    for _ in range(50):
        prices = rng.integers(-64, 256, size=int(rng.integers(3, 30))) / 64.0
        config = BatteryConfig(6.0, 1.5, 2)
        shift = float(rng.integers(-128, 128)) / 64.0
        base = hindsight_optimal(make_series(prices), config)
        moved = hindsight_optimal(make_series(prices + shift), config)
        ok = ok and moved.value == base.value and moved.actions == base.actions
    passed.append(("shift invariance", ok))

    # scaling prices by a power of two scales the value exactly and leaves
    # the plan alone
    ok = True
    for _ in range(50):
        prices = rng.integers(0, 256, size=int(rng.integers(3, 30))) / 64.0
        config = BatteryConfig(6.0, 1.5, 2)
        base = hindsight_optimal(make_series(prices), config)
        for k in (-2, 1, 3):
            scaled = hindsight_optimal(make_series(prices * 2.0**k), config)
            ok = ok and scaled.value == base.value * 2.0**k and scaled.actions == base.actions
    passed.append(("scaling invariance", ok))

    # exact ties resolve to the lowest action code, deterministically
    flat = hindsight_optimal(make_series(np.full(24, 3.0)), BatteryConfig())
    ok = flat.actions == (Action.CHARGE,) * 23 and flat.value == 0.0
    ok = ok and select_action(np.zeros(3), 0.0) == Action.CHARGE
    ok = ok and all(
        select_action(np.array([1.0, 1.0, 1.0]), 0.0) == Action.CHARGE for _ in range(100)
    )
    passed.append(("tie-break determinism", ok))

    # the replay ring keeps exactly the newest transitions
    windows = ObservationNormalizer(0.0, 1.0, 1.0).price_windows(np.array([1.0, 1.0]), 1)
    buf = ReplayBuffer(3, windows, 1.0)
    for r in range(1, 8):
        push_transition(buf, 0, 0.0, Action.IDLE, float(r), 0.0, False)
    ok = set(buf.rewards[: len(buf)]) == {5.0, 6.0, 7.0} and len(buf) == 3
    sample_rng = np.random.default_rng(0)
    for _ in range(20):
        batch = sample_batch(buf, 3, sample_rng)
        ok = ok and set(batch[2]) <= {5.0, 6.0, 7.0}
    passed.append(("replay FIFO", ok))

    # save/load reproduces the network bit for bit
    net = init_network(6, seed=77)
    opt = AdamState.for_network(net)
    norm = ObservationNormalizer(2.0, 1.5, 13.5)
    path = tmp_path / "roundtrip.ckpt"
    save_checkpoint(net, opt, norm, {"year": 2017}, path)
    loaded = load_checkpoint(path)
    x = rng.normal(size=(100, 7))
    ok = bool(np.array_equal(forward_batch(net, x), forward_batch(loaded.net, x)))
    ok = ok and loaded.norm == norm and loaded.metadata == {"year": 2017}
    passed.append(("checkpoint identity", ok))

    elapsed = time.perf_counter() - t0
    n_ok = sum(1 for _, good in passed if good)
    ok_all = n_ok == len(passed)
    detail = f"{n_ok}/{len(passed)} invariants hold, {elapsed:.1f}s"
    report(6, "invariance suite", ok_all, detail)
    for name, good in passed:
        assert good, f"invariant failed: {name}"


def test_criterion_7_ingestion_fixture(tmp_path):
    """Fixture-driven ingestion: exact means, flags, and CSV identity."""
    from datetime import datetime, timezone
    from pathlib import Path

    t0 = time.perf_counter()
    fixture_start = datetime(2018, 6, 1, tzinfo=timezone.utc)
    body = (Path(__file__).parent / "fixtures" / "feed_two_hours.json").read_text()
    samples = fetch_five_minute_feed(
        fixture_start, fixture_start + timedelta(hours=2), http_get=lambda url: body
    )
    series, rep = aggregate_hourly(samples)
    exact_means = list(series.prices) == [6.5, 2.0] and rep.hours_interpolated == ()

    path = tmp_path / "cache.csv"
    write_price_csv(series, path)
    round_trip = read_price_csv(path) == series

    # the second hour's samples again, 3 hours later and 2 cents dearer
    gap_samples = FeedSamples(
        np.concatenate([samples.micros, samples.micros[12:] + 3 * 3_600_000_000]),
        np.concatenate([samples.prices, samples.prices[12:] + 2.0]),
    )
    gap_series, gap_rep = aggregate_hourly(gap_samples)
    gap_hours = (fixture_start + timedelta(hours=2), fixture_start + timedelta(hours=3))
    interpolated = (
        gap_rep.hours_interpolated == gap_hours
        and gap_series.prices[2] == pytest.approx(8.0 / 3.0)
        and gap_series.prices[3] == pytest.approx(10.0 / 3.0)
    )

    elapsed = time.perf_counter() - t0
    ok = exact_means and round_trip and interpolated and elapsed < 5.0
    report(
        7,
        "ingestion fixture",
        ok,
        f"means exact {exact_means}, round trip {round_trip}, "
        f"interpolation flagged {interpolated}, {elapsed:.1f}s",
    )
    assert exact_means
    assert round_trip
    assert interpolated
    assert elapsed < 5.0
