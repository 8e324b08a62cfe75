"""Training curves, best-checkpoint selection, cross-year tests, outputs."""

import errno
import os
import time
import xml.etree.ElementTree as ET
from datetime import date, datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from rtp_arb import (
    Action,
    AdamState,
    BatteryConfig,
    Checkpoint,
    ConfigError,
    CrossTestMatrix,
    DailyPolicyTrace,
    Hyperparams,
    ObservationNormalizer,
    PriceSeries,
    QNetwork,
    RtpArbError,
    TrainingCurve,
    TrainingDivergedError,
    ValidationError,
    checkpoint_config,
    cross_test,
    daily_policy_trace,
    emit_outputs,
    episode_return,
    epsilon_at,
    evaluate_greedy,
    experiment,
    forward_batch,
    greedy_rollout,
    hindsight_optimal,
    init_network,
    load_checkpoint,
    save_checkpoint,
    simulate,
    train_agent,
)
from rtp_arb.experiment import (
    DEFAULT_EVAL_EVERY,
    DEFAULT_TOTAL_STEPS,
    read_cross_test_csv,
    read_daily_policy_csv,
    read_training_curves_csv,
    write_cross_test_csv,
    write_daily_policy_csv,
    write_training_curves_csv,
)

UTC = timezone.utc

SMALL_CONFIG = BatteryConfig(capacity_kwh=4.0, rate_kw=2.0, window_hours=4)
FAST_HYPER = Hyperparams(
    learning_rate=1e-3,
    batch_size=8,
    buffer_capacity=256,
    learning_starts=8,
    update_every=2,
    target_sync_every=10,
)


def series_for_year(year: int, prices) -> PriceSeries:
    return PriceSeries(datetime(year, 1, 1, tzinfo=UTC), prices)


def wave_series(year: int = 2021, days: int = 6) -> PriceSeries:
    prices = ([1.0] * 12 + [5.0] * 12) * days
    return series_for_year(year, prices)


def constant_policy_checkpoint(year: int, action: Action, config: BatteryConfig) -> Checkpoint:
    """A degenerate agent whose Q-values always prefer one action."""
    bias = np.zeros(3)
    bias[int(action)] = 1.0
    net = QNetwork([np.zeros((config.window_hours + 1, 3))], [bias])
    metadata = {
        "year": year,
        "step": 0,
        "greedy_return_cents": 0.0,
        "capacity_kwh": config.capacity_kwh,
        "rate_kw": config.rate_kw,
        "window_hours": config.window_hours,
    }
    return Checkpoint(net, AdamState.for_network(net), ObservationNormalizer(0.0, 1.0, 1.0), metadata)


class TestTrainingCurve:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TrainingCurve(2021, ())

    def test_rejects_missing_step_zero(self):
        with pytest.raises(ValidationError, match="step 0"):
            TrainingCurve(2021, ((100, 1.0),))

    def test_rejects_non_increasing_steps(self):
        with pytest.raises(ValidationError, match="increase"):
            TrainingCurve(2021, ((0, 1.0), (50, 2.0), (50, 3.0)))

    @pytest.mark.parametrize(
        "points, position",
        [(((100, 1.0),), 0), (((0, 1.0), (50, 2.0), (50, 3.0)), 2), (((0, 1.0), (50, 2.0), (40, 3.0)), 2)],
    )
    def test_order_errors_carry_the_point_position(self, points, position):
        with pytest.raises(ValidationError) as info:
            TrainingCurve(2021, points)
        assert info.value.position == position

    def test_best_takes_earliest_maximum(self):
        curve = TrainingCurve(2021, ((0, 1.0), (10, 5.0), (20, 5.0), (30, 2.0)))
        assert curve.best() == (10, 5.0)

    def test_accessors(self):
        curve = TrainingCurve(2021, ((0, 1.0), (10, 5.0)))
        assert curve.steps == (0, 10)
        assert curve.returns == (1.0, 5.0)

    def test_default_cadence_gives_21_points(self):
        assert DEFAULT_TOTAL_STEPS // DEFAULT_EVAL_EVERY + 1 == 21


class TestTrainAgent:
    def test_point_count_matches_cadence(self):
        curve, _ = train_agent(
            wave_series(), SMALL_CONFIG, FAST_HYPER, total_steps=120, eval_every=40, seed=0
        )
        assert curve.steps == (0, 40, 80, 120)

    def test_rejects_non_multiple_cadence(self):
        with pytest.raises(ConfigError, match="multiple"):
            train_agent(wave_series(), SMALL_CONFIG, FAST_HYPER, total_steps=100, eval_every=33)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # 4.0 % 2.0 == 0, so these once passed the cadence check and met range()
            ({"total_steps": 4.0, "eval_every": 2.0}, "multiple"),
            ({"total_steps": 40, "eval_every": True}, "multiple"),
            ({"total_steps": True, "eval_every": 1}, "multiple"),
            ({"seed": 1.5}, "seed must be >= 0, got 1.5"),
            ({"seed": True}, "seed must be >= 0, got True"),
        ],
    )
    def test_rejects_non_integer_counts(self, kwargs, message):
        run = {"total_steps": 40, "eval_every": 40, **kwargs}
        with pytest.raises(ConfigError, match=message):
            train_agent(wave_series(), SMALL_CONFIG, FAST_HYPER, **run)

    def test_accepts_numpy_integer_counts(self, tmp_path):
        config = BatteryConfig(capacity_kwh=4.0, rate_kw=2.0, window_hours=np.int64(4))
        curve, ckpt = train_agent(
            wave_series(), config, FAST_HYPER, np.int64(40), np.int32(40), np.int64(0)
        )
        assert curve.steps == (0, 40)
        # the metadata holds Python ints, so the checkpoint saves and reads back
        assert [type(ckpt.metadata[k]) for k in ("seed", "window_hours", "total_steps", "eval_every")] == [int] * 4
        assert checkpoint_config(ckpt) == SMALL_CONFIG
        path = tmp_path / "agent.ckpt"
        save_checkpoint(ckpt.net, ckpt.opt, ckpt.norm, ckpt.metadata, path)
        loaded = load_checkpoint(path)
        assert loaded.metadata == ckpt.metadata
        assert checkpoint_config(loaded) == SMALL_CONFIG

    def test_same_seed_reproduces_bit_for_bit(self):
        a_curve, a_ckpt = train_agent(
            wave_series(), SMALL_CONFIG, FAST_HYPER, total_steps=80, eval_every=40, seed=7
        )
        b_curve, b_ckpt = train_agent(
            wave_series(), SMALL_CONFIG, FAST_HYPER, total_steps=80, eval_every=40, seed=7
        )
        assert a_curve == b_curve
        x = np.random.default_rng(0).normal(size=(16, 5))
        np.testing.assert_array_equal(
            forward_batch(a_ckpt.net, x), forward_batch(b_ckpt.net, x)
        )

    def test_checkpoint_matches_curve_maximum(self):
        series = wave_series()
        curve, ckpt = train_agent(
            series, SMALL_CONFIG, FAST_HYPER, total_steps=120, eval_every=40, seed=3
        )
        best_step, best_ret = curve.best()
        assert ckpt.metadata["step"] == best_step
        assert ckpt.metadata["greedy_return_cents"] == best_ret
        assert evaluate_greedy(ckpt, series, SMALL_CONFIG) == best_ret

    def test_metadata_records_the_run(self):
        series = wave_series(year=2019)
        _, ckpt = train_agent(
            series, SMALL_CONFIG, FAST_HYPER, total_steps=80, eval_every=40, seed=5
        )
        md = ckpt.metadata
        assert md["year"] == 2019
        assert md["seed"] == 5
        assert md["capacity_kwh"] == 4.0
        assert md["window_hours"] == 4
        assert checkpoint_config(ckpt) == SMALL_CONFIG

    def test_never_beats_hindsight(self):
        series = wave_series()
        curve, ckpt = train_agent(
            series, SMALL_CONFIG, FAST_HYPER, total_steps=120, eval_every=40, seed=1
        )
        bound = hindsight_optimal(series, SMALL_CONFIG).value + 1e-9
        assert all(r <= bound for r in curve.returns)
        assert evaluate_greedy(ckpt, series, SMALL_CONFIG) <= bound

    def test_divergence_carries_partial_curve(self):
        hyper = Hyperparams(
            learning_rate=1e103,
            batch_size=4,
            buffer_capacity=64,
            learning_starts=1,
            update_every=1,
            target_sync_every=10,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train_agent(wave_series(), SMALL_CONFIG, hyper, total_steps=20, eval_every=20)
        curve = info.value.curve
        assert curve is not None
        assert curve.steps == (0,)


class TestHyperparams:
    def test_defaults_are_valid(self):
        h = Hyperparams()
        assert h.gamma == 0.99
        assert h.buffer_capacity == 200_000
        assert (h.epsilon_start, h.epsilon_end, h.epsilon_decay_fraction) == (1.0, 0.05, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.5},
            {"gamma": -0.1},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"update_every": 0},
            {"target_sync_every": 0},
            # counts: at 1.5, (k + 1) % 1.5 == 0 would update every 3rd step
            {"update_every": 1.5},
            {"target_sync_every": 2.5},
            {"buffer_capacity": 64.5},
            {"batch_size": 2.5},
            {"learning_starts": 1000.0},
            # a bool is an Integral, and True would read as 1
            {"update_every": True},
            {"batch_size": False},
            {"buffer_capacity": True},
            {"learning_starts": True},
            {"target_sync_every": True},
            {"learning_starts": 2.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            Hyperparams(**kwargs)

    def test_exploration_is_checked_first(self):
        # as when the schedule was a record built before the other fields
        with pytest.raises(ConfigError, match=r"^epsilon decay_fraction must be in \(0, 1\], got 0.0$"):
            Hyperparams(batch_size=0, epsilon_decay_fraction=0.0, epsilon_start=2.0)
        with pytest.raises(ConfigError, match=r"got start 2.0 and end 0.05$"):
            Hyperparams(gamma=2.0, epsilon_start=2.0)

    def test_accepts_numpy_integer_counts(self):
        assert Hyperparams(update_every=np.int64(2), buffer_capacity=np.int32(64)).update_every == 2

    def test_batch_may_fill_the_ring_but_not_exceed_it(self):
        # sample_batch draws nothing while the ring holds fewer than a batch,
        # and the ring never holds more than its capacity: such a run once
        # trained to the end without a single optimizer step
        assert Hyperparams(batch_size=32, buffer_capacity=32).batch_size == 32
        with pytest.raises(ConfigError, match="batch_size must not exceed buffer_capacity, got 33 > 32"):
            Hyperparams(batch_size=33, buffer_capacity=32)


class TestEpsilonAt:
    def test_endpoints_and_midpoint(self):
        hyper = Hyperparams()
        assert epsilon_at(hyper, 0, 200_000) == 1.0
        assert epsilon_at(hyper, 10_000, 200_000) == pytest.approx(0.525, rel=1e-12)
        assert epsilon_at(hyper, 20_000, 200_000) == 0.05
        assert epsilon_at(hyper, 137_000, 200_000) == 0.05

    def test_monotone_and_bounded(self):
        hyper = Hyperparams()
        values = [epsilon_at(hyper, k, 1000) for k in range(0, 1001, 7)]
        assert all(0.05 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            Hyperparams(epsilon_decay_fraction=0.0)
        with pytest.raises(ConfigError):
            Hyperparams(epsilon_start=0.1, epsilon_end=0.5)
        with pytest.raises(ValueError):
            epsilon_at(Hyperparams(), -1, 100)
        with pytest.raises(ValueError):
            epsilon_at(Hyperparams(), 5, 0)


class TestEvaluateGreedy:
    def test_constant_policy_matches_simulation(self):
        series = wave_series()
        ckpt = constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG)
        expected = episode_return(
            simulate(series, SMALL_CONFIG, [Action.CHARGE] * (len(series) - 1))
        )
        assert evaluate_greedy(ckpt, series, SMALL_CONFIG) == expected

    def test_window_mismatch_rejected(self):
        ckpt = constant_policy_checkpoint(2021, Action.IDLE, SMALL_CONFIG)
        with pytest.raises(ConfigError, match="width"):
            evaluate_greedy(ckpt, wave_series(), BatteryConfig(4.0, 2.0, 6))


class TestCrossTest:
    def fabricated(self):
        # rising prices make the always-charge agent profitable on its own
        # year; the always-idle agent scores exactly 0 everywhere, so the
        # 2022 column cannot be normalized
        rising = series_for_year(2021, [float(i) for i in range(1, 73)])
        falling = series_for_year(2022, [float(i) for i in range(72, 0, -1)])
        series = {2021: rising, 2022: falling}
        checkpoints = {
            2021: constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG),
            2022: constant_policy_checkpoint(2022, Action.IDLE, SMALL_CONFIG),
        }
        return checkpoints, series

    def test_raw_entries_match_independent_simulation(self):
        checkpoints, series = self.fabricated()
        matrix = cross_test(checkpoints, series)
        assert matrix.years == (2021, 2022)
        for i, plan_action in enumerate([Action.CHARGE, Action.IDLE]):
            for j, year in enumerate(matrix.years):
                expected = episode_return(
                    simulate(series[year], SMALL_CONFIG, [plan_action] * 71)
                )
                assert matrix.raw[i, j] == expected

    def test_normalization_divides_by_diagonal(self):
        checkpoints, series = self.fabricated()
        matrix = cross_test(checkpoints, series)
        assert matrix.raw[0, 0] > 0
        assert matrix.normalized[0, 0] == 1.0
        assert matrix.normalized[1, 0] == matrix.raw[1, 0] / matrix.raw[0, 0]

    def test_non_positive_diagonal_suppresses_column(self):
        checkpoints, series = self.fabricated()
        matrix = cross_test(checkpoints, series)
        assert matrix.suppressed_years == (2022,)
        assert np.isnan(matrix.normalized[:, 1]).all()

    def test_off_diagonal_means(self):
        matrix = CrossTestMatrix(
            years=(2016, 2017),
            raw=np.array([[100.0, 94.0], [80.0, 100.0]]),
        )
        means = matrix.off_diagonal_means()
        assert means[2016] == 0.94
        assert means[2017] == 0.8

    def test_year_mismatch_rejected(self):
        checkpoints, series = self.fabricated()
        del series[2022]
        with pytest.raises(ConfigError, match="match"):
            cross_test(checkpoints, series)

    def test_single_year_rejected(self):
        checkpoints, series = self.fabricated()
        for m in (checkpoints, series):
            del m[2022]
        with pytest.raises(ConfigError, match="2 years"):
            cross_test(checkpoints, series)


def serial_cross_test(checkpoints, series) -> np.ndarray:
    """The cross-test's raw returns as one loop over the cells, in row-major
    order, through ``experiment.evaluate_greedy`` as a test may patch it."""
    years = sorted(series)
    raw = np.empty((len(years), len(years)))
    for i, agent_year in enumerate(years):
        ckpt = checkpoints[agent_year]
        config = checkpoint_config(ckpt)
        for j, test_year in enumerate(years):
            raw[i, j] = experiment.evaluate_greedy(ckpt, series[test_year], config)
    return raw


def cpus(monkeypatch, k: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


class TestCrossTestWorkers:
    """The cells spread over forked workers: the bits and the first error of
    one loop over the cells, and no process left behind."""

    YEARS = (2019, 2020, 2021)

    def grid(self):
        # random networks on random walks: nine distinct returns, every bit in play
        rng = np.random.default_rng(8)
        series, checkpoints = {}, {}
        for n, year in enumerate(self.YEARS):
            series[year] = series_for_year(year, 4.0 + np.cumsum(rng.normal(0.0, 0.7, 120)))
            net = init_network(SMALL_CONFIG.window_hours, [n, 1])
            norm = ObservationNormalizer.from_series(series[year].prices, SMALL_CONFIG.capacity_kwh)
            ckpt = constant_policy_checkpoint(year, Action.IDLE, SMALL_CONFIG)
            checkpoints[year] = Checkpoint(net, AdamState.for_network(net), norm, ckpt.metadata)
        return checkpoints, series

    def failing(self, monkeypatch, bad_cells):
        """Make the cells ``bad_cells`` (row-major) raise a ValidationError citing the cell."""
        n = len(self.YEARS)
        evaluate = experiment.evaluate_greedy

        def flaky(ckpt, prices, config):
            cell = self.YEARS.index(ckpt.metadata["year"]) * n + self.YEARS.index(prices.start.year)
            if cell in bad_cells:
                raise ValidationError(f"cell {cell} is bad", position=100 + cell)
            return evaluate(ckpt, prices, config)

        monkeypatch.setattr(experiment, "evaluate_greedy", flaky)

    @pytest.mark.parametrize("k", [1, 2, 3, 16])
    def test_raw_is_the_bits_of_one_loop(self, monkeypatch, k):
        checkpoints, series = self.grid()
        expected = serial_cross_test(checkpoints, series)
        cpus(monkeypatch, k)
        matrix = cross_test(checkpoints, series)
        assert matrix.raw.tobytes() == expected.tobytes()
        assert len(set(matrix.raw.ravel().tolist())) == len(self.YEARS) ** 2

    @pytest.mark.parametrize("k", [1, 2, 3, 16])
    @pytest.mark.parametrize(
        "bad_cells, broken_agent",
        [
            pytest.param({2, 5}, None, id="parent-share-first"),
            pytest.param({3, 4}, None, id="child-share-first"),
            pytest.param({8}, None, id="last-cell"),
            pytest.param({1}, 2020, id="config-error-behind-earlier-row"),
            pytest.param({7}, 2020, id="config-error-first"),
        ],
    )
    def test_raises_the_first_error_of_one_loop(self, monkeypatch, k, bad_cells, broken_agent):
        checkpoints, series = self.grid()
        if broken_agent is not None:
            del checkpoints[broken_agent].metadata["rate_kw"]
        self.failing(monkeypatch, bad_cells)
        with pytest.raises(RtpArbError) as serial:
            serial_cross_test(checkpoints, series)
        cpus(monkeypatch, k)
        with pytest.raises(RtpArbError) as info:
            cross_test(checkpoints, series)
        assert type(info.value) is type(serial.value)
        assert str(info.value) == str(serial.value)
        assert getattr(info.value, "position", None) == getattr(serial.value, "position", None)

    def test_a_child_that_dies_without_a_result_is_an_error(self, monkeypatch):
        checkpoints, series = self.grid()
        parent = os.getpid()
        evaluate = experiment.evaluate_greedy

        def dying(ckpt, prices, config):
            if os.getpid() != parent:
                os._exit(3)
            return evaluate(ckpt, prices, config)

        monkeypatch.setattr(experiment, "evaluate_greedy", dying)
        cpus(monkeypatch, 3)
        with pytest.raises(RtpArbError, match=r"ended without a result \(exit code 3\)"):
            cross_test(checkpoints, series)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        checkpoints, series = self.grid()
        parent = os.getpid()

        def stuck(ckpt, prices, config):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(experiment, "evaluate_greedy", stuck)
        cpus(monkeypatch, 3)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cross_test(checkpoints, series)
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestProcessMap:
    """``experiment._process_map``: one process where fork is missing, and no
    file descriptor or child left behind, also when a fork fails."""

    YEARS = TestCrossTestWorkers.YEARS
    grid = TestCrossTestWorkers.grid
    failing = TestCrossTestWorkers.failing

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_where_the_platform_lacks(self, monkeypatch, missing):
        checkpoints, series = self.grid()
        expected = serial_cross_test(checkpoints, series)
        pids = set()
        evaluate = experiment.evaluate_greedy

        def recorded(ckpt, prices, config):
            pids.add(os.getpid())
            return evaluate(ckpt, prices, config)

        monkeypatch.setattr(experiment, "evaluate_greedy", recorded)
        cpus(monkeypatch, 3)
        monkeypatch.delattr(os, missing)
        matrix = cross_test(checkpoints, series)
        assert matrix.raw.tobytes() == expected.tobytes()
        assert pids == {os.getpid()}

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_results_in_item_order(self, monkeypatch, k):
        cpus(monkeypatch, k)
        assert experiment._process_map(lambda s: s * 2, ["a", "b", "c", "d", "e"]) == ["aa", "bb", "cc", "dd", "ee"]
        assert experiment._process_map(lambda s: s * 2, []) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("bad_cells", [set(), {4}, {0}], ids=["good", "child-fails", "parent-fails"])
    def test_no_file_descriptor_left(self, monkeypatch, bad_cells):
        checkpoints, series = self.grid()
        self.failing(monkeypatch, bad_cells)
        cpus(monkeypatch, 3)
        before = open_fds()
        if bad_cells:
            with pytest.raises(ValidationError, match=f"cell {min(bad_cells)} is bad"):
                cross_test(checkpoints, series)
        else:
            cross_test(checkpoints, series)
        assert open_fds() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_closes_its_pipe_and_kills_the_children(self, monkeypatch):
        checkpoints, series = self.grid()
        parent = os.getpid()
        evaluate = experiment.evaluate_greedy

        def stuck_in_children(ckpt, prices, config):
            if os.getpid() != parent:
                time.sleep(60)
            return evaluate(ckpt, prices, config)

        fork, forks = os.fork, []

        def second_fails():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(experiment, "evaluate_greedy", stuck_in_children)
        monkeypatch.setattr(os, "fork", second_fails)
        cpus(monkeypatch, 3)
        before = open_fds()
        t0 = time.monotonic()
        with pytest.raises(OSError) as info:
            cross_test(checkpoints, series)
        assert info.value.errno == errno.EAGAIN
        assert len(forks) == 2
        assert time.monotonic() - t0 < 30
        assert open_fds() == before


class TestDailyPolicy:
    def test_trace_is_a_slice_of_the_full_rollout(self):
        series = wave_series(days=3)
        ckpt = constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG)
        trace = daily_policy_trace(series, date(2021, 1, 2), greedy_rollout(ckpt.net, ckpt.norm, series, SMALL_CONFIG))
        assert len(trace.hours) == 24
        assert trace.hours[0] == datetime(2021, 1, 2, tzinfo=UTC)
        assert trace.actions == (Action.CHARGE,) * 24
        transitions = simulate(series, SMALL_CONFIG, [Action.CHARGE] * 71)
        expected_charges = [t.next_obs.charge_kwh for t in transitions[24:48]]
        assert list(trace.charge_after) == expected_charges
        assert trace.prices == tuple(series.prices[24:48].tolist())

    def test_day_touching_final_hour_rejected(self):
        series = wave_series(days=3)
        ckpt = constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG)
        with pytest.raises(ValidationError, match="2021-01-03"):
            daily_policy_trace(series, date(2021, 1, 3), greedy_rollout(ckpt.net, ckpt.norm, series, SMALL_CONFIG))

    def test_window_mismatch_rejected(self):
        ckpt = constant_policy_checkpoint(2021, Action.IDLE, SMALL_CONFIG)
        with pytest.raises(ConfigError, match="width"):
            series = wave_series(days=3)
            daily_policy_trace(series, date(2021, 1, 2), greedy_rollout(ckpt.net, ckpt.norm, series, BatteryConfig(4.0, 2.0, 6)))

    def test_trace_validation(self):
        start = datetime(2021, 1, 1, tzinfo=UTC)
        with pytest.raises(ValidationError, match="24"):
            DailyPolicyTrace(start, (1.0,) * 23, (Action.IDLE,) * 23, (0.0,) * 23)
        with pytest.raises(ValidationError, match="length"):
            DailyPolicyTrace(start, (1.0,) * 24, (Action.IDLE,) * 23, (0.0,) * 24)
        day = ((1.0,) * 24, (Action.IDLE,) * 24, (0.0,) * 24)
        # a naive start was once kept, and a sub-second one written as the second
        for bad in (start.replace(tzinfo=None), start.replace(microsecond=1)):
            with pytest.raises(ValidationError):
                DailyPolicyTrace(bad, *day)
        assert DailyPolicyTrace(start, *day).start is start
        # an hour of a zone at UTC+0 only in winter is kept as that UTC hour
        london = DailyPolicyTrace(datetime(2021, 3, 28, tzinfo=ZoneInfo("Europe/London")), *day)
        assert london.start.tzinfo is UTC
        assert london.hours[:3] == tuple(datetime(2021, 3, 28, h, tzinfo=UTC) for h in range(3))


CURVES_HEAD = "year,step,greedy_return_cents"
CROSS_HEAD = "agent_year,test_year,raw_return_cents,normalized"
GRID = [CROSS_HEAD, "2016,2016,10.0,1.0", "2016,2017,5.0,0.5", "2017,2016,8.0,0.8", "2017,2017,10.0,1.0"]
DAY = ["hour_start_utc,price_cents_per_kwh,action,charge_kwh_after"] + [
    f"2021-01-01T{i:02d}:00:00Z,2.0,idle,0.0" for i in range(24)
]


def csv_text(*rows: str) -> str:
    return "".join(row + "\n" for row in rows)


def with_row(rows: list[str], row_no: int, text: str) -> list[str]:
    """``rows`` with 1-based CSV row ``row_no`` (row 1 is the header) replaced by ``text``."""
    return rows[: row_no - 1] + [text] + rows[row_no:]


class TestCsvRoundTrips:
    def test_training_curves(self, tmp_path):
        curves = [
            TrainingCurve(2016, ((0, 0.0), (10, 123.456))),
            TrainingCurve(2017, ((0, -2.5), (10, 7.0), (20, 9.25))),
        ]
        path = tmp_path / "curves.csv"
        write_training_curves_csv(curves, path)
        assert read_training_curves_csv(path) == curves

    def test_training_curves_bad_row_cited(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("year,step,greedy_return_cents\n2016,0,1.0\n2016,ten,2.0\n")
        with pytest.raises(ValidationError, match="row 3"):
            read_training_curves_csv(path)

    def test_cross_test_with_suppression(self, tmp_path):
        matrix = CrossTestMatrix(
            years=(2016, 2017),
            raw=np.array([[100.0, -3.0], [80.0, -1.0]]),
        )
        path = tmp_path / "ct.csv"
        write_cross_test_csv(matrix, path)
        text = path.read_text()
        assert "2016,2017,-3.0,\n" in text
        loaded = read_cross_test_csv(path)
        assert loaded.years == matrix.years
        assert loaded.suppressed_years == (2017,)
        np.testing.assert_array_equal(loaded.raw, matrix.raw)
        np.testing.assert_array_equal(loaded.normalized, matrix.normalized)

    @pytest.mark.parametrize(
        "reader, text, cited",
        [
            # header only: charts has nothing to draw
            pytest.param(read_training_curves_csv, csv_text(CURVES_HEAD), "row 2", id="curves-header-only"),
            pytest.param(read_cross_test_csv, csv_text(CROSS_HEAD), "row 2", id="cross-header-only"),
            # non-finite numbers: the writers write none, and an empty
            # normalized cell is the only way to say "suppressed"
            pytest.param(read_training_curves_csv, csv_text(CURVES_HEAD, "2017,0,nan"), "row 2", id="curves-nan"),
            pytest.param(read_training_curves_csv, csv_text(CURVES_HEAD, "2017,0,1.0", "2017,10,-inf"), "row 3", id="curves-minus-inf"),
            # the step order TrainingCurve checks, cited by row; the years interleave,
            # so a point's index within its curve is not its row
            pytest.param(read_training_curves_csv, csv_text(CURVES_HEAD, "2020,10,1.0", "2020,0,2.0"), "row 2: curve must start at step 0", id="curves-wrong-start"),
            pytest.param(read_training_curves_csv, csv_text(CURVES_HEAD, "2020,0,1.0", "2021,0,1.0", "2020,10,2.0", "2021,10,2.0", "2020,10,3.0"), "row 6: curve steps must increase", id="curves-repeated-step"),
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 3, "2016,2017,nan,0.5")), "row 3", id="cross-raw-nan"),
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 4, "2017,2016,inf,0.8")), "row 4", id="cross-raw-inf"),
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 5, "2017,2017,10.0,nan")), "row 5", id="cross-normalized-nan"),
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 2, "2016,2016,10.0,-inf")), "row 2", id="cross-normalized-minus-inf"),
            # a repeated cell once silently replaced the first
            pytest.param(read_cross_test_csv, csv_text(*GRID, "2016,2017,6.0,0.6"), "row 6: agent 2016 on 2017", id="cross-repeated-cell"),
            pytest.param(read_daily_policy_csv, csv_text(*with_row(DAY, 7, "2021-01-01T05:00:00Z,nan,idle,0.0")), "row 7", id="daily-price-nan"),
            pytest.param(read_daily_policy_csv, csv_text(*with_row(DAY, 9, "2021-01-01T07:00:00Z,2.0,idle,inf")), "row 9", id="daily-charge-inf"),
            # hours come from the first stamp on: each row must be one hour after the last
            pytest.param(read_daily_policy_csv, csv_text(*with_row(DAY, 5, "2021-01-01T05:00:00Z,2.0,idle,0.0")), "row 5: 2021-01-01T05:00:00Z is not one hour after", id="daily-hour-gap"),
            pytest.param(read_daily_policy_csv, csv_text(*with_row(DAY, 2, "2021-01-01T01:00:00Z,2.0,idle,0.0")), "row 3: 2021-01-01T01:00:00Z is not one hour after", id="daily-repeated-hour"),
            # normalized cells are derived from the raw returns; one that disagrees is cited
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 3, "2016,2017,5.0,7.5")), "row 3: normalized 7.5 is not the derived 0.5", id="cross-normalized-not-raw-over-diagonal"),
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 2, "2016,2016,10.0,")), "row 2: normalized nan is not the derived 1.0", id="cross-normalized-missing"),
            # a column whose same-year return is not positive is suppressed: its cells are empty
            pytest.param(read_cross_test_csv, csv_text(*with_row(GRID, 5, "2017,2017,-10.0,1.0")), "row 3: normalized 0.5 is not the derived nan", id="cross-normalized-in-suppressed-column"),
        ],
    )
    def test_rows_no_writer_writes_are_rejected(self, tmp_path, reader, text, cited):
        path = tmp_path / "result.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=cited):
            reader(path)

    @pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "10\r", "\u0661\u0660", "+inf"])
    @pytest.mark.parametrize(
        "reader, rows, row_no, fields",
        [
            (read_training_curves_csv, [CURVES_HEAD, "2017,0,1.0", "2017,10,2.0"], 3, (0, 1, 2)),
            (read_cross_test_csv, GRID, 4, (0, 1, 2, 3)),
        ],
        ids=["curves", "cross"],
    )
    def test_numbers_as_no_writer_writes_them_are_rejected(self, tmp_path, reader, rows, row_no, fields, text):
        # int() and float() read each of these but "+inf", so a hand-edited
        # year, step or return once read silently
        for field in fields:
            cells = rows[row_no - 1].split(",")
            cells[field] = text
            path = tmp_path / "result.csv"
            path.write_text(csv_text(*with_row(rows, row_no, ",".join(cells))))
            with pytest.raises(ValidationError, match=f"row {row_no}: bad num"):
                reader(path)

    def test_cross_test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "ct.csv"
        path.write_text(
            "agent_year,test_year,raw_return_cents,normalized\n2016,2016,1.0,1.0\n"
            "2016,2017,2.0,1.0\n"
        )
        with pytest.raises(ValidationError, match="not complete"):
            read_cross_test_csv(path)

    def test_daily_policy(self, tmp_path):
        series = wave_series(days=3)
        ckpt = constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG)
        trace = daily_policy_trace(series, date(2021, 1, 1), greedy_rollout(ckpt.net, ckpt.norm, series, SMALL_CONFIG))
        path = tmp_path / "daily.csv"
        write_daily_policy_csv(trace, path)
        assert read_daily_policy_csv(path) == trace

    @pytest.mark.parametrize(
        "start, first_stamp",
        [
            (datetime(1, 1, 1, tzinfo=UTC), "0001-01-01T00:00:00Z"),
            (datetime(999, 12, 31, tzinfo=UTC), "0999-12-31T00:00:00Z"),
            (datetime(9999, 12, 31, tzinfo=UTC), "9999-12-31T00:00:00Z"),  # ends on 9999-12-31T23:00Z
        ],
        ids=["year-1", "year-999", "ends-9999-12-31T23"],
    )
    def test_daily_policy_round_trip_at_the_ends_of_the_calendar(self, tmp_path, start, first_stamp):
        actions = tuple(Action(i % 3) for i in range(24))
        trace = DailyPolicyTrace(start, tuple(i / 8 for i in range(24)), actions, tuple(i / 4 for i in range(24)))
        path = tmp_path / "daily.csv"
        write_daily_policy_csv(trace, path)
        rows = path.read_text().splitlines()
        assert rows[1].startswith(first_stamp + ",")
        assert read_daily_policy_csv(path) == trace

    def test_daily_policy_of_shuffled_hours_from_two_days_rejected(self, tmp_path):
        stamps = [f"2021-01-01T{h:02d}:00:00Z" for h in range(12, 24)]
        stamps += [f"2021-01-02T{h:02d}:00:00Z" for h in range(12)]
        np.random.default_rng(3).shuffle(stamps)
        path = tmp_path / "daily.csv"
        path.write_text(csv_text(DAY[0], *(f"{s},2.0,idle,0.0" for s in stamps)))
        with pytest.raises(ValidationError, match="row 3: .* is not one hour after"):
            read_daily_policy_csv(path)

    def test_daily_policy_unknown_action_cited(self, tmp_path):
        path = tmp_path / "daily.csv"
        rows = ["hour_start_utc,price_cents_per_kwh,action,charge_kwh_after"]
        for i in range(24):
            action = "hold" if i == 5 else "idle"
            rows.append(f"2021-01-01T{i:02d}:00:00Z,2.0,{action},0.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 7"):
            read_daily_policy_csv(path)


def polyline_count(path) -> int:
    ns = {"svg": "http://www.w3.org/2000/svg"}
    return len(ET.parse(path).getroot().findall(".//svg:polyline", ns))


class TestEmitOutputs:
    def make_everything(self):
        curves = [
            TrainingCurve(2021, ((0, 0.0), (40, 10.0), (80, 30.0))),
            TrainingCurve(2022, ((0, 1.0), (40, 5.0), (80, 12.0))),
        ]
        matrix = CrossTestMatrix(
            years=(2021, 2022),
            raw=np.array([[30.0, 11.0], [25.0, 12.0]]),
        )
        series = wave_series(days=3)
        ckpt = constant_policy_checkpoint(2021, Action.CHARGE, SMALL_CONFIG)
        daily = daily_policy_trace(series, date(2021, 1, 1), greedy_rollout(ckpt.net, ckpt.norm, series, SMALL_CONFIG))
        return curves, matrix, daily

    def test_writes_all_artifacts(self, tmp_path):
        curves, matrix, daily = self.make_everything()
        written = emit_outputs(curves, matrix, tmp_path / "out", daily=daily)
        names = [p.name for p in written]
        assert names == [
            "training_curves.csv",
            "training_curves.svg",
            "cross_test.csv",
            "cross_test.svg",
            "daily_policy.csv",
            "daily_policy.svg",
        ]
        assert all(p.exists() for p in written)

    def test_results_passed_as_none_are_skipped(self, tmp_path):
        _, matrix, daily = self.make_everything()
        ct, dp = tmp_path / "ct", tmp_path / "dp"
        assert emit_outputs(None, matrix, ct) == [ct / "cross_test.csv", ct / "cross_test.svg"]
        assert emit_outputs(None, None, dp, daily) == [dp / "daily_policy.csv", dp / "daily_policy.svg"]
        assert sorted(p.name for p in ct.iterdir()) == ["cross_test.csv", "cross_test.svg"]
        assert sorted(p.name for p in dp.iterdir()) == ["daily_policy.csv", "daily_policy.svg"]

    def test_curve_chart_has_one_polyline_per_agent(self, tmp_path):
        curves, matrix, _ = self.make_everything()
        emit_outputs(curves, matrix, tmp_path)
        assert polyline_count(tmp_path / "training_curves.svg") == 2
        assert polyline_count(tmp_path / "cross_test.svg") == 0

    def test_daily_chart_shape(self, tmp_path):
        curves, matrix, daily = self.make_everything()
        emit_outputs(curves, matrix, tmp_path, daily=daily)
        assert polyline_count(tmp_path / "daily_policy.svg") == 2
        lines = (tmp_path / "daily_policy.csv").read_text().rstrip("\n").split("\n")
        assert len(lines) == 25

    def test_csv_row_counts(self, tmp_path):
        curves, _, _ = self.make_everything()
        emit_outputs(curves, None, tmp_path)
        lines = (tmp_path / "training_curves.csv").read_text().rstrip("\n").split("\n")
        assert len(lines) == 1 + 6
        assert not (tmp_path / "cross_test.csv").exists()

    def test_suppressed_year_still_renders(self, tmp_path):
        curves, _, _ = self.make_everything()
        matrix = CrossTestMatrix(
            years=(2021, 2022),
            raw=np.array([[30.0, -1.0], [25.0, -2.0]]),
        )
        emit_outputs(curves, matrix, tmp_path)
        svg = (tmp_path / "cross_test.svg").read_text()
        assert "nan" not in svg
        assert "n/a" in svg
