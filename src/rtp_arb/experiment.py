"""Training protocol: looped-year runs, curves, cross-year tests, outputs.

One agent is trained per calendar year of hourly prices. Training loops the
year episodically, pausing on a fixed cadence for a full-year greedy
evaluation; the sequence of those evaluations is the training curve, and the
parameters at the curve's maximum become the year's checkpoint. Trained
agents are then cross-tested on the other years, with each test return
normalized by the score of the agent trained on that test year. Results
land as CSV files plus SVG charts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import date, datetime, time as dtime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import charts
from .atomic import write_lines
from .dqn import (
    Checkpoint,
    EpsilonSchedule,
    ReplayBuffer,
    epsilon_at,
    explore,
    push_transition,
    select_action,
    sync_target,
    train_step,
)
# reset, step and forward go unused: benchmarks/tracing.py patches them by name (ROADMAP item 1)
from .env import ACTIONS, HOUR, Action, BatteryConfig, PriceSeries, charge_grid, reset, step
from .errors import ConfigError, TrainingDivergedError, ValidationError
from .network import (
    AdamState,
    ObservationNormalizer,
    QNetwork,
    forward,
    forward_batch,
    init_network,
)
from .ingest import hour_stamps, read_csv_rows, read_finite, read_hourly_rows

log = logging.getLogger(__name__)

#: ``train`` merges each new curve into this file of its output directory
TRAINING_CURVES_CSV = "training_curves.csv"

TRAINING_CURVES_HEADER = "year,step,greedy_return_cents"
CROSS_TEST_HEADER = "agent_year,test_year,raw_return_cents,normalized"
DAILY_POLICY_HEADER = "hour_start_utc,price_cents_per_kwh,action,charge_kwh_after"

DEFAULT_TOTAL_STEPS = 200_000
DEFAULT_EVAL_EVERY = 10_000

#: Hours per batched forward in greedy evaluation (times the charge levels:
#: 192 rows for the default battery). Blocks bound the working set whatever
#: the series length. Larger blocks measured slower: from 96 hours up, the
#: allocator handed each block's layer outputs (300-400 KiB each) back to
#: the OS and faulted them in again, some 11k page faults per year.
GREEDY_BLOCK_HOURS = 32

@dataclass(frozen=True)
class Hyperparams:
    """Learning knobs; the defaults are the ones the rest of the project uses."""

    gamma: float = 0.99
    learning_rate: float = 1e-4
    batch_size: int = 32
    buffer_capacity: int = 200_000
    learning_starts: int = 1_000
    update_every: int = 4
    target_sync_every: int = 1_000
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "buffer_capacity", "learning_starts", "update_every", "target_sync_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the ring holds at most buffer_capacity transitions, so a larger batch
        # is never sampled and the run would end without a single update
        if self.batch_size > self.buffer_capacity:
            raise ConfigError(
                f"batch_size must not exceed buffer_capacity, "
                f"got {self.batch_size} > {self.buffer_capacity}"
            )


@dataclass(frozen=True)
class TrainingCurve:
    """Greedy returns measured on a fixed cadence during one training run."""

    year: int
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("training curve has no points")
        if self.points[0][0] != 0:
            raise ValidationError(f"curve must start at step 0, got {self.points[0][0]}", position=0)
        for i, ((a, _), (b, _)) in enumerate(zip(self.points, self.points[1:]), start=1):
            if b <= a:
                raise ValidationError(f"curve steps must increase, got {a} then {b}", position=i)

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.points)

    @property
    def returns(self) -> tuple[float, ...]:
        return tuple(r for _, r in self.points)

    def best(self) -> tuple[int, float]:
        """(step, return) of the curve maximum; earliest step wins ties."""
        best_step, best_ret = self.points[0]
        for s, r in self.points[1:]:
            if r > best_ret:
                best_step, best_ret = s, r
        return best_step, best_ret


def greedy_rollout(
    net: QNetwork,
    norm: ObservationNormalizer,
    prices: PriceSeries,
    config: BatteryConfig,
) -> tuple[float, list[Action], list[float]]:
    """One full deterministic pass from an empty battery.

    Returns the episode return plus the per-step actions and post-action
    charge levels (both length M-1 for M prices).

    The actions and return are exactly those of stepping the environment
    with ``select_action(forward(net, obs, norm), 0.0)``, computed without
    stepping it (the batched Q-values agree with ``forward``'s to a few
    ulps, not bit for bit), on the :func:`rtp_arb.env.charge_grid` that
    :func:`train_agent` and the oracle walk too: an observation
    is a pure function of (hour index, charge level), so batched forwards
    fill a table of the greedy action at every grid point, one block of
    hours at a time, and the episode is an integer walk through each block
    of that table and the successor lists. Rewards accumulate in step order.
    The rows come from the pair-window matrix that training reads (see
    :meth:`ObservationNormalizer.price_windows`).

    A network whose input width does not fit ``config`` (a checkpoint
    evaluated with another window) is a ConfigError.
    """
    if net.input_dim != config.window_hours + 1:
        raise ConfigError(
            f"network expects observation width {net.input_dim}, "
            f"config window needs {config.window_hours + 1}"
        )
    if net.layer_dims[-1] != len(Action):
        raise ValueError(f"network has {net.layer_dims[-1]} outputs, expected {len(Action)}")
    levels, succ, deltas, i = charge_grid(prices, config)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    n_steps, n_levels = len(prices) - 1, len(levels)

    # Rows are hour-major: block row h * n_levels + i is (hour lo + h, levels[i]).
    scaled_levels = np.tile(levels, GREEDY_BLOCK_HOURS) / norm.charge_scale
    total = 0.0
    actions: list[Action] = []
    charges: list[float] = []
    for lo in range(0, n_steps, GREEDY_BLOCK_HOURS):
        hi = min(lo + GREEDY_BLOCK_HOURS, n_steps)
        x = np.repeat(pairs[lo + 1 : hi + 1], n_levels, axis=0)
        x[:, -1] = scaled_levels[: len(x)]
        greedy = forward_batch(net, x).argmax(axis=1).reshape(hi - lo, n_levels).tolist()
        for n, row in enumerate(greedy, lo):
            total += levels[i] * deltas[n]
            a = row[i]
            i = succ[i][a]
            actions.append(ACTIONS[a])
            charges.append(levels[i])
    return total, actions, charges


def train_agent(
    prices: PriceSeries,
    config: BatteryConfig,
    hyper: Hyperparams,
    total_steps: int = DEFAULT_TOTAL_STEPS,
    eval_every: int = DEFAULT_EVAL_EVERY,
    seed: int = 0,
) -> tuple[TrainingCurve, Checkpoint]:
    """Train one agent on a looped year of prices.

    The series is replayed episodically (battery reset to empty each pass)
    for ``total_steps`` environment steps, walking the (hour, charge level)
    grid :func:`greedy_rollout` walks, with the rewards and Q-values that
    stepping the environment would give. Before any training and then
    every ``eval_every`` steps, a full-year greedy evaluation is recorded;
    the returned checkpoint holds the parameters behind the highest
    evaluation. Three independent random streams (weight init, exploration,
    replay sampling) derive from ``seed``, making runs bit-reproducible.

    On numerical divergence the raised error carries the partial curve.
    """
    if total_steps < 1 or eval_every < 1 or total_steps % eval_every != 0:
        raise ConfigError(
            f"total_steps ({total_steps}) must be a positive multiple of eval_every ({eval_every})"
        )
    init_ss, explore_ss, sample_ss = np.random.SeedSequence(seed).spawn(3)
    net = init_network(config.window_hours, init_ss)
    target = net.clone()
    opt = AdamState.for_network(net, hyper.learning_rate)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    levels, succ, deltas, empty = charge_grid(prices, config)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    buffer = ReplayBuffer(hyper.buffer_capacity, pairs, norm.charge_scale)
    explore_rng = np.random.default_rng(explore_ss)
    sample_rng = np.random.default_rng(sample_ss)

    year = prices.start.year
    points: list[tuple[int, float]] = []
    best: tuple[float, int, QNetwork, AdamState] | None = None

    def evaluate(at_step: int) -> None:
        nonlocal best
        ret, _, _ = greedy_rollout(net, norm, prices, config)
        points.append((at_step, ret))
        if best is None or ret > best[0]:
            best = (ret, at_step, net.clone(), opt.clone())
        log.info("year %d step %d greedy return %.2f cents", year, at_step, ret)

    evaluate(0)
    # the current state's input row (see ObservationNormalizer.price_windows),
    # kept 2-D: a 1-D input could take another BLAS kernel and round differently
    row = np.empty((1, config.window_hours + 1))
    last_hour = len(prices) - 1
    n, i = 0, empty
    for k in range(total_steps):
        # the same draws as select_action(q, eps, explore_rng), with no
        # forward when the coin explores
        a = explore(epsilon_at(hyper.epsilon, k, total_steps), explore_rng)
        if a is None:
            row[0, :-1] = pairs[n + 1][:-1]
            row[0, -1] = levels[i] / norm.charge_scale
            a = select_action(forward_batch(net, row)[0], 0.0)
        j = succ[i][a]
        done = n + 1 == last_hour
        push_transition(buffer, n, levels[i], a, levels[i] * deltas[n], levels[j], done)
        n, i = (n + 1, j) if not done else (0, empty)

        if k + 1 >= hyper.learning_starts and (k + 1) % hyper.update_every == 0:
            try:
                loss = train_step(net, target, buffer, opt, hyper.batch_size, hyper.gamma, sample_rng)
            except TrainingDivergedError as exc:
                exc.curve = TrainingCurve(year, tuple(points))
                raise
            if loss is not None and opt.step_count % hyper.target_sync_every == 0:
                sync_target(net, target)
        if (k + 1) % eval_every == 0:
            evaluate(k + 1)

    assert best is not None
    best_ret, best_step, best_net, best_opt = best
    curve = TrainingCurve(year, tuple(points))
    metadata = {
        "year": year,
        "step": best_step,
        "greedy_return_cents": best_ret,
        "seed": seed,
        "capacity_kwh": config.capacity_kwh,
        "rate_kw": config.rate_kw,
        "window_hours": config.window_hours,
        "total_steps": total_steps,
        "eval_every": eval_every,
    }
    return curve, Checkpoint(best_net, best_opt, norm, metadata)


def checkpoint_config(ckpt: Checkpoint) -> BatteryConfig:
    """Battery parameters a checkpoint was trained with, from its metadata."""
    try:
        return BatteryConfig(
            capacity_kwh=float(ckpt.metadata["capacity_kwh"]),
            rate_kw=float(ckpt.metadata["rate_kw"]),
            window_hours=int(ckpt.metadata["window_hours"]),
        )
    except KeyError as exc:
        raise ConfigError(f"checkpoint metadata lacks battery field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint metadata has a malformed battery field: {exc}") from exc


def evaluate_greedy(ckpt: Checkpoint, prices: PriceSeries, config: BatteryConfig) -> float:
    """Full-series greedy return of a saved agent, from an empty battery."""
    total, _, _ = greedy_rollout(ckpt.net, ckpt.norm, prices, config)
    return total


@dataclass(frozen=True)
class CrossTestMatrix:
    """All agents evaluated on all years.

    ``raw`` holds returns in cents, rows indexed by agent year and columns
    by test year (same ordering). ``normalized`` is derived from it: each
    column divided by its same-year return; columns whose same-year return
    is not positive are suppressed (NaN) and listed in ``suppressed_years``.
    """

    years: tuple[int, ...]
    raw: np.ndarray
    normalized: np.ndarray = field(init=False)
    suppressed_years: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        normalized = np.full(self.raw.shape, np.nan)
        suppressed = []
        for j, test_year in enumerate(self.years):
            same_year = self.raw[j, j]
            if same_year > 0.0:
                normalized[:, j] = self.raw[:, j] / same_year
            else:
                suppressed.append(test_year)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "suppressed_years", tuple(suppressed))

    def off_diagonal_means(self) -> dict[int, float]:
        """Per-agent mean normalized return over the other, unsuppressed years."""
        out: dict[int, float] = {}
        for i, year in enumerate(self.years):
            vals = [
                self.normalized[i, j]
                for j in range(len(self.years))
                if j != i and np.isfinite(self.normalized[i, j])
            ]
            out[year] = float(np.mean(vals)) if vals else float("nan")
        return out


def cross_test(
    checkpoints: Mapping[int, Checkpoint], series: Mapping[int, PriceSeries]
) -> CrossTestMatrix:
    """Evaluate every agent on every year and normalize by same-year returns."""
    if set(checkpoints) != set(series):
        raise ConfigError(
            f"checkpoint years {sorted(checkpoints)} do not match series years {sorted(series)}"
        )
    years = tuple(sorted(series))
    if len(years) < 2:
        raise ConfigError(f"cross-test needs at least 2 years, got {len(years)}")

    n = len(years)
    raw = np.empty((n, n))
    for i, agent_year in enumerate(years):
        ckpt = checkpoints[agent_year]
        config = checkpoint_config(ckpt)
        for j, test_year in enumerate(years):
            raw[i, j] = evaluate_greedy(ckpt, series[test_year], config)

    return CrossTestMatrix(years, raw)


@dataclass(frozen=True)
class DailyPolicyTrace:
    """Greedy dispatch over whole days: from the UTC hour ``start``, 24
    hourly prices a day, with the action and post-action charge of each."""

    start: datetime
    prices: tuple[float, ...]
    actions: tuple[Action, ...]
    charge_after: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.prices)
        if n == 0 or n % 24 != 0:
            raise ValidationError(f"daily trace needs whole days of 24 rows, got {n}")
        if not len(self.actions) == len(self.charge_after) == n:
            raise ValidationError("daily trace fields are not the same length")

    @property
    def hours(self) -> tuple[datetime, ...]:
        """The UTC hour-start of each row, derived from ``start``."""
        return tuple(self.start + i * HOUR for i in range(len(self.prices)))


def daily_policy_trace(
    ckpt: Checkpoint, prices: PriceSeries, config: BatteryConfig, day: date
) -> DailyPolicyTrace:
    """Greedy dispatch restricted to one UTC day of the series.

    The rollout still covers the whole series (the policy sees full price
    history and carries charge into the day); only the 24 rows of ``day``
    are returned. The final series hour has no action, so a day touching it
    is rejected.
    """
    start = datetime.combine(day, dtime(), tzinfo=timezone.utc)
    first = prices.index_of(start)
    last = first + 23
    if last > len(prices) - 2:
        raise ValidationError(
            f"day {day.isoformat()} is not fully covered by dispatchable hours of {prices!r}"
        )
    _, actions, charges = greedy_rollout(ckpt.net, ckpt.norm, prices, config)
    return DailyPolicyTrace(
        start=start,
        prices=tuple(float(p) for p in prices.prices[first : last + 1]),
        actions=tuple(actions[first : last + 1]),
        charge_after=tuple(charges[first : last + 1]),
    )


def write_training_curves_csv(curves: Sequence[TrainingCurve], path) -> None:
    lines = [TRAINING_CURVES_HEADER]
    for curve in curves:
        for s, r in curve.points:
            lines.append(f"{curve.year},{s},{r!r}")
    write_lines(path, lines)


def read_training_curves_csv(path) -> list[TrainingCurve]:
    rows = read_csv_rows(path, TRAINING_CURVES_HEADER, 3)
    by_year: dict[int, list[tuple[int, int, float]]] = {}
    for row_no, (year_s, step_s, ret_s) in rows:
        try:
            year, step = int(year_s), int(step_s)
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad numeric field") from exc
        by_year.setdefault(year, []).append((row_no, step, read_finite(path, row_no, ret_s)))
    if not by_year:
        raise ValidationError(f"{path}: row 2: expected a curve point, got none")
    curves = []
    for year, rows_of_year in sorted(by_year.items()):
        try:
            curves.append(TrainingCurve(year, tuple((step, ret) for _, step, ret in rows_of_year)))
        except ValidationError as exc:
            # TrainingCurve owns the step-order checks; cite the CSV row
            raise ValidationError(f"{path}: row {rows_of_year[exc.position][0]}: {exc}") from exc
    return curves


def write_cross_test_csv(matrix: CrossTestMatrix, path) -> None:
    lines = [CROSS_TEST_HEADER]
    for i, agent_year in enumerate(matrix.years):
        for j, test_year in enumerate(matrix.years):
            norm = matrix.normalized[i, j]
            norm_s = repr(float(norm)) if np.isfinite(norm) else ""
            lines.append(f"{agent_year},{test_year},{float(matrix.raw[i, j])!r},{norm_s}")
    write_lines(path, lines)


def read_cross_test_csv(path) -> CrossTestMatrix:
    rows = read_csv_rows(path, CROSS_TEST_HEADER, 4)
    # (agent year, test year) -> (row number, raw return, normalized cell)
    cells: dict[tuple[int, int], tuple[int, float, float]] = {}
    for row_no, (agent_s, test_s, raw_s, norm_s) in rows:
        try:
            key = (int(agent_s), int(test_s))
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad numeric field") from exc
        if key in cells:
            raise ValidationError(f"{path}: row {row_no}: agent {key[0]} on {key[1]} is listed twice")
        # an empty cell is a suppressed column, the only non-finite value written
        norm = read_finite(path, row_no, norm_s) if norm_s else math.nan
        cells[key] = (row_no, read_finite(path, row_no, raw_s), norm)
    if not cells:
        raise ValidationError(f"{path}: row 2: expected an (agent, test) return, got none")
    years = tuple(sorted({a for a, _ in cells}))
    if set(cells) != {(a, t) for a in years for t in years}:
        raise ValidationError(f"{path}: cross-test grid is not complete over {years}")
    matrix = CrossTestMatrix(years, np.array([[cells[(a, t)][1] for t in years] for a in years]))
    # the writer writes repr, which round-trips: a written cell matches exactly
    for (a, t), (row_no, _, norm) in cells.items():
        derived = float(matrix.normalized[years.index(a), years.index(t)])
        if not (norm == derived or (math.isnan(norm) and math.isnan(derived))):
            raise ValidationError(f"{path}: row {row_no}: normalized {norm!r} is not the derived {derived!r}")
    return matrix


def write_daily_policy_csv(trace: DailyPolicyTrace, path) -> None:
    rows = zip(
        hour_stamps(trace.start, len(trace.prices)),
        map(repr, trace.prices),
        map(str, trace.actions),
        map(repr, trace.charge_after),
    )
    write_lines(path, [DAILY_POLICY_HEADER, *map(",".join, rows)])


def _action(text: str) -> Action:
    try:
        return Action[text.upper()]
    except KeyError:
        raise ValueError(f"unknown action {text!r}") from None


def read_daily_policy_csv(path) -> DailyPolicyTrace:
    start, (prices, actions, charges) = read_hourly_rows(path, DAILY_POLICY_HEADER, (float, _action, float))
    return DailyPolicyTrace(start, tuple(prices.tolist()), tuple(actions), tuple(charges.tolist()))


def render_daily_policy_svg(trace: DailyPolicyTrace, path) -> Path:
    """Step chart of one day: price level plus battery charge, hour by hour."""
    hours_axis = list(range(len(trace.prices)))
    marks = "".join(str(a)[0].upper() for a in trace.actions)
    charts.line_chart(
        [
            charts.Series("price (c/kWh)", hours_axis, trace.prices),
            charts.Series("charge (kWh)", hours_axis, trace.charge_after),
        ],
        f"Dispatch on {trace.start.date().isoformat()} [{marks}]",
        "hour (UTC)",
        "price / charge",
        path,
        step=True,
    )
    return Path(path)


def render_training_curves_svg(curves: Sequence[TrainingCurve], path) -> Path:
    """One line per agent: greedy return against environment steps."""
    charts.line_chart(
        [charts.Series(str(c.year), c.steps, c.returns) for c in curves],
        "Greedy return during training",
        "environment steps",
        "return (cents)",
        path,
    )
    return Path(path)


def render_cross_test_svg(matrix: CrossTestMatrix, path) -> Path:
    """One bar per agent: its mean normalized return outside the training year."""
    means = matrix.off_diagonal_means()
    charts.bar_chart(
        [str(y) for y in matrix.years],
        [means[y] for y in matrix.years],
        "Mean normalized return outside the training year",
        "normalized return",
        path,
    )
    return Path(path)


#: The results, in :func:`emit_outputs` argument order, as (CSV name, writer,
#: reader, SVG renderer). Each chart goes beside its CSV under the same stem.
RESULTS = (
    (TRAINING_CURVES_CSV, write_training_curves_csv, read_training_curves_csv, render_training_curves_svg),
    ("cross_test.csv", write_cross_test_csv, read_cross_test_csv, render_cross_test_svg),
    ("daily_policy.csv", write_daily_policy_csv, read_daily_policy_csv, render_daily_policy_svg),
)


def emit_outputs(
    curves: Sequence[TrainingCurve] | None,
    matrix: CrossTestMatrix | None,
    out_dir,
    daily: DailyPolicyTrace | None = None,
) -> list[Path]:
    """Write each result that is not None as its CSV plus the SVG beside it.

    Returns the written paths, each CSV followed by its chart, in
    :data:`RESULTS` order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for (name, write, _, render), result in zip(RESULTS, (curves, matrix, daily)):
        if result is not None:
            csv = out / name
            write(result, csv)
            written += [csv, render(result, csv.with_suffix(".svg"))]
    return written
