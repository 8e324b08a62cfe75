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
import os
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, time as dtime, timezone
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from . import charts
from .atomic import write_lines
from .dqn import (
    Checkpoint,
    ReplayBuffer,
    explore,
    header_float,
    header_int,
    push_transition,
    select_action,
    sync_target,
    train_step,
)
# reset, step and forward go unused: benchmarks/tracing.py patches them by name (ROADMAP item 17)
from .env import ACTIONS, HOUR, Action, BatteryConfig, PriceSeries, charge_grid, is_count, reset, step, utc_start
from .errors import ConfigError, RtpArbError, TrainingDivergedError, ValidationError
from .network import (
    ACTION_COUNT,
    AdamState,
    BlockForward,
    ObservationNormalizer,
    QNetwork,
    RowForward,
    forward,
    init_network,
)
from .ingest import hour_stamps, number_text, read_columns, whole_number

log = logging.getLogger(__name__)

#: ``train`` merges each new curve into this file of its output directory
TRAINING_CURVES_CSV = "training_curves.csv"

TRAINING_CURVES_HEADER = "year,step,greedy_return_cents"
CROSS_TEST_HEADER = "agent_year,test_year,raw_return_cents,normalized"
DAILY_POLICY_HEADER = "hour_start_utc,price_cents_per_kwh,action,charge_kwh_after"

DEFAULT_TOTAL_STEPS = 200_000
DEFAULT_EVAL_EVERY = 10_000

#: Cells per batched forward in greedy evaluation: a block holds as many
#: whole hours as fit, at least one, each a cell per charge level (32 hours
#: of the default battery's 6 levels). Blocks bound the working set whatever
#: the series length and the grid. With the first layer split, a year at
#: the default battery took 1.16x as long in 96-cell blocks and 1.05x in
#: 288- and 384-cell blocks (medians of 12 interleaved rounds). Before the
#: split, 192-cell blocks ran no slower than 32-hour blocks on any grid
#: measured (1.33x as fast at 101 levels and 1.45x at 1,001, in one-hour
#: blocks).
GREEDY_BLOCK_ROWS = 192

@dataclass(frozen=True)
class Hyperparams:
    """Learning knobs; the defaults are the ones the rest of the project uses.

    The last three set the exploration rate (see :func:`epsilon_at`).
    """

    gamma: float = 0.99
    learning_rate: float = 1e-4
    batch_size: int = 32
    buffer_capacity: int = 200_000
    learning_starts: int = 1_000
    update_every: int = 4
    target_sync_every: int = 1_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ConfigError(f"epsilon decay_fraction must be in (0, 1], got {self.epsilon_decay_fraction}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigError(
                f"epsilon must fall within [0, 1] (0 <= end <= start <= 1), "
                f"got start {self.epsilon_start} and end {self.epsilon_end}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "buffer_capacity", "learning_starts", "update_every", "target_sync_every"):
            count = getattr(self, name)
            if not is_count(count):
                raise ConfigError(f"{name} must be an integer >= 1, got {count!r}")
        # the ring holds at most buffer_capacity transitions, so a larger batch
        # is never sampled and the run would end without a single update
        if self.batch_size > self.buffer_capacity:
            raise ConfigError(
                f"batch_size must not exceed buffer_capacity, "
                f"got {self.batch_size} > {self.buffer_capacity}"
            )


def epsilon_at(hyper: Hyperparams, step: int, total_steps: int) -> float:
    """Exploration rate at a given environment step of a run.

    Decays linearly from ``epsilon_start`` to ``epsilon_end`` over the first
    ``epsilon_decay_fraction`` of ``total_steps``, then stays at ``epsilon_end``.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    horizon = hyper.epsilon_decay_fraction * total_steps
    if step >= horizon:
        # clamp to the floor exactly; interpolating at frac=1.0 would leave
        # the tail one ulp above end
        return hyper.epsilon_end
    frac = step / horizon
    return hyper.epsilon_start + frac * (hyper.epsilon_end - hyper.epsilon_start)


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
    stepping it, on the :func:`rtp_arb.env.charge_grid` that
    :func:`train_agent` and the oracle walk too: an observation is a pure
    function of (hour index, charge level), so batched forwards fill a table
    of the greedy action at every grid point, one block of hours at a time,
    and the episode is an integer walk through each block of that table and
    the successor lists. Rewards accumulate in step order. The windows come
    from the pair-window matrix that training reads (see
    :meth:`ObservationNormalizer.price_windows`). The blocks run on one
    :class:`rtp_arb.network.BlockForward` per call, which multiplies an
    hour's window by the first layer once for all its charge levels; its
    level rows and tiled biases are copies, valid because the network does
    not change during a rollout. Its Q-values agree with ``forward``'s to a
    few ulps, not bit for bit; the reference tests check that no decision
    comes near a tie.

    A network whose input width does not fit ``config`` (a checkpoint
    evaluated with another window) is a ConfigError; a normalized input, a
    Q-value or a return past the float range (parameters or prices far out of
    scale) is a ValidationError.
    """
    if net.input_dim != config.window_hours + 1:
        raise ConfigError(
            f"network expects observation width {net.input_dim}, "
            f"config window needs {config.window_hours + 1}"
        )
    if net.layer_dims[-1] != ACTION_COUNT:
        raise ValueError(f"network has {net.layer_dims[-1]} outputs, expected {ACTION_COUNT}")
    levels, succ, deltas, i = charge_grid(prices, config)
    n_steps, n_levels = len(prices) - 1, len(levels)
    total = 0.0
    codes: list[int] = []
    path: list[int] = []
    try:
        # an input or Q-value past the float range has no greedy action
        with np.errstate(over="raise", invalid="raise"):
            pairs = norm.price_windows(prices.prices, config.window_hours + 1)
            block_hours = min(max(GREEDY_BLOCK_ROWS // n_levels, 1), n_steps)
            fwd = BlockForward(net, block_hours, np.array(levels) / norm.charge_scale)
            for lo in range(0, n_steps, block_hours):
                # the last block ends at the last step, overlapping the one before
                start = min(lo, n_steps - block_hours)
                fwd.windows[:] = pairs[start + 1 : start + block_hours + 1, :-1]
                # greedy[j][h]: the greedy action at (hour start + h, levels[j])
                greedy = fwd().argmax(axis=1).reshape(n_levels, block_hours).tolist()
                for n in range(lo, min(lo + block_hours, n_steps)):
                    total += levels[i] * deltas[n]
                    a = greedy[i][n - start]
                    i = succ[i][a]
                    codes.append(a)
                    path.append(i)
    except FloatingPointError as exc:
        raise ValidationError(f"greedy evaluation left the float range: {exc}") from None
    # the rewards are Python floats, which overflow to inf or NaN without an error
    if not math.isfinite(total):
        raise ValidationError("greedy return is not finite: prices beyond float range")
    return total, list(map(ACTIONS.__getitem__, codes)), list(map(levels.__getitem__, path))


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
    stepping the environment would give; the greedy steps' Q-values come
    from one :class:`rtp_arb.network.RowForward` over the live network, with
    the bits of :func:`rtp_arb.network.forward_batch`. Before any training
    and then every ``eval_every`` steps, a full-year greedy evaluation is
    recorded; the returned checkpoint holds the parameters behind the
    highest evaluation. Three independent random streams (weight init, exploration,
    replay sampling) derive from ``seed``, making runs bit-reproducible.

    On numerical divergence (a non-finite loss, or an overflow or invalid
    operation in the step loop) the raised error carries the partial curve.
    """
    if not (is_count(total_steps) and is_count(eval_every)) or total_steps % eval_every != 0:
        raise ConfigError(
            f"total_steps ({total_steps}) must be a positive multiple of eval_every ({eval_every})"
        )
    if not is_count(seed, 0):
        raise ConfigError(f"seed must be >= 0, got {seed}")
    init_ss, explore_ss, sample_ss = np.random.SeedSequence(seed).spawn(3)
    try:
        net = init_network(config.window_hours, init_ss)
    except (MemoryError, ValueError) as exc:  # numpy refuses arrays it cannot allocate
        raise ConfigError(f"window_hours {config.window_hours} is too large: {exc}") from None
    target = net.clone()
    opt = AdamState.for_network(net, hyper.learning_rate)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    levels, succ, deltas, empty = charge_grid(prices, config)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    try:
        buffer = ReplayBuffer(hyper.buffer_capacity, pairs, norm.charge_scale)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"buffer_capacity {hyper.buffer_capacity} is too large: {exc}") from None
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
    # the current state's input row (see ObservationNormalizer.price_windows)
    # on a one-row workspace over the live parameters, kept 2-D: a 1-D input
    # could take another BLAS kernel and round differently
    act = RowForward(net)
    window, charge = act.x[0, :-1], act.x[0, -1:]
    last_hour = len(prices) - 1
    n, i = 0, empty
    try:
        # a diverging net can leave the float range in a forward or an update
        # before its loss does
        with np.errstate(over="raise", invalid="raise"):
            for k in range(total_steps):
                # the same draws as select_action(q, eps, explore_rng), with no
                # forward when the coin explores
                a = explore(epsilon_at(hyper, k, total_steps), explore_rng)
                if a is None:
                    window[:] = pairs[n + 1, :-1]
                    charge[0] = levels[i] / norm.charge_scale
                    a = select_action(act()[0], 0.0)
                j = succ[i][a]
                done = n + 1 == last_hour
                push_transition(buffer, n, levels[i], a, levels[i] * deltas[n], levels[j], done)
                n, i = (n + 1, j) if not done else (0, empty)

                if k + 1 >= hyper.learning_starts and (k + 1) % hyper.update_every == 0:
                    loss = train_step(net, target, buffer, opt, hyper.batch_size, hyper.gamma, sample_rng)
                    if loss is not None and opt.step_count % hyper.target_sync_every == 0:
                        sync_target(net, target)
                if (k + 1) % eval_every == 0:
                    evaluate(k + 1)
    except TrainingDivergedError as exc:
        exc.curve = TrainingCurve(year, tuple(points))
        raise
    except FloatingPointError as exc:
        curve = TrainingCurve(year, tuple(points))
        raise TrainingDivergedError(f"training left the float range at step {k + 1}: {exc}", curve) from None

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
    meta = ckpt.metadata
    try:
        return BatteryConfig(
            capacity_kwh=header_float(meta["capacity_kwh"], "capacity_kwh"),
            rate_kw=header_float(meta["rate_kw"], "rate_kw"),
            window_hours=header_int(meta["window_hours"], "window_hours"),
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
    A ratio past the float range is NaN too (written as a blank cell), but
    does not mark its year as suppressed.
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
                with np.errstate(over="ignore"):
                    normalized[:, j] = self.raw[:, j] / same_year
            else:
                suppressed.append(test_year)
        # a ratio past the float range is no normalized return: NaN, which
        # the writer writes as the blank cell it reads back as NaN
        normalized[np.isinf(normalized)] = np.nan
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
            # finite cells can sum past the float range: the mean is then inf
            with np.errstate(over="ignore"):
                out[year] = float(np.mean(vals)) if vals else float("nan")
        return out


def cross_test(
    checkpoints: Mapping[int, Checkpoint], series: Mapping[int, PriceSeries]
) -> CrossTestMatrix:
    """Evaluate every agent on every year and normalize by same-year returns.

    Each (agent, test year) cell is one :func:`evaluate_greedy` call, and the
    cells are independent: :func:`_process_map` spreads them over the usable
    CPUs. ``raw`` has the bits of one loop over the cells in row-major order
    on any number of CPUs, and the error raised is that loop's: the first
    failing cell's, an agent's unusable battery metadata
    (:func:`checkpoint_config`) failing at its first cell.
    """
    if set(checkpoints) != set(series):
        raise ConfigError(
            f"checkpoint years {sorted(checkpoints)} do not match series years {sorted(series)}"
        )
    years = tuple(sorted(series))
    if len(years) < 2:
        raise ConfigError(f"cross-test needs at least 2 years, got {len(years)}")

    n = len(years)

    def cell(c: int) -> float:
        agent, test = divmod(c, n)
        ckpt = checkpoints[years[agent]]
        return evaluate_greedy(ckpt, series[years[test]], checkpoint_config(ckpt))

    return CrossTestMatrix(years, np.array(_process_map(cell, range(n * n))).reshape(n, n))


def _process_map(fn, items: Sequence) -> list:
    """``[fn(item) for item in items]``, over one process per usable CPU.

    With ``k`` processes (the usable CPUs of :func:`os.sched_getaffinity`, at
    most one per item), share ``w`` takes items ``w::k``. This process runs
    share 0, and a child made by :func:`os.fork` each other share: it reads
    ``fn`` and ``items`` copy-on-write, pipes back its pickled results and
    ends with :func:`os._exit`, so it runs no atexit handler and flushes no
    inherited stdio buffer. Where ``os.fork`` or ``os.sched_getaffinity`` is
    missing (Windows, macOS), everything runs in this process.

    A share stops at its first failing item, and the error raised is that of
    the lowest failing item: the one the plain loop raises. A child that ends
    without a whole result is an RtpArbError. No child outlives the call:
    each is reaped on return, error or interrupt, and killed first unless its
    result was read.
    """
    import pickle

    def run(share: range):
        results = []
        for i in share:
            try:
                results.append(fn(items[i]))
            except Exception as exc:  # the caller raises the lowest failing item's
                return results, (i, exc)
        return results, None

    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = max(1, min(len(os.sched_getaffinity(0)) if can_fork else 1, len(items)))
    shares = [range(len(items))[w::k] for w in range(k)]
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    read = False
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(rfd)
                    result = pickle.dumps(run(share))
                    with open(wfd, "wb") as pipe:
                        pipe.write(result)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            children[pid] = open(rfd, "rb")
        outcomes = [run(shares[0])]
        sent = [pipe.read() for pipe in children.values()]
        read = True
    finally:
        if not read:
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)
        for pipe in children.values():
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in children]
    for pid, data, status in zip(children, sent, statuses):
        try:
            outcomes.append(pickle.loads(data))
        except Exception:  # empty or truncated: the child died before writing all of it
            code = os.waitstatus_to_exitcode(status)
            raise RtpArbError(f"worker process {pid} ended without a result (exit code {code})") from None

    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    out = [None] * len(items)
    for w, (results, _) in enumerate(outcomes):
        out[w::k] = results
    return out


@dataclass(frozen=True)
class DailyPolicyTrace:
    """Greedy dispatch over whole days: from the UTC hour ``start`` (kept in
    ``timezone.utc``), 24 hourly prices a day, with the action and
    post-action charge of each."""

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
        object.__setattr__(self, "start", utc_start(self.start))

    @property
    def hours(self) -> tuple[datetime, ...]:
        """The UTC hour-start of each row, derived from ``start``."""
        return tuple(self.start + i * HOUR for i in range(len(self.prices)))


def daily_policy_trace(
    prices: PriceSeries,
    day: date,
    rollout: tuple[float, list[Action], list[float]],
) -> DailyPolicyTrace:
    """Greedy dispatch restricted to one UTC day of the series.

    ``rollout`` is :func:`greedy_rollout`'s result on ``prices``: it covers
    the whole series (the policy sees full price history and carries charge
    into the day), and only the 24 rows of ``day`` are returned. The final
    series hour has no action, so a day touching it is rejected.
    """
    start = datetime.combine(day, dtime(), tzinfo=timezone.utc)
    first = prices.index_of(start)
    last = first + 23
    if last > len(prices) - 2:
        raise ValidationError(
            f"day {day.isoformat()} is not fully covered by dispatchable hours of {prices!r}"
        )
    _, actions, charges = rollout
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


def _curve_step(text: str) -> int:
    # a step is drawn on a float axis: one past the float range has no place there
    step = whole_number(text)
    if step > sys.float_info.max:
        raise ValueError("step is beyond the float range")
    return step


def read_training_curves_csv(path) -> list[TrainingCurve]:
    _, (years, steps, returns) = read_columns(path, TRAINING_CURVES_HEADER, (whole_number, _curve_step, float))
    by_year: dict[int, list[tuple[int, int, float]]] = {}
    for row_no, (year, step, ret) in enumerate(zip(years, steps, returns.tolist()), start=2):
        by_year.setdefault(year, []).append((row_no, step, ret))
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


def _normalized(text: str) -> float:
    # an empty cell is a suppressed column, the only non-finite value written
    if not text:
        return math.nan
    try:
        value = float(number_text(text))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad number {text!r}")
    return value


def read_cross_test_csv(path) -> CrossTestMatrix:
    _, (agents, tests, raws, norms) = read_columns(path, CROSS_TEST_HEADER, (whole_number, whole_number, float, _normalized))
    # (agent year, test year) -> (row number, raw return, normalized cell)
    cells: dict[tuple[int, int], tuple[int, float, float]] = {}
    for row_no, (agent, test, raw, norm) in enumerate(zip(agents, tests, raws.tolist(), norms), start=2):
        key = (agent, test)
        if key in cells:
            raise ValidationError(f"{path}: row {row_no}: agent {key[0]} on {key[1]} is listed twice")
        cells[key] = (row_no, raw, norm)
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


#: The actions by the name the daily-policy writer writes (``str(action)``).
_ACTIONS_BY_NAME = {str(a): a for a in ACTIONS}


def _action(text: str) -> Action:
    try:
        return _ACTIONS_BY_NAME[text]
    except KeyError:
        raise ValueError(f"unknown action {text!r}") from None


def read_daily_policy_csv(path) -> DailyPolicyTrace:
    start, (prices, actions, charges) = read_columns(path, DAILY_POLICY_HEADER, (float, _action, float), hourly=True)
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
